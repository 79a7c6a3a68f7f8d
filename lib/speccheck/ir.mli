(** A finite specification IR — §3.1's state-machine specification made
    explicit enough to analyze statically.

    The existing [Damd_core.State_machine] is a bundle of opaque closures:
    executable, but nothing can be *proven about* it without running it.
    This IR is the declarative counterpart: finite state set, typed actions
    carrying their §3.4 class and declared input dependencies, an explicit
    transition table, the suggested-play map, and the phase decomposition
    with checkpoint markers (§3.8–3.9). [Machine] indexes an IR once for
    every checker (an undefined transition self-loops), so the IR is the
    single source of truth, and [Check] evaluates Prop. 2's structural
    preconditions — strong-CC / strong-AC candidacy, phase discipline —
    without a single simulation step. *)

type input =
  | Private_info
      (** the node's own type (true transit cost, own traffic demands) *)
  | Received_messages  (** payloads received from other nodes *)
  | Protocol_state
      (** certified or locally accumulated protocol state (tables,
          dedup sets) — public by construction *)

type action = {
  id : string;  (** stable identifier, unique within the spec *)
  descr : string;  (** the catalogue's human-readable row *)
  cls : Damd_core.Action.t option;
      (** §3.4 class; [None] means unclassified, which the checker rejects
          ([unclassified-action]) — the totality obligation *)
  inputs : input list;
      (** what the action's externally visible output may depend on; the
          strong-CC check (Def. 12) rejects [Private_info] here for
          message-passing actions *)
  rules : Rule.t list;  (** enforcement rules covering this action *)
  mirrored : bool;
      (** some checker rule recomputes this action's output (Def. 13) *)
  digested : bool;
      (** the action's output is covered by a bank digest comparison *)
  deviations : Dev.t list;  (** adversary-library deviations targeting it *)
}

type checkpoint = { certifier : Rule.t }
(** A certified checkpoint: the rule whose digests the bank compares
    before green-lighting the next phase. *)

type phase = {
  pname : string;
  members : string list;  (** the states in which this phase's actions run *)
  checkpoint : checkpoint option;
      (** [None] is rejected by the checker ([missing-checkpoint]): §3.9
          requires every phase to end in a certified checkpoint *)
}

type transition = { src : string; act : string; dst : string }

type t = {
  name : string;
  states : string list;
  initial : string;
  actions : action list;
  transitions : transition list;
  suggested : (string * string) list;
      (** the specification [s : L -> A] as (state, action id); a state
          with no entry halts *)
  phases : phase list;  (** in execution order *)
}

val find_action : t -> string -> action option

val suggested_action : t -> string -> string option

val step : t -> string -> string -> string option
(** [step ir state act] is the transition target, if the table defines
    one. *)

val phase_of_state : t -> string -> phase option
(** The first phase listing the state as a member. *)

val phases_of_action : t -> string -> phase list
(** Every phase in which an action runs — the phases of the source states
    of *all* its transitions, deduplicated, in declaration order. An
    action spanning two phases is legal IR but suspicious (its proof
    obligation would straddle a checkpoint); [Check] flags it as the
    [multi-phase-action] warning. *)

val phase_of_action : t -> string -> phase option
(** The earliest phase (in declaration order) in which the action runs,
    i.e. the head of [phases_of_action]. Historical note: this used to be
    the phase of the action's textually first transition, silently
    mis-attributing an action whose transitions span two phases. *)
