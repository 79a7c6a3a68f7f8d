(** The spec IR indexed once for the checkers, plus the §4.3 evidence
    model they all share.

    [Explore] (its search at n seats, and at two for [Absint]), [Tla]
    (TLC emission) and [Por] (the reduction guard) all read one table:
    the suggested play of every chain state — an undefined transition,
    or one that leaves the declared states, self-loops — and the phase
    each state belongs to. Lookups take the first binding of every key,
    as the [Ir.suggested_action] / [Ir.find_action] / [Ir.step] /
    [Ir.phase_of_state] scans do, so shadowed duplicates never win; the
    build is O(|IR|) through hash tables. *)

type t = {
  states : string array;  (** IR declaration order *)
  sugg_id : string option array;  (** suggested action id per state *)
  action_of : Ir.action option array;  (** its declared record, if any *)
  dst_of : int array;
      (** suggested destination; the state itself when the transition
          is undefined or lands outside the declared states *)
  phase_of : int array;  (** first phase listing the state, [-1] = none *)
  nphases : int;
  phase_names : string array;
  certifiers : string option array;  (** per phase, rendered rule *)
  dev_lbl : string array;  (** ["deviant!<aid>"] per state, shared *)
  cp_lbl : string array;  (** ["[checkpoint <phase>]"] per phase, shared *)
  initial : int option;  (** [None] when the initial state is undeclared *)
  action : (string, Ir.action) Hashtbl.t;  (** declared actions by id *)
  phase_index : (string, int) Hashtbl.t;
      (** phase index by member name, undeclared members included *)
}

val build : Ir.t -> t

(** {1 The evidence model} *)

val covered_action : Ir.action -> honest:bool -> bool
(** The abstract §4.3 coverage case split: can the declared checking
    story surface a deviant execution of this action, given whether the
    deviant's checker neighborhood contains an honest node?
    Message-passing needs an enforcement rule and an honest checker,
    computation needs [mirrored && digested] and an honest checker,
    information revelation needs [digested] (the DATA1-style global
    comparison); unclassified and internal actions are never covered. *)

val exemptions : (Dev.t * string) list
(** Deviations the checking story does not claim, with the reason —
    [Misreport_cost] (neutralized by VCG strategyproofness, not by
    checkers) and [Lying_checker] (a checker-role no-op in isolation). *)

val coverage_mask : t -> honest:bool -> bool array
(** Per state: the suggested action is [covered_action]. *)

val target_masks : t -> Dev.t -> bool array
(** [target_masks m] sweeps the states once; the returned lookup gives,
    per label, the states whose suggested action the label targets.
    Masks are shared and must not be mutated. *)
