(** Phase decomposition with certified checkpoints — §3.8–3.9 of the paper.

    "A distributed mechanism can be decomposed into disjoint phases, each
    of which is proven strong-CC and strong-AC without worrying about
    joint deviations involving actions in other phases. Phases are
    separated during runtime with checkpoints where some node(s) certify a
    phase outcome and start a subsequent phase."

    A phase transforms a state and a checkpoint certifies the result; a
    failed certificate restarts the phase (the paper's construction-phase
    penalty: the mechanism does not progress). [execute] is the one
    counter of a phase's attempts: it passes each run its number, so a
    caller that must act on the first attempt only (the faithful runner
    arms its fault schedule there) reads it instead of counting again. *)

type 'state t = {
  name : string;
  run : attempt:int -> 'state -> 'state;
      (** [attempt] is 1 on the phase's first run and grows by one on
          each restart. *)
  certify : 'state -> (unit, string) result;
      (** [Ok ()] green-lights the next phase; [Error reason] restarts this
          one. The checkpointing node in the FPSS extension is the bank. *)
}

type 'state progress = {
  state : 'state;
  restarts : (string * string) list;
      (** (phase name, reason) for every restart that occurred, in order *)
}

type 'state outcome =
  | Completed of 'state progress
  | Stuck of { phase : string; reason : string; progress : 'state progress }
      (** a phase failed certification on all of its [max_restarts + 1]
          attempts — with a persistent deviant this is the paper's
          "penalty of no progress" *)

val execute : max_restarts:int -> 'state -> 'state t list -> 'state outcome
(** Run phases in order; each must certify before the next begins. A
    phase runs at most [max_restarts + 1] times, attempts numbered from 1. *)

val total_restarts : 'state progress -> int
