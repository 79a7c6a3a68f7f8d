(** A certifying TLA+ backend: render an [Ir.t] as a TLC-checkable
    module, so [Explore]'s verdicts can be cross-checked by an
    independent model checker on small instances.

    The emitted module is deviation-agnostic: the deviation under test
    arrives through CONSTANTS ([TargetStates], [CoveredStates], [Stall],
    [DevSeat], [N]), so one module serves the whole §4.3 catalogue and
    [cfg] instantiates it per deviation. The mapping (DESIGN.md §16):

    - chain states → the [States] string set and per-seat [pos] variable;
    - the suggested play → [Faithful(i)]/[Deviant] next-state actions
      (an undefined transition self-loops, as in [Machine]);
    - phases → the [ph] cursor and the [Checkpoint] action, which fires
      exactly when no seat's state belongs to the open phase;
    - the §4.3 claims → the [DetectionComplete] and [NoFalseAccusation]
      state invariants over the per-phase acted/evidence sets.

    Omissions ([Stall = TRUE]) disable the targeted step, so the phase
    barrier wedges: that is [Explore]'s progress-timeout detection, and
    under TLC it surfaces as a deadlock — stall instances should be run
    with deadlock checking off (or the deadlock read as the detection).

    The golden files under test/ pin the emission byte-for-byte; a real
    TLC run is gated behind the [DAMD_TLC] env var in the test rules. *)

val emit : Ir.t -> string
(** The TLA+ module text. Deterministic: states, actions, and phases
    render in IR declaration order. The module name is the IR name with
    non-alphanumerics mapped to ['_'] (state names stay verbatim — they
    live inside TLA+ strings). *)

val cfg :
  Ir.t ->
  deviation:Dev.t ->
  nodes:int ->
  seat:int ->
  stall:bool ->
  honest:bool ->
  string
(** The paired TLC configuration: instantiates [N]/[DevSeat] and
    evaluates the deviation's target and coverage sets at emission time
    ([honest] is the checker-neighborhood assumption fed to
    [Machine.covered_action]; [seat] 0 = the all-faithful product). *)

val target_states : Ir.t -> Dev.t -> string list
(** States whose suggested action the deviation targets — the
    state-level view of [Explore]'s target mask, in declaration order. *)

val covered_states : Ir.t -> Dev.t -> honest:bool -> string list
(** The targeted states whose deviant execution deposits checkpoint
    evidence under the given neighborhood-honesty assumption. *)

val sanitize : string -> string
(** Maps every character outside [[A-Za-z0-9_]] to ['_'] — the TLA+
    module-name restriction. *)
