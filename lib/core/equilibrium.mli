(** Empirical equilibrium analysis: ex post Nash, IC, CC, AC and the
    strong variants (Definitions 6–13 of the paper).

    The paper *proves* these properties; this module *checks* them on
    concrete systems by sweeping sampled type profiles against a library
    of named deviations. A clean sweep is evidence for the theorem (and
    regression protection for the implementation); the baselines with
    checking disabled are expected to produce violations, reproducing the
    incentive problem the paper sets out to fix.

    Each deviation is tagged with the action classes it touches:
    - IC examines deviations touching only [Information_revelation];
    - strong-CC examines deviations touching [Message_passing] possibly
      *combined with* revelation/computation deviations (Def. 12 quantifies
      over "whatever its computational and information-revelation
      actions") — i.e. any deviation whose classes include message-passing;
    - strong-AC symmetrically for [Computation];
    - the full ex post Nash check examines everything.

    Every check treats a utility gain at or below 1e-9 as floating-point
    noise, not a violation. *)

type ('theta, 'strategy) deviation = {
  name : string;
  classes : Action.t list;  (** external action classes the deviation touches *)
  build : int -> 'strategy;  (** deviant strategy for node [i] *)
  applies_to : int -> bool;  (** which nodes can mount it (default: all) *)
}

val deviation :
  ?applies_to:(int -> bool) ->
  name:string ->
  classes:Action.t list ->
  (int -> 'strategy) ->
  ('theta, 'strategy) deviation

type violation = {
  deviation_name : string;
  agent : int;
  profile_index : int;  (** which sampled profile produced it *)
  gain : float;
}

type report = {
  property : string;
  profiles_tested : int;
  deviations_tested : int;
  comparisons : int;
  violations : violation list;  (** largest gain first *)
  max_gain : float;
}

val holds : report -> bool

val pp_report : Format.formatter -> report -> unit

val check :
  property:string ->
  rng:Damd_util.Rng.t ->
  profiles:int ->
  sample_types:(Damd_util.Rng.t -> 'theta array) ->
  deviations:('theta, 'strategy) deviation list ->
  ('theta, 'strategy, 'outcome) Dmech.t ->
  report
(** For each sampled profile, each deviation, and each node it applies to,
    compare the deviant's utility against the faithful run. Gains at or
    below 1e-9 are ignored. *)

val ex_post_nash :
  rng:Damd_util.Rng.t ->
  profiles:int ->
  sample_types:(Damd_util.Rng.t -> 'theta array) ->
  deviations:('theta, 'strategy) deviation list ->
  ('theta, 'strategy, 'outcome) Dmech.t ->
  report
(** [check] over the whole deviation library: Definition 8's faithfulness,
    relative to that library. *)

val strong_cc :
  rng:Damd_util.Rng.t ->
  profiles:int ->
  sample_types:(Damd_util.Rng.t -> 'theta array) ->
  deviations:('theta, 'strategy) deviation list ->
  ('theta, 'strategy, 'outcome) Dmech.t ->
  report
(** Definition 12: restrict to deviations whose classes include
    [Message_passing] (alone or jointly with other classes). *)

val strong_ac :
  rng:Damd_util.Rng.t ->
  profiles:int ->
  sample_types:(Damd_util.Rng.t -> 'theta array) ->
  deviations:('theta, 'strategy) deviation list ->
  ('theta, 'strategy, 'outcome) Dmech.t ->
  report
(** Definition 13: deviations whose classes include [Computation]. *)

val best_response_dynamics :
  start:'strategy array ->
  candidates:(int -> 'strategy list) ->
  types:'theta array ->
  max_rounds:int ->
  ('theta, 'strategy, 'outcome) Dmech.t ->
  [ `Converged of 'strategy array * int | `No_convergence of 'strategy array ]
(** Sequential (Gauss–Seidel) best-response dynamics over a finite
    candidate set: each round, each node in turn switches to a candidate
    strategy only if it *strictly* improves its utility (by more than
    1e-9) against the others' current strategies — the inertia
    reading of the paper's Remark 1 benevolence. Returns the profile and
    the number of rounds once a full round passes with no switch.

    This probes Remark 2 (equilibrium multiplicity): from a profile with a
    single deviant the dynamics fall back to the suggested specification
    (faithful play is strictly better once everyone else is faithful,
    because the deviation gets punished); but a coalition of stallers can
    be a *bad* weak equilibrium that inertia alone never leaves — which is
    exactly why the paper argues some obedient nodes act as a correlating
    device selecting the suggested equilibrium. Experiment E19. *)

val incentive_compatible :
  rng:Damd_util.Rng.t ->
  profiles:int ->
  sample_types:(Damd_util.Rng.t -> 'theta array) ->
  deviations:('theta, 'strategy) deviation list ->
  ('theta, 'strategy, 'outcome) Dmech.t ->
  report
(** Definition 9: deviations touching only [Information_revelation]. *)
