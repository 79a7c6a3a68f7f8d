(** Empirical strategyproofness checking (Definition 5 of the paper).

    A mechanism is strategyproof when no node can gain by misreporting its
    type, for any true profile and any misreport. This module turns that
    universally-quantified statement into a randomized sweep: sample type
    profiles, sample (or enumerate) misreports, and record every violation
    with its witness. Theorems should produce zero violations; the naive
    baselines in this repository exist precisely to produce some. *)

type 'theta violation = {
  profile : 'theta array;  (** the true types *)
  agent : int;  (** who deviated *)
  lie : 'theta;  (** the profitable misreport *)
  truthful_utility : float;
  deviant_utility : float;
  gain : float;  (** [deviant - truthful], strictly positive *)
}

type 'theta report = {
  trials : int;  (** profile × agent × lie combinations tested *)
  violations : 'theta violation list;  (** worst (largest-gain) first *)
  max_gain : float;  (** 0. when no violation was found *)
}

val check :
  rng:Damd_util.Rng.t ->
  profiles:int ->
  lies_per_agent:int ->
  sample_profile:(Damd_util.Rng.t -> 'theta array) ->
  sample_lie:(Damd_util.Rng.t -> int -> 'theta -> 'theta) ->
  ('theta, 'outcome) Mechanism.t ->
  'theta report
(** Randomized sweep. [sample_lie rng i theta_i] proposes a misreport for
    node [i] whose true type is [theta_i]. Gains at or below 1e-9 are
    attributed to floating-point noise and ignored. *)

val check_exhaustive :
  profiles:'theta array list ->
  lies:(int -> 'theta -> 'theta list) ->
  ('theta, 'outcome) Mechanism.t ->
  'theta report
(** Deterministic sweep over explicitly enumerated profiles and lies; used
    for small discrete type spaces where full coverage is feasible. Gains
    at or below 1e-9 are ignored, as in [check]. *)

val is_strategyproof : 'theta report -> bool
(** No violations found. *)
