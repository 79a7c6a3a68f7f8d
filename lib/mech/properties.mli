(** Beyond strategyproofness: the other standard mechanism properties,
    checked empirically.

    These matter for the paper's story in two places: individual
    rationality under truthful play is what justifies the assumption that
    nodes want to participate at all (and that a construction-phase stall
    is a real penalty), and the budget profile of the VCG payments is the
    classic caveat of the FPSS mechanism (the "overcharging" literature
    that followed it). Each check samples truthful profiles and reports
    witnesses rather than proofs, in the same style as
    [Strategyproof]. *)

type report = {
  trials : int;
  failures : int;
  worst : float;
      (** most negative utility (IR) / most negative surplus (budget) seen;
          0. when no failure *)
}

val individually_rational :
  rng:Damd_util.Rng.t ->
  trials:int ->
  sample_profile:(Damd_util.Rng.t -> 'theta array) ->
  ('theta, 'outcome) Mechanism.t ->
  report
(** Under truthful play, does every node get utility >= 0? Losses at or
    below 1e-9 are float noise and pass. *)

val budget_balanced :
  rng:Damd_util.Rng.t ->
  trials:int ->
  sample_profile:(Damd_util.Rng.t -> 'theta array) ->
  ('theta, 'outcome) Mechanism.t ->
  report
(** Do the transfers sum to (at most) zero — i.e. the mechanism never
    injects money? [failures] counts profiles where the mechanism runs a
    deficit above 1e-9; [worst] is the largest deficit. (The Clarke tax
    typically runs a *surplus*, which passes.) *)

val efficient :
  rng:Damd_util.Rng.t ->
  trials:int ->
  sample_profile:(Damd_util.Rng.t -> 'theta array) ->
  candidates:'outcome list ->
  ('theta, 'outcome) Mechanism.t ->
  report
(** Does the truthful outcome maximize social welfare over the
    [candidates] outcome set? Shortfalls at or below 1e-9 pass; [worst] is
    the largest welfare shortfall. *)

val all_pass : report -> bool
