(** The faithful protocol at scale — mirror checking over sparse state.

    [Runner] plays the full paper protocol message by message on the
    simulator: per-node closures, n-wide tables, every checker copy an
    actual delivery. That fidelity is O(n^2) in both state and traffic
    and tops out around n=64. This module is the same checking *model* on
    [Damd_fpss.Sparse] flat state: nodes announce rows (possibly
    distorted via the fixpoint's offset hooks), each checkpoint applies
    one honest recomputation per node to the announced inputs — exactly
    what a neighbor-checker holding the same announcements computes — and
    compares it with what the node announced. Honest nodes always pass
    (their announcement {i is} the honest function of their inputs, so
    there are no false accusations even when other nodes distort);
    distorters are caught with residual = their distortion.

    What is deliberately simplified relative to [Runner], and why it does
    not change what an experiment at n=10k can conclude: checkers at the
    same node hold identical announced inputs, so their deg(i) verdicts
    are unanimous and one residual computation stands in for all of them
    ([checkpoint_messages] still accounts the per-edge digest traffic);
    and the bank's restart machinery is replaced by halt-on-detection —
    at scale the question is {i whether} deviations are caught and what
    honest execution costs, not the restart choreography (covered by the
    tier-1 [Runner] tests). *)

type deviation =
  | Honest
  | Distort_routing of float
      (** announce every route [delta] above the honest cost *)
  | Distort_pricing of float  (** pad every announced price by [delta] *)

type detection = {
  culprit : int;
  phase : [ `Routing | `Pricing ];
  residual : float;  (** |announced - honest recomputation| *)
}

type report = {
  n : int;
  k : int;  (** destinations actually priced *)
  rounds_flood : int;
  rounds_routing : int;
  rounds_pricing : int;
  construction_messages : int;
  checkpoint_messages : int;
  detections : detection list;  (** empty iff every node passed *)
  completed : bool;
      (** clean checkpoints; execution/settlement ran. False means the
          mechanism halted at a checkpoint — settlement fields are 0. *)
  delivered : int;  (** (src, dest) demands routed, unit rate each *)
  total_payments : float;  (** sum of announced VCG premia paid *)
  total_true_cost : float;  (** true transit cost of delivered traffic *)
  utilities : float array;
      (** per-node quasilinear utility: value of own delivered traffic
          minus outlays, plus transit income minus true carriage cost *)
}

val run :
  ?dests:int array ->
  ?deviations:(int -> deviation) ->
  ?obs:Damd_obs.Obs.t ->
  Damd_graph.Graph.t ->
  report * Damd_fpss.Sparse.t
(** Full faithful pass: flood, routing fixpoint, routing checkpoint,
    pricing fixpoint, pricing checkpoint, then execution + settlement
    when clean. [dests] defaults to all nodes (restrict it at large n);
    a checker flags a residual above 1e-9, and a delivered unit of a
    source's own traffic is worth 100 to it. Distortion deltas must be
    positive and small enough to keep effective costs non-negative. The
    returned [Sparse.t] exposes the converged announced state. [obs]
    instruments the fixpoints ([Damd_fpss.Sparse.set_obs]: stage spans
    plus per-round dirty-set samples). *)
