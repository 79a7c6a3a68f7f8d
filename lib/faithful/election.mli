(** A second faithful instantiation: the §3 leader election as a
    distributed protocol.

    The paper uses leader election as its motivating example and
    interdomain routing as its worked case study; this module closes the
    loop by running the election itself through the same machinery, which
    demonstrates that the proof technique (strategyproof centralized
    mechanism + strong-CC + strong-AC via certified phases) is generic:

    - {b Phase 1 (bids)}: every node floods its (power, cost) bid; the
      bank certifies that all nodes ended with identical bid tables
      (consistent information revelation — inconsistent bids are caught
      exactly like inconsistent cost declarations in FPSS).
    - {b Phase 2 (outcome)}: every node independently computes the
      second-score outcome (winner + runner-up score) from the certified
      bids — n-fold redundant computation. The bank compares outcome
      digests; any miscomputation restarts the phase. This is the
      *partitioning* idea in its purest form: the outcome is a pure
      function of certified-common inputs, so no single node's computation
      is trusted.
    - {b Execution}: the winner serves. Its delivered power is verified
      (running the task reveals the hardware — catch-and-punish on
      delivery), and the bank pays [benefit * true_power - runner_up_score].
      Refusing to serve forfeits the payment and draws an ε fine.

    The centralized mechanism is [Damd_mech.Leader_election.second_score]
    (strategyproof under verified delivery), so by Proposition 2 the
    suggested specification is faithful — checked empirically in
    [test/test_faithful.ml] and experiment E16. *)

type deviation =
  | Honest
  | Underbid_power  (** the §3 dodge: claim zero power *)
  | Overbid_power of float  (** inflate the power claim *)
  | Misreport_cost of float  (** claim this serving cost *)
  | Inconsistent_bid of float
      (** send power reduced by this delta to odd-indexed neighbors *)
  | Corrupt_bid_forward of float
      (** inflate the cost inside forwarded bids *)
  | Miscompute_winner
      (** report an outcome digest naming itself the winner *)
  | Refuse_to_serve  (** win, then do not run the task *)

val deviation_name : deviation -> string

val classify : deviation -> Damd_core.Action.t list

type params = {
  benefit : float;  (** per-node benefit per unit of leader power *)
  checking : bool;  (** false = the bank believes self-nominations *)
}
(** The rest is constant: each phase is retried at most 2 times, a run
    that stays stuck costs every node 1e4, and a leader that refuses to
    serve is fined 1. *)

val default_params : params

type result = {
  completed : bool;
  leader : int option;  (** the serving leader, when execution happened *)
  detections : string list;
  restarts : int;
  utilities : float array;
  messages : int;
}

val run :
  ?params:params ->
  graph:Damd_graph.Graph.t ->
  profile:Damd_mech.Leader_election.theta array ->
  deviations:deviation array ->
  unit ->
  result
(** Run the protocol on a (connected) topology: bids flood along the
    edges; the bank is the trusted checkpointing entity as in the FPSS
    extension. *)

val utility_gain :
  ?params:params ->
  graph:Damd_graph.Graph.t ->
  profile:Damd_mech.Leader_election.theta array ->
  node:int ->
  deviation:deviation ->
  unit ->
  float
(** Deviation gain against the all-honest run (Definition 8's quantity). *)

val deviation_library : deviation list
