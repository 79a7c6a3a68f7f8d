(** End-to-end execution of the extended-FPSS protocol on the simulator.

    Orchestrates the phase sequence of §4 — transit-cost flood, routing
    construction, pricing construction, execution — with the bank
    certifying each construction checkpoint ([Damd_core.Phase] supplies the
    restart machinery) and clearing the execution phase. Returns per-node
    quasilinear utilities, all bank detections, and message/byte
    accounting.

    The suggested specification is [deviations = all Faithful]; handing
    any node another [Adversary.t] is the paper's rational-manipulation
    failure. The utility model (DESIGN.md §5): value of own delivered
    traffic, minus payments and fines, plus transit income, minus true
    transit costs, minus a large progress penalty if the mechanism never
    certifies (the paper's assumption that every node strongly prefers
    the mechanism to make progress). *)

type bank_checks = {
  pricing_check : bool;  (** BANK2 pricing checkpoint *)
  settlement_check : bool;
      (** verified execution clearing (DATA4 comparison + route audit) *)
}
(** The bank checks that can be switched off one by one, both [true] in
    [all_checks]; the DATA1 and BANK1 checkpoints always run while
    [checking] holds. Turning one off deliberately weakens the mechanism
    — the gauntlet uses this to prove its faithfulness-violation oracle
    has teeth (a weakened bank must let some sampled deviation profit).
    [checking = false] overrides them all. *)

val all_checks : bank_checks

type perturb = {
  jitter : float;
      (** per-link latency spread: each link's constant delay is drawn
          from [max(0.1, 1-jitter), 1+jitter) — per-link FIFO preserved *)
  dup_p : float;
      (** probability of duplicating each construction message; the copy
          arrives immediately after the original (same timestamp, later
          pqueue sequence number) *)
  drop_p : float;  (** drop probability while [drop_budget] remains *)
  drop_budget : int;
      (** at most this many checker-copy messages are dropped; each drop
          costs one phase restart, so keep it within [max_restarts] *)
  perturb_seed : int;  (** all perturbation draws derive from this *)
}
(** Adversarial schedule perturbation for gauntlet campaigns: reorders and
    extends the event schedule (jitter, duplicates) and exercises the
    restart machinery (bounded copy drops) without changing the certified
    tables or utilities — so a utility delta under perturbation is still
    attributable to the deviation, not the schedule. *)

type params = {
  progress_penalty : float;
      (** utility when a construction phase never certifies (large) *)
  epsilon : float;  (** the bank's fine margin *)
  max_restarts : int;  (** restarts per phase before declaring it stuck *)
  checking : bool;
      (** false = disable checkers and bank verification (the unfaithful
          baseline of experiment E7) *)
  checks : bank_checks;  (** fine-grained switches, see [bank_checks] *)
  copies : bool;
      (** false = principals do not relay checker copies at all — the
          plain-FPSS overhead baseline of experiment E6 (implies no
          meaningful mirrors; use with [checking = false]) *)
  deferred_certification : bool;
      (** true = run all construction phases without intermediate
          checkpoints and certify everything only at the end — the
          phase-decomposition ablation of experiment E8 *)
  latency_seed : int option;
      (** when set, per-link latencies are drawn uniformly from
          [0.5, 1.5) instead of the constant 1.0 — asynchrony robustness
          (per-link FIFO is preserved, as the model requires) *)
  channel_loss : (float * int) option;
      (** [(p, seed)]: drop every construction message independently with
          probability [p] — a *non-rational* omission-failure model. The
          paper's §5 flags exactly this: other failure classes can make
          the system "falsely detect and punish manipulation"; experiment
          E12 measures it *)
  perturbation : perturb option;
      (** gauntlet schedule perturbation; composes with [channel_loss]
          (loss applies first). Overrides [latency_seed] when
          [jitter > 0]. *)
  fault : Damd_sim.Fault.spec option;
      (** seeded mixed-failure injection ([Damd_sim.Fault]): per-link
          loss/reordering, a healing partition, fail-stop crash/recover
          with protocol-level table handoff. Active during construction
          only ([Fault.deactivate] at execution start). When set, the
          bank's routing/pricing checkpoints run in fault-tolerant
          evidence mode ([Bank.checkpoint ~fault_tolerant:true]):
          blame only on signed-statement contradictions, restarts without
          blame on omission-shaped mismatches. [None] (the default) is
          bit-for-bit the stock runner. *)
  max_events : int;
      (** per-quiescence event budget; exceeding it is a LIVELOCK
          detection. The default (10^7) effectively never fires on honest
          runs; the gauntlet lowers it so livelocking deviations fail
          fast. *)
  obs : Damd_obs.Obs.t;
      (** observability sink (default [Damd_obs.Obs.noop], which is
          allocation-free on the hot path). With a live sink the runner
          instruments the engine (per-message-kind counters, queue-depth
          samples, per-message instants when the sink is detailed), wraps
          each construction phase attempt and the execution/settlement in
          spans, and emits ["checkpoint"] instants (certified/failed with
          reason) and ["accusation"] instants — one per bank detection,
          tagged with rule, culprit, evidence class
          (contradiction/omission/livelock) and the phase in which the
          evidence surfaced. Engine counters are snapshotted into the
          sink's metrics registry under [engine.construction.*] and
          [engine.execution.*]. *)
}

val default_params : params
(** Progress penalty 10^5, epsilon 1, 2 restarts, checking and copies
    on, phase-by-phase certification, constant latency. A delivered unit
    of a node's own traffic is worth 50 to it in every run. *)

type result = {
  completed : bool;
  stuck_phase : string option;
  restarts : int;
  detections : Bank.detection list;  (** construction + execution *)
  utilities : float array;
  construction_messages : int;
  construction_bytes : int;
  execution_messages : int;
  bank_bytes : int;
  tables : Damd_fpss.Tables.t option;
      (** the certified tables, when the construction completed *)
  sim_time : float;
}

val run :
  ?params:params ->
  graph:Damd_graph.Graph.t ->
  traffic:Damd_fpss.Traffic.t ->
  deviations:Adversary.t array ->
  unit ->
  result
(** Deterministic: same inputs, same result. The graph carries the *true*
    transit costs; declarations happen inside the protocol (phase 1). *)

val run_faithful :
  ?params:params ->
  graph:Damd_graph.Graph.t ->
  traffic:Damd_fpss.Traffic.t ->
  unit ->
  result
(** All nodes faithful. *)

val utility_gain :
  ?params:params ->
  graph:Damd_graph.Graph.t ->
  traffic:Damd_fpss.Traffic.t ->
  node:int ->
  deviation:Adversary.t ->
  unit ->
  float
(** [u_node(deviation) - u_node(faithful)] with everyone else faithful —
    the quantity that must be non-positive for every library deviation
    when the specification is faithful (Definition 8). *)
