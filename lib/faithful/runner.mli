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
    the mechanism to make progress).

    The network environment is one engine shaper per run. Per send, in
    this order, it decides [channel_loss], the [perturbation]'s copy
    drops and duplicates, and the [fault] schedule; a later decision
    draws from its seeded stream only for messages the earlier ones let
    through. Every environment loss is counted once, as sent and then
    lost, and none touches an execution packet. *)

type bank =
  | Certified
      (** the stock bank of §4.2: the DATA1, BANK1 and BANK2 checkpoints
          certify each construction phase as it ends, and settlement
          clears execution against the certified tables *)
  | Deferred
      (** the same checks, run once after the whole construction (stuck
          phase ["deferred-certification"] when one fails): the
          phase-decomposition ablation of experiment E8 *)
  | Skip_pricing  (** no BANK2: the pricing table is never compared *)
  | Naive_settlement
      (** every checkpoint runs, but settlement believes every DATA4
          report and audits no route *)
  | Unchecked
      (** checkers still receive copies, but the bank checks nothing and
          believes every report: the unfaithful baseline of experiment E7 *)
  | Plain
      (** plain FPSS: no checker copies, no checks, naive settlement — the
          overhead baseline of experiment E6 *)
(** The six banks a run can use. [Skip_pricing] and [Naive_settlement]
    deliberately weaken the mechanism: the gauntlet runs them (with
    [Unchecked]) to prove its faithfulness-violation oracle has teeth, a
    weakened bank must let some sampled deviation profit. *)

type perturb = {
  jitter : float;
      (** per-link latency spread: each link's constant delay is drawn
          from [max(0.1, 1-jitter), 1+jitter) — per-link FIFO preserved;
          [0.] keeps every link at latency 1.0 *)
  dup_p : float;
      (** probability of duplicating each construction message; the copy
          arrives immediately after the original (same timestamp, later
          pqueue sequence number) *)
  drop_p : float;  (** drop probability while [drop_budget] remains *)
  drop_budget : int;
      (** at most this many checker-copy messages are lost; each loss
          can cost one phase restart, so keep it within [max_restarts] *)
  perturb_seed : int;  (** all perturbation draws derive from this *)
}
(** The schedule perturbation, and the runner's only latency model. It
    reorders and extends the event schedule (jitter, duplicates) and
    exercises the restart machinery (bounded copy drops) without changing
    the certified tables or utilities — so a utility delta under
    perturbation is still attributable to the deviation, not the
    schedule. Gauntlet campaigns draw all five fields; the asynchrony
    experiment (E11) and [damd_cli routing --latency-seed S] use jitter
    alone, [{ no_perturbation with jitter = 0.5; perturb_seed = S }]:
    per-link latencies uniform in [0.5, 1.5). *)

val no_perturbation : perturb
(** All zero: constant latency 1.0, no duplicates, no drops. *)

type params = {
  progress_penalty : float;
      (** utility when a construction phase never certifies (large) *)
  epsilon : float;  (** the bank's fine margin *)
  max_restarts : int;  (** restarts per phase before declaring it stuck *)
  bank : bank;  (** which of the six banks certifies and settles the run *)
  channel_loss : (float * int) option;
      (** [(p, seed)]: lose every construction message (every message
          but an execution [Packet]) independently with probability [p] —
          a *non-rational* omission-failure model. The paper's §5 flags
          exactly this: other failure classes can make the system
          "falsely detect and punish manipulation"; experiment E12
          measures it *)
  perturbation : perturb;
      (** latency jitter and schedule perturbation (default
          [no_perturbation]) *)
  fault : Damd_sim.Fault.spec option;
      (** seeded mixed-failure injection ([Damd_sim.Fault]): per-link
          loss/reordering, a healing partition, fail-stop crash/recover
          with protocol-level table handoff. Active during construction
          only ([Fault.deactivate] at execution start), and armed on a
          phase's first attempt only: the runner reads the attempt number
          [Phase.execute] passes, so a restart runs without re-injecting.
          When set, the
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
          each construction phase attempt (its [attempt] arg is
          [Phase.execute]'s number, from 1) and the execution/settlement
          in spans, and emits ["checkpoint"] instants (certified/failed with
          reason) and ["accusation"] instants — one per bank detection,
          tagged with rule, culprit, evidence class
          (contradiction/omission/livelock) and the phase in which the
          evidence surfaced. Engine counters are snapshotted into the
          sink's metrics registry under [engine.construction.*] and
          [engine.execution.*]. *)
}

val default_params : params
(** Progress penalty 10^5, epsilon 1, 2 restarts, the [Certified] bank,
    constant latency. A delivered unit of a node's own traffic is worth
    50 to it in every run. *)

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
      (** signed bank-channel bytes of the construction checkpoints the
          bank collects ([Bank.checkpoint_bytes]): 0 for the [Unchecked]
          and [Plain] banks, DATA1 and BANK1 for [Skip_pricing] *)
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
