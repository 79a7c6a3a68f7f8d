(** Randomized adversarial campaigns — the empirical Theorem 1 gauntlet.

    A {e campaign} is one fully-specified adversarial scenario: a sampled
    biconnected topology, one or more deviations from the manipulation
    catalogue (including multi-node profiles and [Collude_with]
    coalitions) seated on sampled principals, and a perturbed event
    schedule (latency jitter, duplicate deliveries, bounded checker-copy
    drops). The campaign runs end-to-end through [Faithful.Runner] and is
    graded against the centralized VCG oracle ([Fpss.Pricing.compute])
    with an explicit verdict:

    - {e detected}: the construction never certified (the restart
      machinery starved the deviation), or a bank detection attributed a
      deviant by name;
    - {e undetected-but-unprofitable}: the run certified, no detection
      named a deviant, and no deviant improved its own utility over the
      unilateral baseline (same campaign with only that deviant reverted
      to [Faithful] — the ex post Nash comparison of Definition 8);
    - {e faithfulness violation}: a deviant escaped detection AND either
      profited (utility delta above tolerance, "profit") or left the
      certified tables disagreeing with the VCG oracle on the declared
      costs ("integrity").

    Every campaign is a pure function of a single integer seed, so any
    verdict replays bit-for-bit; failing campaigns are minimized by a
    greedy shrinker before reporting. Theorem 1 predicts zero violations
    on the stock mechanism; the weakened banks ([weaken_name]) disable
    individual bank checks to prove the verdict oracle has teeth. *)

module Adversary := Damd_faithful.Adversary
module Runner := Damd_faithful.Runner

type topology =
  | Mesh of int * int  (** rows x cols grid, no wrap (both >= 2) *)
  | Torus of int * int  (** rows x cols with wrap (both >= 3) *)
  | Chordal of int * int  (** n-cycle plus this many random chords *)
  | Er of int * float  (** G(n, p), repaired to biconnectivity *)

val topology_n : topology -> int
val topology_name : topology -> string

type descr = {
  seed : int;  (** the campaign's replay seed ([of_seed seed] = this) *)
  topology : topology;
  graph_seed : int;  (** drives cost draw and random wiring *)
  traffic_rate : float;  (** uniform all-pairs demand *)
  deviants : (int * Adversary.t) list;  (** sorted by node id *)
  perturb : Runner.perturb;
  fault : Damd_sim.Fault.spec option;
      (** seeded mixed-failure schedule ([None] on stock campaigns) *)
}
(** A fully explicit campaign description. [of_seed] produces one from a
    seed; the shrinker mutates it directly (at which point it no longer
    equals any [of_seed] output and is reported in full). *)

type mix = {
  faults : bool;
      (** sample a mixed-failure schedule (link loss/reorder, healing
          partition, crash/recover) for every campaign, occasionally
          promote a deviant to [Adversary.Byzantine_arbitrary], and run
          the bank's checkpoints in fault-tolerant evidence mode *)
  epsilon : float option;
      (** wrap every sampled deviant in [Adversary.Epsilon_rational]
          with this activation threshold *)
}
(** Mixed-failure campaign configuration. With [stock] the sampler, the
    runs and the JSON are bit-for-bit the historical (faults-free)
    gauntlet; all mixed-mode seed draws happen strictly after the stock
    draws. *)

val stock : mix

val is_stock : mix -> bool

val weaken_name : Runner.bank -> string
(** The gauntlet's name for a bank ([--weaken], the reports' ["weaken"]
    field): ["none"] for the stock [Certified] bank, and for deliberate
    sabotage in oracle-validation runs ["pricing"] ([Skip_pricing]),
    ["settlement"] ([Naive_settlement]) and ["all"] ([Unchecked]). The
    experiment banks print as ["deferred"] and ["plain"]. *)

val weaken_of_string : string -> Runner.bank option
(** The inverse of [weaken_name] on the four gauntlet names. *)

type verdict = Detected | Undetected_unprofitable | Violation

val verdict_name : verdict -> string

type graded = {
  descr : descr;
  verdict : verdict;
  violation_kind : string option;
      (** ["profit"], ["integrity"] or ["false-accusation"] (a bank
          detection named a node whose resolved behavior was faithful —
          the blame-correctness failure fault campaigns assert never
          happens) *)
  epsilon_active : (int * bool) list;
      (** per ε-rational deviant: did its measured unilateral gain exceed
          its threshold, i.e. did the inner deviation actually run? *)
  completed : bool;
  stuck_phase : string option;
  detected_in : string option;
      (** the detection round: the stuck phase name, or the rule
          ("BANK1", "EXEC", ...) of the first detection naming a
          deviant *)
  restarts : int;
  detections : (string * int option) list;  (** (rule, culprit) *)
  deltas : (int * float) list;
      (** per-deviant unilateral utility delta; [[]] when the run never
          certified (everyone just eats the progress penalty) *)
  max_delta : float option;
  tables_match : bool option;
      (** certified tables vs [Pricing.compute] on the declared-cost
          graph; [None] when the construction never certified *)
  sim_time : float;
}

val of_seed : ?mix:mix -> int -> descr
(** Deterministically sample a campaign from its seed (and the mix
    configuration: replaying a mixed campaign requires the same [mix]
    flags alongside the seed). Invariants: the
    topology is biconnected; between 1 and 3 deviants (a coalition counts
    its colluders); every checker-caught deviant keeps at least one
    honest neighbor, so sampled coalitions never cover a full
    neighborhood — full-cover escapes are the documented boundary of the
    paper's no-collusion assumption, not a mechanism failure
    ([Adversary.detectable_in] enforces the scope). *)

val graph_of : descr -> Damd_graph.Graph.t
(** Rebuild the campaign's graph (pure in [topology] and [graph_seed];
    asserts biconnectivity). *)

val grade : ?bank:Runner.bank -> ?obs:Damd_obs.Obs.t -> descr -> graded
(** Run the campaign and every needed unilateral baseline on [bank]
    (default [Runner.Certified]), and pronounce the verdict.
    Deterministic: byte-identical [graded] (and JSON) for equal inputs.
    With [obs] (default noop — zero overhead) the whole grade runs under
    a ["campaign"] span, the campaign's own run (not the ε-resolution or
    unilateral-baseline counterfactuals) is traced through [Runner], and
    a final ["verdict"] instant records the outcome. *)

val shrink : ?bank:Runner.bank -> graded -> graded
(** Greedy minimization of a [Violation] campaign: repeatedly try
    dropping one deviant, zeroing drops, duplication and jitter, and
    shrinking the topology one step — keeping any mutation that still
    grades [Violation] — until a fixpoint or a budget of 60 re-grades.
    Identity on non-violations. *)

val campaign_seed : master:int -> int -> int
(** [campaign_seed ~master i] is the replay seed printed for campaign [i]
    of a batch run with master seed [master] (an [Rng.fork] derivation:
    independent of every other index). *)

val run_batch :
  ?bank:Runner.bank ->
  ?mix:mix ->
  ?obs:Damd_obs.Obs.t ->
  campaigns:int ->
  seed:int ->
  unit ->
  graded list
(** Grade campaigns [0 .. campaigns-1] derived from the master seed. [obs]
    is threaded to every [grade], producing one campaign span + verdict
    instant per seed — the per-campaign verdict timeline. *)

val json_of_graded : graded -> Damd_util.Json.t
(** One campaign as JSON — also exactly what [--replay] prints. *)

val report :
  ?shrunk:graded list -> bank:Runner.bank -> seed:int -> graded list -> Damd_util.Json.t
(** The gauntlet report: config, per-verdict summary counts, every
    campaign ([json_of_graded]), and minimized violations. Schema is
    [damd-gauntlet/1] — byte-identical to the historical format — unless
    some campaign carries a fault schedule or ε-agents, in which case it
    is [damd-gauntlet/2] (same shape plus the per-campaign [fault] /
    [epsilon_active] fields). *)
