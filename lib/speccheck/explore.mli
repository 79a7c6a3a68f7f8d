(** Bounded-exhaustive exploration of the deviation product space.

    One scenario = the product of [n] IR node machines, read from the
    shared [Machine] table (an undefined transition self-loops), with at
    most one node running a deviation from the [Dev.t] library. Which
    scenarios run for each label, and how their results fold into its
    verdict, is the [Scenario] plan; the search is this module's, and its
    seat count is an input: [run] searches with the topology's [n]
    seats, and [Absint]'s static frontier is the same [search] at two
    (the deviant and one faithful representative). The BFS branches on
    *which node steps next* — since each state carries at most one
    suggested action, that single choice enumerates every interleaving of
    equal-timestamp deliveries that [Damd_sim.Engine]'s documented FIFO
    tie-break could serialize, so a property that holds over the explored
    graph holds for every schedule the engine can produce.

    Phase-barrier semantics mirror [Damd_faithful.Runner]: a node may step
    only while its state belongs to the current phase (a node that crossed
    into the next phase waits); when no node remains inside the current
    phase, the checkpoint event fires — the phase's certifier (if any)
    reads the evidence deposited so far, then the next phase opens.

    The evidence model is the abstract form of the §4.3 case analysis: a
    deviant step on a targeted action deposits evidence for the current
    phase iff the action's declared coverage can surface it
    ([Machine.covered_action]). Omission
    deviations ([Silent_in_construction]) instead stall the barrier; the
    resulting progress timeout is itself a detection (certifier [None]).

    Two properties are verified per phase and reported as findings:

    - detection-completeness: every non-exempt deviation is flagged
      strictly before (or, for omissions, instead of) its phase's
      green-light — a certifier that fires without evidence while the
      deviant acted is an escape ([undetected-deviation], error);
    - no-false-accusation: the all-faithful product run deposits no
      evidence and never stalls ([false-accusation], error, otherwise).

    Further findings: [phase-reentry] (error — a step re-enters a phase
    whose checkpoint already certified), [certifier-unreachable] (error —
    a phase's certifier can never run because the product deadlocks),
    [unexplored-state] (error — an IR state no node ever occupies in any
    scenario), [exploration-truncated] (warning — the per-scenario state
    bound was exhausted, so verdicts may be incomplete).

    Dedup uses canonical states: faithful nodes are behaviorally
    interchangeable (topology enters only through the deviant's coverage
    predicate), so a product state is canonicalized as the *count
    vector* of faithful positions plus the deviant's position, phase
    index, and evidence bits — the standard symmetry reduction — and
    packed by [Statepack] into lane words: one int whenever the layout
    fits 63 bits, two for the 4x4..8x8 tori (DESIGN.md §16). A search
    keeps one flat store: every state's words in insertion order (BFS
    order, so the queue is a cursor), its depth, parent index and edge
    beside them, and one open-addressed table of store indices. A
    successor's key is its parent's words with one or two lanes
    rewritten, and a witness string is built only when an escape fires,
    by walking parent indices. Jobs of one [Scenario.shape] share one
    search. On top of that, [Por] prunes redundant interleavings of
    phase-internal faithful steps when its acyclicity guard holds, and
    searches fan out across domains via [Pool]; both are exact —
    verdicts, findings, and detection depths are unchanged (witness
    *traces* may route differently under POR). *)

type verdict =
  | Detected of { depth : int; certifier : string option }
      (** [depth] is the worst-case number of product steps between the
          deviating step and the checkpoint that surfaces it (for
          omissions, the depth at which progress provably stops);
          [certifier] is the certifying rule, [None] for the progress
          timeout. *)
  | Undetected of { witness : string }
      (** A schedule exists on which the phase green-lights with the
          deviation unflagged; [witness] is its (truncated) step trace. *)
  | Exempt of { reason : string }
      (** Outside the checking story by design — e.g. [Misreport_cost]
          (neutralized by VCG strategyproofness, not by checkers) and
          [Lying_checker] (a checker-role no-op in isolation). *)
  | Truncated  (** the state bound ran out before a verdict was reached *)

type stats = {
  states_explored : int;
      (** canonical states summed over the plan's jobs: a search shared
          by the jobs of one shape counts once per job, so with
          [elapsed_s] it reads higher than the states actually searched
          per second *)
  frontier_peak : int;  (** largest BFS frontier observed *)
  scenarios : int;
      (** the plan's jobs (deviation × seat class, plus all-faithful),
          not the distinct searches run for them *)
  truncated : bool;
  elapsed_s : float;
      (** wall-clock exploration time (monotonic clock) — with
          [states_explored] this is the states/sec figure the scale
          work tracks *)
  por : bool;
      (** partial-order reduction was requested {e and} its in-phase
          acyclicity guard held, so the reduced successor relation was
          actually used *)
  domains : int;
      (** fan-out width actually used: at most the number of distinct
          job shapes *)
}

type outcome = {
  verdicts : (Dev.t * verdict) list;
      (** one verdict per non-[Faithful] label of the adversary
          vocabulary; [Collude_with] aggregates over every directed
          (principal, colluding-checker) neighbor pair and is [Detected]
          only if all pairs are *)
  findings : Check.finding list;
  covered_states : string list;
      (** IR states some node occupied in some explored scenario — the
          complement drives [unexplored-state] *)
  stats : stats;
}

type search = {
  results : Scenario.result list;  (** one per plan job, in plan order *)
  covered : bool array;
      (** per chain state: some seat occupied it in some search *)
  frontier_peak : int;  (** largest BFS frontier of any search *)
  domains : int;  (** fan-out width actually used *)
}

val search :
  ?bound:int ->
  ?obs:Damd_obs.Obs.t ->
  ?por:bool ->
  ?domains:int ->
  ?audit:bool ->
  ?run:string ->
  Machine.t ->
  Scenario.plan ->
  seats:int ->
  search
(** The product search of a plan with [seats] seats: one BFS per
    [Scenario.shape], its result handed to every job of that shape.
    [bound], [obs], [por], [domains] and [audit] are as for [run] below;
    the optional [run] (default ["run"]) names the all-faithful search in
    its [false-accusation] message. [run] searches with the graph's [n]
    seats; [Absint] searches with two (the deviant and one faithful
    representative), POR off, on one domain. When the machine has no
    initial state or more than [Statepack.max_phases] phases nothing is
    searched: every job's result is truncated at 0 states and no state
    is covered. *)

val run :
  ?bound:int ->
  ?adversary:Dev.t list ->
  ?obs:Damd_obs.Obs.t ->
  ?por:bool ->
  ?domains:int ->
  ?audit:bool ->
  graph:Damd_graph.Graph.t ->
  Ir.t ->
  outcome
(** [bound] (default 50_000) caps canonical states *per scenario*;
    [adversary] (default [Dev.all]) is the label vocabulary to sweep, as
    with [Check.check_ir]. Never raises on malformed IRs: undefined
    transitions self-loop, an undeclared initial state skips exploration
    with an [exploration-truncated] warning, and every loop is bounded by
    dedup plus [bound]. An IR with more than [Statepack.max_phases] (62)
    phases is not explored either: every label that needs a search is
    [Truncated], under one [exploration-truncated] warning naming the
    limit.

    [por] (default true) enables the invisible-step partial-order
    reduction; it self-disables (see [Por]) when the in-phase
    suggested-play graph is cyclic. [domains] (default 0 = auto) is the
    fan-out width over the distinct job shapes; 1 forces sequential,
    and an enabled [obs] also forces sequential because tracing sinks
    are not thread-safe. The merge is deterministic in job order either
    way. [audit] (default false) checks every rewritten successor key
    against a fresh packing of the successor and against a structural
    map of the stored states, and raises [Statepack.Collision] on
    either mismatch.

    [obs] (default noop): each search runs under a span labelled with
    the first job of its shape (deviation and honesty class), the
    frontier size is sampled as a counter track, state depths feed an
    ["explore.depth"] metrics histogram (once per search, not per job),
    and an ["explore.done"] instant reports states/sec. *)
