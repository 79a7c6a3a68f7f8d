(** The whole-program abstract interpreter over the spec IR: flow-sensitive
    information-flow summaries plus the static detection frontier.

    The paper's faithfulness argument is static — which deviations {e must}
    be caught by which checkpoint certifier follows from the
    information-flow structure of the spec, not from any particular run.
    This module computes that argument directly from the IR, in two layers
    (DESIGN.md §17):

    {b 1. Taint fixpoint.} A worklist dataflow iteration over the
    transition table on the existing [Taint] lattice
    [Public ⊑ Received ⊑ Private], tracking two channels per state: the
    network {e pool} (everything any node may have emitted) and the
    protocol {e store} (everything written to local state). The transfer
    function joins each action's declared input channels; information
    revelation declassifies (its output is the signed announcement itself,
    neutralized by IC rather than by checkers). Each cell carries a
    provenance path, so findings print the laundering chain. This upgrades
    the syntactic Def. 12/13 rules to flow-sensitive ones:
    [cc-private-leak-flow] (a message-passing action whose output taint is
    [Private] along some reachable chain), [ac-unmirrored-flow] /
    [ac-undigested-flow] (a {e reachable} computation without mirror /
    digest). A second pass on the same fixpoint propagates per-action
    dependence masks, giving "certifier evidence transitively depends on an
    output the deviation perturbs" for frontier reporting.

    {b 2. Abstract frontier run.} [Explore.search] at two seats: the
    deviant plus {e one} faithful representative (faithful seats are
    symmetric, so one representative preserves barrier structure, escape
    possibility and stall wedges; detection depths only shrink with fewer
    seats, which is exactly the soundness direction: the static depth is
    a lower bound on the dynamic one). It is the search [Explore.run]
    makes of the same [Scenario] plan — exemptions, the orphan-label
    case, the coalition analysis, the per-job evidence bookkeeping and
    the fold of job results into verdicts — with the seat count as the
    only difference (and POR off, on one domain), so verdict {e kinds}
    agree and [differential] compares two seat counts of one search.

    Findings ([Check.finding] ids):
    - [cc-private-leak-flow], [ac-unmirrored-flow], [ac-undigested-flow]
      (errors) — the flow-sensitive Def. 12/13 upgrades;
    - [certifier-blind-spot] (error) — a non-exempt deviation no
      checkpoint ever surfaces, the static analogue of
      [undetected-deviation];
    - [checkpoint-starved] (error) — a phase whose certifier has no
      covered evidence source among its own actions: it green-lights on an
      empty ledger;
    - [certifier-unreachable] / [false-accusation] / [phase-reentry] /
      [unexplored-state] (errors) — the reachability/liveness facts the
      exploration also reports, derived here from the two-seat search;
    - [analysis-skipped] / [analysis-truncated] (warnings). *)

type summary = {
  sm_action : string;
  sm_out : Taint.label;
      (** join of the action's output taint over every reachable
          occurrence *)
  sm_path : string list;
      (** provenance chain (action ids, oldest first) of the dominating
          contribution — the witness the findings print *)
}

type frontier = {
  fr_dev : Dev.t;
  fr_verdict : Scenario.verdict;
      (** the verdict of the two-seat search: [Detected] is certified,
          at a depth no greater than the n-seat one; [Undetected] is a
          blind spot *)
  fr_certifier : string option;
      (** the earliest certifier whose evidence transitively depends on an
          output the deviation perturbs, per the dependence masks *)
  fr_phase : string option;  (** that certifier's phase *)
  fr_distance : int option;
      (** phase distance from the deviation's earliest targeted phase to
          the certifying phase (0 = caught in its own phase) *)
}

type t = {
  flows : summary list;  (** reachable actions, IR declaration order *)
  frontier : frontier list;  (** one entry per non-[Faithful] label *)
  findings : Check.finding list;
  states_explored : int;
      (** abstract states summed over the plan's jobs, as in
          [Explore.stats]: a search shared by the jobs of one shape
          counts once per job *)
  elapsed_s : float;
}

val run :
  ?bound:int ->
  ?adversary:Dev.t list ->
  ?obs:Damd_obs.Obs.t ->
  graph:Damd_graph.Graph.t ->
  Ir.t ->
  t
(** [bound] (default 200_000) caps abstract states per scenario — far
    beyond any catalogue-sized IR, a pure safety net. [adversary]
    (default [Dev.all]) as with [Explore.run]. Never raises on malformed
    IRs (same contracts as [Explore.run]: self-loops, missing initial
    skips with a warning, more than [Statepack.max_phases] phases cuts
    every search under one [analysis-truncated] warning, dedup bounds
    every loop). [obs]: the fixpoint runs under an ["absint.flow"] span,
    the two-seat search under one ["absint.frontier"] span holding
    [Explore]'s per-search spans, and an ["absint.done"] instant reports
    totals. *)

val differential : t -> Explore.outcome -> Check.finding list
(** Cross-check the static frontier against measured exploration:
    one [static-frontier-gap] error per label whose verdict kinds
    disagree, or whose static depth exceeds the dynamic detection depth
    (the abstraction must be a lower bound). Labels either side reports
    as truncated are skipped. Empty on the stock spec and on every
    seeded mutation — asserted by runtest and the QCheck differential. *)
