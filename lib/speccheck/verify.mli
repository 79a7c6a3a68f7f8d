(** The flow-verifier driver: static lint + taint-inferred dependency
    comparison + bounded product-machine exploration, one report.

    This is what [damd_cli verify] wraps. Where [Lint] trusts the IR's
    annotations, [Verify] checks them against behavior twice over:

    - the *flow* layer replays the real protocol handlers under input
      perturbation ([Damd_faithful.Flow] produces the observations, the
      CLI passes them in) and diffs the inferred dependency sets against
      [Ir.action.inputs] ([Taint.check]);
    - the *exploration* layer walks the bounded deviation product space
      ([Explore.run]) and checks detection-completeness and
      no-false-accusation per phase.

    The report aggregates all three finding streams under the [Lint]
    exit-code contract (any error-severity finding fails the gate), plus
    the exploration verdict per deviation label — the [damd-verify/1]
    schema, DESIGN.md §12. *)

type report = {
  spec : string;  (** [Ir.t.name] of the verified spec *)
  topology : string;  (** human-readable description of the graph *)
  mutation : string option;  (** the seeded mutation applied, if any *)
  flow : (string * Ir.input list * Ir.input list) list;
      (** per observed action: (id, declared inputs, observed deps), both
          sides deduplicated and sorted for stable rendering *)
  verdicts : (Dev.t * Scenario.verdict) list;
  stats : Explore.stats;
  findings : Check.finding list;
      (** static ([Check]) @ flow ([Taint.check]) @ exploration
          ([Explore.run]) findings, in that order *)
}

val run :
  ?adversary:Dev.t list ->
  ?mutation:string ->
  ?bound:int ->
  ?obs:Damd_obs.Obs.t ->
  ?por:bool ->
  ?domains:int ->
  ?audit:bool ->
  observed:Taint.observation list ->
  graph:Damd_graph.Graph.t ->
  topology:string ->
  Ir.t ->
  report
(** Applies [mutation] through [Mutate.apply_opt], which raises
    [Invalid_argument] on an unknown mutation name. [bound] is
    [Explore.run]'s per-scenario state cap; [obs] is threaded to
    [Explore.run] (scenario spans, frontier track, depth histogram — what
    [damd_cli verify --trace-out] exports); [por], [domains], and [audit]
    are [Explore.run]'s reduction, fan-out, and key-audit switches. *)

val detection_complete : report -> bool
(** No [Undetected] and no [Truncated] verdict: every non-exempt deviation
    of the adversary vocabulary is provably flagged at (or before, via the
    progress timeout) its phase checkpoint. *)

val no_false_accusation : report -> bool
(** The all-faithful product run produced no [false-accusation] finding. *)

val error_count : report -> int

val exit_code : report -> int
(** 0 when [error_count] is 0, else 1. *)

val to_json : report -> Damd_util.Json.t
(** The [damd-verify/1] document: provenance, exploration stats (states
    explored, frontier peak, scenarios, truncation, states/sec, POR and
    fan-out width actually used), the two property bits, the per-action
    flow table, one record per verdict (label, kind — detected,
    undetected, exempt or truncated — and the detection depth and
    certifier, the witness or the reason; not the certifying phase),
    and one record per finding —
    DESIGN.md §12. *)
