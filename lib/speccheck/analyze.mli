(** The static-analysis driver: [Absint]'s flow summaries and detection
    frontier, optionally cross-checked against [Explore], under the
    [Lint]/[Verify] exit-code contract.

    This is what [damd_cli analyze] wraps. Where [Lint] reads annotations
    and [Verify] measures behavior, [Analyze] *derives* the faithfulness
    argument from the IR's information-flow structure alone — and, with
    [differential] on, holds the derivation accountable to the measured
    product space ([static-frontier-gap] on any disagreement). The
    [damd-analyze/1] schema, DESIGN.md §17. *)

type report = {
  spec : string;  (** [Ir.t.name] of the analyzed spec *)
  topology : string;  (** human-readable description of the graph *)
  mutation : string option;  (** the seeded mutation applied, if any *)
  result : Absint.t;
  explore : Explore.outcome option;
      (** the dynamic outcome, when [differential] ran *)
  findings : Check.finding list;
      (** [Absint.run] findings @ differential findings, in that order *)
}

val run :
  ?adversary:Dev.t list ->
  ?mutation:string ->
  ?bound:int ->
  ?differential:bool ->
  ?explore_bound:int ->
  ?obs:Damd_obs.Obs.t ->
  graph:Damd_graph.Graph.t ->
  topology:string ->
  Ir.t ->
  report
(** Applies [mutation] through [Mutate.apply_opt], which raises
    [Invalid_argument] on an unknown mutation name. [bound] is
    [Absint.run]'s abstract-state cap; [differential] (default false — the
    static pass alone is the bench-measured fast path) also runs
    [Explore.run] (capped by [explore_bound]) and appends the cross-check
    findings. [obs] is threaded to both engines. *)

val blind_spots : report -> int
(** Number of frontier entries with an [Undetected] verdict: the blind
    spots. *)

val frontier_sound : report -> bool option
(** [None] when the differential did not run; otherwise whether no
    [static-frontier-gap] finding was produced. *)

val error_count : report -> int

val exit_code : report -> int
(** 0 when [error_count] is 0, else 1. *)

val to_json : report -> Damd_util.Json.t
(** The [damd-analyze/1] document: the shared provenance head, abstract
    stats, the two property fields ([blind_spots], [frontier_sound]),
    the per-action flow table (taint + provenance path), one record per
    frontier entry (deviation, static verdict — certified with its depth,
    certifier and phase, blind, exempt or truncated — and the
    dependence-derived certifier/phase/distance), and the shared findings
    block. *)
