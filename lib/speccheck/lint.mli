(** The lint driver: run every static check and emit a [damd-lint/1]
    report.

    This is what [damd_cli lint] wraps: IR-level rules ([Check.check_ir],
    with the real adversary-library labels for cross-consistency), the
    topology rule ([Check.check_topology]), and optionally a seeded
    mutation first ([Mutate]). Exit-code contract: any error-severity
    finding fails the gate. *)

type report = {
  spec : string;  (** [Ir.t.name] of the linted spec *)
  topology : string;  (** human-readable description of the lint graph *)
  mutation : string option;  (** the seeded mutation applied, if any *)
  findings : Check.finding list;
}

val run :
  ?adversary:Dev.t list ->
  ?mutation:string ->
  graph:Damd_graph.Graph.t ->
  topology:string ->
  Ir.t ->
  report
(** Applies [mutation] through [Mutate.apply_opt], which raises
    [Invalid_argument] on an unknown mutation name. *)

val error_count : report -> int

val exit_code : report -> int
(** 0 when [error_count] is 0, else 1. *)

val to_json : report -> Damd_util.Json.t
(** The [damd-lint/1] document: schema tag, spec/topology/mutation
    provenance, and one record per finding (id, severity, location,
    explanation) — see DESIGN.md §11. *)
