(** Batch auditing of the protocol against the adversary library.

    The experiment harness, the examples and downstream users all ask the
    same two questions — "is every deviation caught?" and "does any
    deviation profit?" — so the sweeps live here, once, tested.

    Outcome classification: a deviation is [Caught] when the bank raised a
    (non-advisory) detection; [No_effect] when the run certified *and*
    produced exactly the faithful run's tables (the deviation changed
    nothing observable — e.g. a corrupted flood fact that lost every
    first-arrival race — so there is nothing to catch); [Escaped] when it
    certified with *different* tables (a genuine detection failure; never
    expected outside the collusion boundary). *)

type outcome =
  | Caught of string list  (** sorted distinct rules that fired *)
  | No_effect
  | Escaped

val outcome_to_string : outcome -> string

type audit = {
  node : int;
  deviation : Adversary.t;
  outcome : outcome;
  gain : float;  (** deviant's utility minus its faithful utility *)
  completed : bool;
}

val one :
  ?params:Runner.params ->
  graph:Damd_graph.Graph.t ->
  traffic:Damd_fpss.Traffic.t ->
  node:int ->
  deviation:Adversary.t ->
  unit ->
  audit
(** Audit a single (node, deviation) pair against the faithful run. *)

type matrix_row = {
  name : string;
  runs : int;
  caught : int;
  no_effect : int;
  escaped : int;
  rules : string list;
  max_gain : float;
}

val detection_matrix :
  ?params:Runner.params ->
  ?deviations:Adversary.t list ->
  targets:(Damd_graph.Graph.t * Damd_fpss.Traffic.t * int list) list ->
  unit ->
  matrix_row list
(** The E4 sweep: every detectable deviation (default:
    [Adversary.library]) against every (graph, traffic, deviant-placement)
    target. *)

val clean : matrix_row list -> bool
(** No row escaped. *)

val max_gain :
  ?params:Runner.params ->
  graph:Damd_graph.Graph.t ->
  traffic:Damd_fpss.Traffic.t ->
  unit ->
  float * string
(** Largest deviation gain over all nodes and every [Adversary.library]
    deviation, with the name of the deviation achieving it — faithfulness
    demands it be non-positive. *)
