(** The static checker suite: Prop. 2's structural preconditions as
    executable rules over the spec IR.

    Every rule has a stable id (the [id] field below, documented in
    DESIGN.md §11) so reports, seeded mutations, and CI assertions can
    reference findings without string-matching prose. Severity [Error]
    means the property the faithfulness proof leans on is absent — the
    lint gate exits non-zero; [Warning] flags suspicious but non-fatal
    shape; [Info] is narrative.

    Rule inventory:
    - well-formedness: [duplicate-id], [undefined-ref]
    - state-space: [dead-state] (unreachable), [unused-action] (warning),
      [non-termination] (suggested play never halts)
    - classification: [unclassified-action] — §3.4 totality
    - phase discipline (§3.8–3.9): [phase-overlap], [phase-gap] (warning),
      [multi-phase-action] (warning — an action whose transitions span
      more than one phase, straddling a checkpoint),
      [missing-checkpoint] — every phase ends in a certified checkpoint
    - strong-CC candidacy (Def. 12): [cc-private-leak] — a
      message-passing action may depend only on received messages
    - strong-AC candidacy (Def. 13): [ac-unmirrored], [ac-undigested] —
      every computational action is mirrored by a checker rule and covered
      by a bank digest
    - deviation cross-consistency: [orphan-deviation] (an adversary
      constructor no catalogue action targets), [unmapped-deviation] (a
      targeted label with no adversary constructor)
    - topology: [checker-cut] — a principal without the 2-connected
      checker neighborhood [Adversary.detectable_in] assumes *)

type severity = Error | Warning | Info

type finding = {
  id : string;  (** stable rule id, e.g. ["missing-checkpoint"] *)
  severity : severity;
  location : string;  (** state / action / phase / node the rule fired on *)
  message : string;  (** one-sentence explanation *)
}

val severity_to_string : severity -> string

val error : string -> string -> string -> finding
(** [error id location message]: a finding at error severity; [warning]
    is the same at warning severity. *)

val warning : string -> string -> string -> finding

val check_ir : ?adversary:Dev.t list -> Ir.t -> finding list
(** All IR-level rules. [adversary] is the label set of the concrete
    adversary library (default [Dev.all]): the deviation cross-consistency
    rules compare the IR against it in both directions. *)

val check_topology : Damd_graph.Graph.t -> finding list
(** The [checker-cut] rule: every principal must keep at least one honest
    checker after removing any single node, i.e. the graph is biconnected
    (computed statically via [Damd_graph.Biconnect], no simulation). *)

val errors : finding list -> finding list
(** The error-severity subset — non-empty means the lint gate fails. *)

val dedup : finding list -> finding list
(** The first finding for each (id, location) pair, in list order: how
    [Explore], [Absint] and each [Scenario] search report a property
    that fails at many states once. *)
