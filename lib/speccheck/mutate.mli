(** Seeded spec mutations — proof that every static check has teeth.

    Each mutation breaks the stock extended-FPSS spec (or the lint
    topology) in exactly one way and carries the id of the finding the
    checker must then produce: the runtest gate asserts that linting the
    mutated spec yields exactly that one error-severity finding and exit
    code 1. This is the static analogue of the gauntlet's [--weaken]
    switches — a detector you can't demonstrate firing is no detector. *)

val all : (string * string) list
(** [(mutation name, expected error finding id)] for every seeded
    mutation. *)

val expected : string -> string option
(** The finding id a mutation must trigger, if the mutation exists. *)

val all_verify : (string * string) list
(** [(mutation name, expected verify finding id)] — the flow/exploration
    finding ([Taint.check] or [Explore.run]) that [Verify.run] must
    produce *in addition to* the static finding in [all]. Same key set as
    [all]: every mutation must demonstrably fire in both the static and
    the behavioral layer. *)

val expected_verify : string -> string option
(** The verify-layer finding id for a mutation, if the mutation exists. *)

val all_analyze : (string * string) list
(** [(mutation name, expected analyze finding id)] — the flow-sensitive or
    frontier finding [Analyze.run] must produce. A *superset* of [all]'s
    key set: the last entries are mutations invisible to the syntactic
    checks (lint exits 0) that only the abstract interpreter catches —
    private taint laundered through an intermediate computation
    ([launder-private-taint]), a leak through the digest channel
    ([private-digest-channel]), and a certifier stripped of every covered
    evidence source ([starve-checkpoint-evidence]). *)

val expected_analyze : string -> string option
(** The analyze-layer finding id for a mutation, if the mutation exists. *)

val names : string list
(** Every mutation name, in [all_analyze] order — the full corpus the
    three subcommands accept. *)

val known : string -> bool
(** Whether [apply] recognizes the name. *)

val apply :
  string -> Ir.t * Damd_graph.Graph.t -> (Ir.t * Damd_graph.Graph.t) option
(** Apply a named mutation to a (spec, lint topology) pair. [None] for an
    unknown name. The mutations address stock-spec action ids and phase
    names; applying them to a foreign IR yields the IR unchanged (and a
    lint run that stays clean — the runtest gate would catch that). *)

val apply_opt :
  string option -> Ir.t * Damd_graph.Graph.t -> Ir.t * Damd_graph.Graph.t
(** The [?mutation] switch of [Lint.run], [Verify.run] and [Analyze.run]:
    [None] returns the pair unchanged, [Some name] applies that mutation.
    Raises [Invalid_argument "unknown mutation NAME (expected one of
    ...)"], listing [names], on an unknown name. *)
