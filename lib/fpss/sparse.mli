(** Flat-array, destination-restricted FPSS state — the one engine for
    the DATA2/DATA3 fixpoints, from the n=10k scale path down to
    [Distributed.run], which is this module over every destination.

    Dense tables ([Array.init n (fun _ -> Array.make n ...)]) hold O(n^2)
    cells per table, ~100M at n=10k, with a boxed entry record and a full
    path list per cell. This module runs the change-driven Jacobi
    computation on a flat representation instead:

    - routing state is three unboxed scalars per (node, destination) —
      announced cost, hop count and next hop — in [n*k] arrays indexed
      [i*k + s]; paths are implicit in next-hop chains and reconstructed
      on demand;
    - the destination set may be restricted to [k <= n] nodes, so memory
      and work scale with [E + n*k] instead of [n^2];
    - tie-breaking is provably the canonical (cost, hops, lex path) order
      of [Dijkstra]: for candidates [i :: p] vs [i :: p'] learned from
      distinct neighbors it reduces to (cost, hops, neighbor id), which
      is what the flat state stores.

    With the full destination set the converged tables, rounds and
    messages equal those of the full-sweep reference fixpoints kept in
    the test suite (see [to_tables] and the equivalence tests).

    [run]'s offsets run the fixpoints over *announced* rows — node [i]'s
    stored entry is its honest recomputation plus [offsets.(i)] —
    which is how [Damd_faithful.Scale] models rational distortion and
    checks it with honest mirrors ([routing_deviation],
    [pricing_deviation]) without any per-node closures. *)

type t

val create : ?dests:int array -> Damd_graph.Graph.t -> t
(** Fresh state over [dests] (default: all nodes). Destinations must be
    distinct and in range; they are sorted internally. *)

val graph : t -> Damd_graph.Graph.t

val dests : t -> int array
(** The destination set, sorted ascending. *)

val run : ?routing_offsets:float array -> ?pricing_offsets:float array -> t -> unit
(** Flood the destination facts, then run the routing and pricing
    fixpoints to convergence (at most 10n+20 rounds per stage; raises
    [Failure] beyond it). Offsets, when given, are per-node announcement
    distortions applied inside the fixpoints; they must keep effective
    costs non-negative. *)

val routing_fixpoint : t -> unit
val pricing_fixpoint : t -> unit
(** One stage of [run], honest rows, same round budget. *)

val update_cost : t -> int -> float -> unit
(** Change one node's transit cost in place (the announced state is
    untouched — call [rerun] to reconverge). Raises [Invalid_argument]
    on a bad node id or a negative/non-finite cost. *)

val rerun : t -> unit
(** Warm restart after [update_cost]: reconverge the routing and pricing
    fixpoints from the current announced state without re-flooding.
    Reaches state byte-identical to a cold [run] on the updated graph
    (the fixpoint is unique independent of the starting point; stale
    loop-carried candidates from a cost increase inflate by at least the
    minimum positive transit cost per round, so they die within the
    round budget — all transit costs must be strictly positive for
    this). Rounds and messages can differ from a warm start with a
    path-vector loop check, where stale loops are cut instead of
    inflated; the tables cannot. *)

val flood : t -> unit
(** Accounting for the DATA1 stage restricted to [k] destination facts:
    [k * 2E] messages, rounds = max destination hop-eccentricity. *)

(** {2 Announced state} *)

val dist : t -> int -> dest:int -> float
(** Announced route cost from a node to [dest]; [infinity] if none.
    Raises [Invalid_argument] when [dest] is not in the destination set
    (likewise for the accessors below). *)

val hop_count : t -> int -> dest:int -> int
(** Announced path length in nodes (1 at the destination itself, 0 when
    unreachable). *)

val next_hop : t -> int -> dest:int -> int option

val path : t -> int -> dest:int -> int list option
(** Path reconstructed by walking next-hop chains; at a routing fixpoint
    this is the canonical lex-optimal path of [Dijkstra]. *)

val prices : t -> int -> dest:int -> (int * float) list
(** Announced VCG transit premia for the node's route to [dest], sorted
    by transit id — same contents as [Tables.packet_payments]. *)

(** {2 Mirror checkpoints} *)

val routing_deviation : t -> int -> float
(** Largest absolute gap between node [i]'s announced routing row and an
    honest recomputation from its neighbors' announced rows — what a
    checker holding the same announcements computes. 0 for honest nodes,
    [|delta|] under a cost distortion of [delta], [infinity] for
    structural lies (wrong hop count / next hop). *)

val pricing_deviation : t -> int -> float
(** Same checkpoint for the pricing rows. *)

(** {2 Accounting and oracle bridge} *)

val messages : t -> int
val rounds_flood : t -> int
val rounds_routing : t -> int
val rounds_pricing : t -> int

val recomputes : t -> int
(** Total [recompute] evaluations across all fixpoint rounds since
    creation — the work metric the dirty-set propagation minimizes
    (a dense Jacobi sweep would be [n*k] per round). *)

val set_obs : t -> Damd_obs.Obs.t -> unit
(** Install a trace sink: each fixpoint stage runs under a span and
    emits per-round [sparse.<stage>.dirty_nodes] /
    [sparse.<stage>.dirty_pairs] counter samples plus a completion
    instant with rounds and recompute counts. Default: noop. *)

val to_tables : t -> Tables.t
(** Dense n x n tables: what [Distributed.run] returns and what the
    oracle tests compare. Requires the full destination set; O(n^2)
    memory, so not for the scale path. *)

val state_words : t -> int
(** Approximate live footprint of the flat state, in words — the scaling
    bench's memory metric. *)
