(** The distributed FPSS computation — a BGP-style path-vector fixpoint.

    FPSS distribute the VCG computation over the nodes themselves:
    iterative exchanges with neighbors build [DATA1] (transit costs, a
    flood), then [DATA2] (routing tables, path-vector Bellman–Ford) and
    [DATA3] (pricing tables). This module is the *obedient* computation
    over all destinations, run in deterministic synchronous rounds: the
    flood below, then [Sparse]'s change-driven fixpoints with every node
    as a destination, converged by [Sparse.rerun] on a fresh state. The
    faithful extension ([Damd_faithful]) runs the same update rules as
    per-node message handlers on the simulator, with checkers mirroring
    them.

    The pricing recurrence (derived in DESIGN.md §5): for transit node [k]
    on [i]'s LCP to [j],

    - [d(-k)(i,j) = min over neighbors a <> k of step(a) + d(-k)(a,j)],
      where [step a] is [0] if [a = j] else [a]'s transit cost, and
      [d(-k)(a,j)] is read off [a]'s routing table when [k] is not on
      [a]'s LCP, or recovered from [a]'s price entry
      [p k a j - c_k + d(a,j)] when it is;
    - [p k i j = c_k + d(-k)(i,j) - d(i,j)].

    Initialized at +infinity, the iteration converges from above to the
    avoid-[k] shortest distances. Convergence to the *centralized* tables
    is exact on integer-valued costs and within floating-point tolerance
    otherwise (the recurrence re-associates sums); the property tests in
    [test/test_fpss.ml] check both, and hold the tables, rounds and
    messages to a full-sweep reference oracle kept in [test/]. *)

type result = {
  tables : Tables.t;  (** converged routing + pricing tables *)
  rounds_flood : int;  (** rounds for the DATA1 transit-cost flood *)
  rounds_routing : int;  (** rounds for DATA2 to reach fixpoint *)
  rounds_pricing : int;  (** rounds for DATA3 to reach fixpoint *)
  messages : int;  (** change-driven table/flood messages sent in total *)
}

val run : Damd_graph.Graph.t -> result
(** Execute all three construction stages from a cold start. Raises
    [Failure] if a fixpoint fails to converge within 10n+20 rounds —
    which cannot happen on a connected graph. Warm restarts after a cost
    change are [Sparse.update_cost] + [Sparse.rerun]. *)

val flood_costs : Damd_graph.Graph.t -> int * int
(** Just the DATA1 flood: (rounds, messages). Every node learns every
    declared transit cost; rounds equal the graph's hop diameter. *)
