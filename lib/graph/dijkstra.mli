(** Lowest-cost paths under the FPSS cost model.

    The cost of a path is the sum of the *transit* costs of its interior
    nodes; endpoints are free. Ties are broken by a canonical total order —
    (cost, hop count, lexicographic node sequence) — chosen because it is
    preserved under path extension, so the distributed path-vector
    computation ([Damd_fpss.Sparse], and [Damd_fpss.Distributed] over it)
    converges to byte-identical tables.
    All searches are rooted at the destination, matching the direction BGP
    announcements travel. *)

type entry = {
  cost : float;  (** summed transit costs of interior nodes *)
  path : int list;  (** node sequence from the indexed source to [dst], inclusive *)
}

val compare_entry : entry -> entry -> int
(** The canonical order: cost, then hop count, then lexicographic path. *)

val to_dest : ?avoid:int -> Graph.t -> dst:int -> entry option array
(** [to_dest g ~dst] computes, for every node [v], the lowest-cost path from
    [v] to [dst] ([None] if unreachable). With [?avoid:k], node [k] is
    removed from the graph entirely (its slot is [None]). *)

val lcp : Graph.t -> src:int -> dst:int -> entry option
(** Single-pair lowest-cost path. *)

val dist : Graph.t -> src:int -> dst:int -> float option
(** Cost of the LCP. *)

val dist_avoiding : Graph.t -> avoid:int -> src:int -> dst:int -> float option
(** Cost of the lowest-cost [src]–[dst] path that does not use node
    [avoid]. [None] when no such path exists (never on a biconnected
    graph). *)

val transit_nodes : int list -> int list
(** Interior nodes of a path (excludes both endpoints). *)

val all_to_dest : Graph.t -> entry option array array
(** [all_to_dest g] is indexed [dst].(src): the full routing state of the
    network. *)

val lcp_tree_edges : Graph.t -> root:int -> (int * int) list
(** Edges of the union of LCPs from every node to [root] — the bold tree of
    the paper's Figure 1. *)
