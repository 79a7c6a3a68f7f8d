(** Undirected graphs with per-node transit costs — the FPSS network model.

    Nodes are autonomous systems identified by dense integers [0..n-1].
    Each node has a *transit cost*: the per-packet cost it incurs when
    carrying traffic that neither originates nor terminates at it. The cost
    of a path is the sum of the transit costs of its interior nodes; the
    endpoints transit free (FPSS §1, reproduced as Figure 1 of the
    Shneidman–Parkes paper). *)

type t

val create : n:int -> costs:float array -> edges:(int * int) list -> t
(** Build a graph. Raises [Invalid_argument] if [costs] has length other
    than [n], any cost is negative or non-finite, an edge endpoint is out of
    range, or an edge is a self-loop. Duplicate edges are collapsed. *)

val n : t -> int
(** Number of nodes. *)

val cost : t -> int -> float
(** Declared transit cost of a node. *)

val costs : t -> float array
(** Copy of the cost vector. *)

val with_cost : t -> int -> float -> t
(** [with_cost g i c] is [g] with node [i]'s transit cost replaced by [c]
    (shares structure; cost vector copied). Used for misreport experiments
    and for VCG's remove-a-node counterfactuals. *)

val with_costs : t -> float array -> t
(** Replace the whole cost vector. *)

val neighbors : t -> int -> int list
(** Sorted adjacency list. *)

val neighbors_arr : t -> int -> int array
(** The same adjacency as a sorted array — the allocation-free fast path
    used by Dijkstra and the FPSS fixpoints. The array is owned by the
    graph: callers must not mutate it. *)

val degree : t -> int -> int

val has_edge : t -> int -> int -> bool

val edges : t -> (int * int) list
(** Each undirected edge once, as [(u, v)] with [u < v], sorted. *)

val num_edges : t -> int

val is_connected : t -> bool

val fold_nodes : (int -> 'a -> 'a) -> t -> 'a -> 'a

val hop_distances : t -> int -> int array
(** BFS (hop) distance from a node to every node, [-1] where unreachable:
    the one BFS behind [hop_eccentricity], [hop_diameter] and
    [Metrics.compute]. *)

val hop_eccentricity : t -> int -> int
(** Longest hop distance from a node to any reachable node. *)

val hop_diameter : t -> int
(** Maximum hop eccentricity over all nodes; 0 for the empty graph. The
    FPSS convergence bound is stated in terms of hop distances, so the
    convergence experiment (E5) reports rounds against this. *)

val to_dot : ?highlight:(int * int) list -> t -> string
(** Graphviz rendering; [highlight] edges are drawn bold (used to reproduce
    Figure 1's bold LCP tree). *)
