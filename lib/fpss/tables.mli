(** Routing and pricing tables — the [DATA2]/[DATA3] state of FPSS.

    Both pricing schemes ([Pricing] = VCG, [Naive] = declared-cost) produce
    this structure; the execution-phase accounting ([transit_load],
    [payments] and the [income], [outlay] and [transfers] read off it) is
    scheme-independent. Tables are indexed [src].(dst). *)

type t = {
  routing : Damd_graph.Dijkstra.entry option array array;
      (** [routing.(src).(dst)]: LCP from [src] to [dst] ([Some {path=[src]}]
          with zero cost on the diagonal). *)
  prices : (int * float) list array array;
      (** [prices.(src).(dst)]: per-packet payment owed by [src] to each
          transit node of that LCP, sorted by node id. *)
}

val path : t -> src:int -> dst:int -> int list option

val lcp_cost : t -> src:int -> dst:int -> float option

val price : t -> src:int -> dst:int -> transit:int -> float option

val packet_payments : t -> src:int -> dst:int -> (int * float) list

val transit_load : t -> Traffic.t -> int -> float
(** Total packets node [k] transits under the given traffic matrix. *)

val payments : (int * float) list array -> float array -> (int * float) list
(** [payments prices rates] is one source's [DATA4]: given its price rows
    ([prices.(dst)], per-packet payment to each transit) and its traffic
    row ([rates.(dst)]), what it owes each transit, summed over the
    destinations with a positive rate and sorted by transit id. The one
    definition of the sum: the centralized transfers below, a faithful
    node's payment report and the bank's verified clearing all read it. *)

val income : t -> Traffic.t -> int -> float
(** Total payments node [k] receives for transiting: its entries in every
    source's [payments]. *)

val outlay : t -> Traffic.t -> int -> float
(** Total payments node [k] owes for its own originated traffic: the sum
    of its [payments]. *)

val transfers : t -> Traffic.t -> float array
(** Per-node [income - outlay]; the execution-phase money flow. *)

val routing_equal : t -> t -> bool
val prices_equal : ?tolerance:float -> t -> t -> bool
