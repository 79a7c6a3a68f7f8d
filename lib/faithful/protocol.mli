(** Wire format and table computations of the extended-FPSS protocol (§4 of
    the paper).

    Both the principal's own computation ([PRINC1]/[PRINC2]) and the
    checkers' mirror computation ([CHECK1]/[CHECK2]) must be *the same
    function of the same inputs* — that is what makes the bank's hash
    comparison sound. This module holds that shared function: given the
    latest update received from each neighbor, deterministically recompute
    the node's routing table ([DATA2]) and extended pricing table
    ([DATA3*], with identity tags), plus the canonical serializations the
    bank hashes.

    The recurrences are the distributed-FPSS ones that [Damd_fpss.Sparse]
    runs as flat fixpoints (DESIGN.md §5); a test-side synchronous sweep
    over these two handlers is held to the same full-sweep reference as
    [Sparse]. Identity tags record which neighbor(s) achieved the
    minimum — the "source of change" of §4.3, whose inconsistency exposes
    spoofed pricing updates. *)

type entry = Damd_graph.Dijkstra.entry

type price_entry = {
  transit : int;
  price : float;
  tags : int list;  (** sorted minimizing-neighbor ids — DATA3*'s identity tag *)
}

type routing_table = entry option array
(** Indexed by destination. *)

type pricing_table = price_entry list array
(** Indexed by destination; entries sorted by transit id. *)

(** A table announcement, as placed on the wire. [origin] is the claimed
    author — trusted only until the checkpoint. *)
type update =
  | Cost_announce of { origin : int; cost : float }
  | Routing_update of { origin : int; table : routing_table }
  | Pricing_update of { origin : int; table : pricing_table }

(** Network messages. [Copy] is the [PRINC1]/[PRINC2] message-passing
    obligation: the principal relays every update it receives to its
    checkers, labelled with the neighbor it (claims it) came from. *)
type msg =
  | Update of update
  | Copy of { principal : int; via : int; inner : update }
  | Packet of { src : int; dst : int; rate : float; trace : int list }

val msg_size : msg -> int
(** Approximate wire size in bytes, for the overhead experiments. *)

val sizer : unit -> msg -> int
(** [sizer ()] is a fresh [msg_size] that remembers, for routing and for
    pricing tables, the last table it sized, by physical identity, with its
    size: a run of sends of one table (an announcement to every neighbour,
    a relayed copy to every checker) walks the table once. Equal to
    [msg_size] on every message as long as no table is mutated after it
    was sized; the protocol never mutates a table once it is on the wire
    ([Node] recomputes into copies). Each engine takes its own
    ([Runner.run]); the memo is local to the closure. *)

val empty_routing : n:int -> self:int -> routing_table
(** Only the trivial self entry. *)

val empty_pricing : n:int -> pricing_table

val price_pairs : price_entry list -> (int * float) list
(** A pricing row as [(transit, price)] pairs, tags dropped: the row of
    [Damd_fpss.Tables.prices] it certifies. *)

val routing_row :
  self:int ->
  costs:float array ->
  neighbor_tables:(int * routing_table) list ->
  int ->
  entry option
(** [routing_row ~self ~costs ~neighbor_tables dst]: row [dst] of
    [recompute_routing] — the cheapest loop-free neighbor entry for [dst]
    extended by one hop ([Dijkstra.compare_entry] breaks ties), or the
    self entry at [dst = self]. It reads only row [dst] of each neighbor
    table, plus [costs]; that is what lets a node recompute just the rows
    a neighbor's new table changed ([Node.stage]'s [refresh]). *)

val recompute_routing :
  self:int ->
  n:int ->
  costs:float array ->
  neighbor_tables:(int * routing_table) list ->
  routing_table
(** The [PRINC1] computation: canonical-order path-vector relaxation over
    the latest neighbor tables (loop-avoiding), [routing_row] at every
    destination. Deterministic. *)

val pricing_row :
  self:int ->
  costs:float array ->
  own_routing:routing_table ->
  neighbor_routing:(int * routing_table) list ->
  neighbor_pricing:(int * pricing_table) list ->
  int ->
  price_entry list
(** [pricing_row ... dst]: row [dst] of [recompute_pricing] — one entry
    per transit node of [own_routing]'s path to [dst], with its identity
    tags. It reads only row [dst] of [own_routing] and of each neighbor's
    routing and pricing table, plus [costs], and which neighbors have
    announced pricing at all. *)

val recompute_pricing :
  self:int ->
  costs:float array ->
  own_routing:routing_table ->
  neighbor_routing:(int * routing_table) list ->
  neighbor_pricing:(int * pricing_table) list ->
  pricing_table
(** The [PRINC2] computation, including identity tags: [pricing_row] at
    every destination of [own_routing]. *)

val routing_digest : routing_table -> string
(** Hex SHA-256 of the canonical serialization — what [BANK1] compares.
    The digests' serializations write integers as [string_of_int] and
    floats as [Printf]'s [%h] would, straight into one buffer: the sign,
    [0x1.]/[0x0.] and the fraction's nibbles with trailing zeros trimmed,
    [p] and an always-signed exponent ([p-1022] for subnormals), or
    [infinity]/[nan]. The [Printf] serializations they replaced are the
    test oracle [test/serialize_reference.ml]. *)

val pricing_digest : pricing_table -> string
(** Hex SHA-256 including tags — what [BANK2] compares. *)

val costs_digest : float array -> string
(** Hex SHA-256 of a DATA1 transit-cost list (phase-1 certification). *)

val routing_inputs_digest : (int * routing_table) list -> string
(** Hex SHA-256 over a (sender, table) input set, sorted by sender —
    the principal's consumed neighbor announcements, or a checker
    mirror's consumed copies. The fault-tolerant bank compares the two
    sides to split mirror mismatches into contradictions (same inputs,
    different output) and omissions (a copy was lost in flight). *)

val pricing_inputs_digest : (int * pricing_table) list -> string

val routing_equal : routing_table -> routing_table -> bool
(** [routing_equal a b] holds exactly when [routing_digest] hashes the
    same bytes for both: the same length, and row by row both empty or
    both holding equal paths (element by element) and costs that [%h]
    prints alike — equal bits, or both NaN with the same sign. So [0.]
    and [-0.] differ. Compares structurally, without serializing; the
    node's announce-on-change test, and how the bank's checkpoint memo
    finds a table it already hashed ([Bank.checkpoint]). *)

val pricing_equal : pricing_table -> pricing_table -> bool
(** As [routing_equal], for [pricing_digest]: row by row the same entries
    in order, with equal transits and tags and [%h]-alike prices. *)

val routing_row_equal : entry option -> entry option -> bool
(** [routing_equal] on one row. *)

val pricing_row_equal : price_entry list -> price_entry list -> bool
(** [pricing_equal] on one row. *)
