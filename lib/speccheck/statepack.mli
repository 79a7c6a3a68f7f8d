(** Packed canonical product states: the one key format of [Explore]'s
    state store.

    The BFS dedups millions of canonical states per scenario, so the key
    representation dominates its allocation and hash cost. A [codec] is
    sized once per (IR, topology) pair from the three dimensions that
    bound every field — [ns] chain states, [n] seats, [nphases] phases —
    and gives each field a fixed-width lane: [ns] count lanes wide enough
    for [0..n], one deviant lane ([dev + 1], so "no deviant" packs as 0),
    one phase-cursor lane, and two [nphases]-bit mask lanes. [make] owns
    the word and shift of every lane: lanes fill 63-bit words in that
    order, and a lane that would cross bit 63 opens the next word, so no
    lane straddles two words. A key is [words] ints. When the lanes total
    ≤ 63 bits that is one word (the stock spec on fig1 needs 51 bits, the
    3x3 and 3x4 tori exactly 63); the 4x4..8x8 tori take two.

    A successor's key is its parent's words with one or two lanes
    rewritten in place: [move] for a faithful seat, [step_dev] for the
    deviant, [set_phase] for a checkpoint. [pack_int] and [pack_string]
    are views of the same words. Packing is injective by construction;
    [structural] remains as the verbose oracle for the opt-in collision
    audit and the QCheck differentials. *)

type state = {
  dev : int;  (** deviant's chain position; -1 = no deviant seated *)
  cnt : int array;  (** faithful seats per chain state, length [ns] *)
  ph : int;  (** phase cursor; [nphases] = every phase certified *)
  acted : int;  (** per-phase "the deviation executed" bitmask *)
  evid : int;  (** per-phase "checkpoint evidence deposited" bitmask *)
}

type codec

val max_phases : int
(** 62: the most phases a key holds. Each acted/evid lane is [nphases]
    bits of one word, and every phase bit stays a positive int. *)

val make : ns:int -> n:int -> nphases:int -> codec
(** Lays out the lanes for states with [ns]-length [cnt] vectors, counts
    in [0..n], and phase cursor in [0..nphases]. Raises
    [Invalid_argument] when [nphases > max_phases]. *)

val words : codec -> int
(** Ints per key. *)

val fits_int : codec -> bool
(** Whether the key is one word (the lanes total ≤ 63 bits — packing
    exactly 63 spills into the sign bit, harmless for a key). *)

(** {1 Keys in an int array}

    A key lives at [key.(off)] .. [key.(off + words c - 1)]. *)

val pack : codec -> state -> int array -> int -> unit
(** [pack c s key off] writes the fresh packing of [s] at [off]. *)

val unpack_header : codec -> int array -> int -> int array -> unit
(** [unpack_header c key off h] decodes the key at [off]'s [dev], [ph],
    [acted] and [evid] into [h.(0)] .. [h.(3)]. *)

val count : codec -> int array -> int -> int -> int
(** [count c key off i] decodes one count: the faithful seats at chain
    state [i]. A search reads only the counts of the open phase's
    states. *)

val unpack : codec -> int array -> int -> state
(** The decoded key as a record; [unpack c key off] after
    [pack c s key off] equals [s] for every in-range [s]. *)

val move : codec -> int array -> int -> src:int -> dst:int -> unit
(** One faithful seat steps from chain state [src] to [dst]: the [src]
    count lane loses one, the [dst] lane gains one. The [src] count must
    be positive and the result must stay within [0..n]. *)

val step_dev :
  codec -> int array -> int -> dev:int -> acted:int -> evid:int -> unit
(** The deviant steps to [dev] with the given masks. *)

val set_phase : codec -> int array -> int -> int -> unit
(** The phase cursor moves to the given phase. *)

(** {1 Whole-key views} *)

val pack_int : codec -> state -> int
(** The one-word key; injective when [fits_int], unspecified garbage
    otherwise. *)

val pack_string : codec -> state -> string
(** The key's words as 8 little-endian bytes each; injective for every
    layout. *)

val structural : state -> string
(** The delimited decimal rendering — the audit oracle: two states are
    equal iff their structural keys are. *)

exception Collision of string * string
(** Raised by [Explore]'s collision audit when two structurally distinct
    states share a key, or when a rewritten successor key differs from
    the fresh packing of the successor; carries both structural
    renderings. Impossible unless the codec is broken — the audit is a
    regression tripwire, not a runtime guard. *)

val bits_for : int -> int
(** [bits_for v] is the smallest width (≥ 1) with [2^bits - 1 >= v]. *)
