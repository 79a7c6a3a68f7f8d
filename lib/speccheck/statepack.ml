(* Packed canonical product states for [Explore]'s dedup tables.

   A canonical product state is the deviant's chain position, a per-state
   count of the faithful (indistinguishable) seats, the phase cursor, and
   the per-phase acted/evidence bitmasks. The BFS dedups millions of these
   per scenario, so the key must be cheap: when the whole state fits in 63
   bits it packs into a single immediate int (no allocation, O(1) hash);
   otherwise it packs into a fixed-width string, one byte-group per field.
   Both packings are injective by construction — every field gets a lane
   wide enough for its full range — and [structural] renders the verbose
   decimal join the first verifier used, kept as the collision-audit
   oracle and QCheck differential target. *)

type state = {
  dev : int;  (* deviant's chain position; -1 = no deviant seated *)
  cnt : int array;  (* faithful seats per chain state, length [ns] *)
  ph : int;  (* phase cursor; [nphases] = every phase certified *)
  acted : int;  (* per-phase "the deviation executed" bitmask *)
  evid : int;  (* per-phase "checkpoint evidence deposited" bitmask *)
}

(* Smallest width such that [2^bits - 1 >= v]; at least one lane bit so a
   zero-range field still occupies a slot (keeps the layout uniform). *)
let bits_for v =
  let rec go b top = if top >= v then b else go (b + 1) ((top * 2) + 1) in
  go 1 1

type codec = {
  ns : int;  (* chain states *)
  bits_cnt : int;  (* per-count lane: counts range over 0..n *)
  bits_dev : int;  (* deviant lane stores dev+1, range 0..ns *)
  bits_ph : int;  (* phase cursor, range 0..nphases *)
  bits_mask : int;  (* acted/evid lanes, nphases bits each *)
  total_bits : int;
  cnt_bytes : int;  (* wide encoding: bytes per count *)
  wide_len : int;  (* wide encoding: total string length *)
}

let make ~ns ~n ~nphases =
  if nphases > 16 then
    invalid_arg "Statepack.make: more than 16 phases (mask lanes are 16-bit)";
  let bits_cnt = bits_for n in
  let bits_dev = bits_for ns in
  let bits_ph = bits_for nphases in
  let bits_mask = max 1 nphases in
  let total_bits = (ns * bits_cnt) + bits_dev + bits_ph + (2 * bits_mask) in
  let cnt_bytes =
    if n <= 0xff then 1 else if n <= 0xffff then 2 else (bits_cnt + 7) / 8
  in
  let wide_len = (ns * cnt_bytes) + 2 + 1 + 2 + 2 in
  { ns; bits_cnt; bits_dev; bits_ph; bits_mask; total_bits; cnt_bytes; wide_len }

(* A native OCaml int carries 63 payload bits; packing exactly 63 spills
   into the sign bit, which is harmless for a hash/equality key. *)
let fits_int c = c.total_bits <= 63

let pack_int c (s : state) =
  let k = ref 0 in
  for i = 0 to c.ns - 1 do
    k := (!k lsl c.bits_cnt) lor s.cnt.(i)
  done;
  k := (!k lsl c.bits_dev) lor (s.dev + 1);
  k := (!k lsl c.bits_ph) lor s.ph;
  k := (!k lsl c.bits_mask) lor s.acted;
  (!k lsl c.bits_mask) lor s.evid

let pack_string c (s : state) =
  let b = Bytes.create c.wide_len in
  let pos = ref 0 in
  let put v =
    Bytes.unsafe_set b !pos (Char.unsafe_chr (v land 0xff));
    incr pos
  in
  let put16 v =
    put v;
    put (v lsr 8)
  in
  (match c.cnt_bytes with
  | 1 -> Array.iter put s.cnt
  | 2 -> Array.iter put16 s.cnt
  | w -> Array.iter (fun v -> for j = 0 to w - 1 do put (v lsr (8 * j)) done) s.cnt);
  put16 (s.dev + 1);
  put s.ph;
  put16 s.acted;
  put16 s.evid;
  Bytes.unsafe_to_string b

(* The verbose structural key: the audit oracle. Unambiguous because every
   field is delimited. *)
let structural (s : state) =
  let b = Buffer.create 48 in
  Buffer.add_string b (string_of_int s.dev);
  Buffer.add_char b '|';
  Array.iter
    (fun c ->
      Buffer.add_string b (string_of_int c);
      Buffer.add_char b ',')
    s.cnt;
  Buffer.add_char b '|';
  Buffer.add_string b (string_of_int s.ph);
  Buffer.add_char b ':';
  Buffer.add_string b (string_of_int s.acted);
  Buffer.add_char b ':';
  Buffer.add_string b (string_of_int s.evid);
  Buffer.contents b

(* Raised by the collision audit: two structurally distinct states mapped
   to the same packed key. Carries both structural renderings. *)
exception Collision of string * string
