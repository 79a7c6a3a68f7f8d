(* Packed canonical product states: the one key format of [Explore]'s
   state store.

   A canonical product state is the deviant's chain position, a per-state
   count of the faithful (indistinguishable) seats, the phase cursor, and
   the per-phase acted/evidence bitmasks. Every field gets a lane wide
   enough for its full range, and [make] assigns each lane a word and a
   shift: lanes fill a 63-bit word in order and open the next word when
   the next lane would cross bit 63, so no lane ever straddles two words.
   A key is therefore a short run of ints, and a successor's key is its
   parent's words with one or two lanes rewritten in place ([move],
   [step_dev], [set_phase]): no state record, counts copy or string is
   built per successor. [pack_int] and [pack_string] are views of the same
   words; [structural] renders the verbose decimal join the first verifier
   used, kept as the collision-audit oracle and QCheck differential
   target. *)

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

(* Lane [l] is count [l] for [l < ns], then the deviant (stored as
   [dev + 1], so "no deviant" packs as 0), the phase cursor, and the
   acted and evidence masks. *)
type codec = {
  ns : int;  (* chain states *)
  nwords : int;
  word : int array;  (* per lane: the word holding it *)
  shift : int array;  (* per lane: its lowest bit within that word *)
  mask : int array;  (* per lane: 2^width - 1 *)
}

let l_dev c = c.ns
let l_ph c = c.ns + 1
let l_acted c = c.ns + 2
let l_evid c = c.ns + 3

(* A mask lane is [nphases] bits of one word, and every phase bit must
   stay a positive int. *)
let max_phases = 62

let make ~ns ~n ~nphases =
  if nphases > max_phases then
    invalid_arg "Statepack.make: more than 62 phases (mask lanes hold 62)";
  let width l =
    if l < ns then bits_for n
    else if l = ns then bits_for ns
    else if l = ns + 1 then bits_for nphases
    else max 1 nphases
  in
  let lanes = ns + 4 in
  let word = Array.make lanes 0 and shift = Array.make lanes 0 in
  let w = ref 0 and used = ref 0 in
  for l = 0 to lanes - 1 do
    let b = width l in
    if !used + b > 63 then begin
      incr w;
      used := 0
    end;
    word.(l) <- !w;
    shift.(l) <- !used;
    used := !used + b
  done;
  {
    ns;
    nwords = !w + 1;
    word;
    shift;
    mask = Array.init lanes (fun l -> (1 lsl width l) - 1);
  }

let words c = c.nwords

(* A native OCaml int carries 63 payload bits, so a layout of at most 63
   bits is exactly a one-word layout; packing exactly 63 spills into the
   sign bit, which is harmless for a hash/equality key. *)
let fits_int c = c.nwords = 1

(* ---- reading and rewriting lanes of a key stored at [key.(off..)] ---- *)

let get c key off l = (key.(off + c.word.(l)) lsr c.shift.(l)) land c.mask.(l)

let set c key off l v =
  let i = off + c.word.(l) in
  key.(i) <-
    (key.(i) land lnot (c.mask.(l) lsl c.shift.(l))) lor (v lsl c.shift.(l))

let pack c (s : state) key off =
  Array.fill key off c.nwords 0;
  for l = 0 to c.ns + 3 do
    let v =
      if l < c.ns then s.cnt.(l)
      else if l = l_dev c then s.dev + 1
      else if l = l_ph c then s.ph
      else if l = l_acted c then s.acted
      else s.evid
    in
    let i = off + c.word.(l) in
    key.(i) <- key.(i) lor (v lsl c.shift.(l))
  done

let count c key off i = get c key off i

let unpack_header c key off h =
  h.(0) <- get c key off (l_dev c) - 1;
  h.(1) <- get c key off (l_ph c);
  h.(2) <- get c key off (l_acted c);
  h.(3) <- get c key off (l_evid c)

let unpack c key off =
  {
    dev = get c key off (l_dev c) - 1;
    cnt = Array.init c.ns (count c key off);
    ph = get c key off (l_ph c);
    acted = get c key off (l_acted c);
    evid = get c key off (l_evid c);
  }

(* Counts stay within 0..n, so one seat leaving [src] and one arriving at
   [dst] are a subtraction and an addition on their words: neither can
   borrow from or carry into a neighbouring lane. *)
let move c key off ~src ~dst =
  let i = off + c.word.(src) and j = off + c.word.(dst) in
  key.(i) <- key.(i) - (1 lsl c.shift.(src));
  key.(j) <- key.(j) + (1 lsl c.shift.(dst))

let step_dev c key off ~dev ~acted ~evid =
  set c key off (l_dev c) (dev + 1);
  set c key off (l_acted c) acted;
  set c key off (l_evid c) evid

let set_phase c key off ph = set c key off (l_ph c) ph

(* ---- whole-key views ---- *)

(* Every lane shifted into one int: word 0 exactly when [fits_int]. *)
let pack_int c (s : state) =
  let k = ref 0 in
  for i = 0 to c.ns - 1 do
    k := !k lor (s.cnt.(i) lsl c.shift.(i))
  done;
  !k
  lor ((s.dev + 1) lsl c.shift.(l_dev c))
  lor (s.ph lsl c.shift.(l_ph c))
  lor (s.acted lsl c.shift.(l_acted c))
  lor (s.evid lsl c.shift.(l_evid c))

let pack_string c (s : state) =
  let key = Array.make c.nwords 0 in
  pack c s key 0;
  let b = Bytes.create (8 * c.nwords) in
  for j = 0 to Bytes.length b - 1 do
    Bytes.unsafe_set b j
      (Char.unsafe_chr ((key.(j lsr 3) lsr (8 * (j land 7))) land 0xff))
  done;
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
   to the same packed key, or a rewritten key that differs from a fresh
   packing. Carries both structural renderings. *)
exception Collision of string * string
