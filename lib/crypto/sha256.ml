(* FIPS 180-4 SHA-256 on native ints. Message schedule and compression
   follow the specification directly. Each 32-bit word lives in the low
   32 bits of an OCaml int (63 bits wide on the 64-bit platforms this
   builds for): a word is masked with [mask] wherever it is stored, so
   shifts and rotations only ever see clean words, and the sums and
   rotations in between may run past bit 31 because the mask reduces
   them modulo 2^32. No word is boxed, unlike an Int32 implementation. *)

let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
    0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
    0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
    0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
    0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
    0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
    0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

type ctx = {
  h : int array;              (* 8 chaining words *)
  block : Bytes.t;            (* 64-byte block buffer *)
  mutable fill : int;         (* bytes buffered in [block] *)
  mutable total : int;        (* total message length in bytes *)
  w : int array;              (* message schedule scratch *)
}

let init () =
  {
    h =
      [|
        0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a;
        0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19;
      |];
    block = Bytes.create 64;
    fill = 0;
    total = 0;
    w = Array.make 64 0;
  }

let mask = 0xFFFF_FFFF

(* [x] copied into bits 32..62 too: then [(dup x lsr n) land mask] is a
   32-bit rotation right by [n] for any 0 < n < 32. Bit 31 of the copy
   falls off the top of the 63-bit int, but such a shift never reads it. *)
let dup x = x lor (x lsl 32)

let compress ctx =
  let w = ctx.w in
  for i = 0 to 15 do
    w.(i) <- Int32.to_int (Bytes.get_int32_be ctx.block (i * 4)) land mask
  done;
  for i = 16 to 63 do
    let x = w.(i - 15) and y = w.(i - 2) in
    let xx = dup x and yy = dup y in
    let s0 = ((xx lsr 7) lxor (xx lsr 18) lxor (x lsr 3)) land mask in
    let s1 = ((yy lsr 17) lxor (yy lsr 19) lxor (y lsr 10)) land mask in
    w.(i) <- (w.(i - 16) + s0 + w.(i - 7) + s1) land mask
  done;
  let h = ctx.h in
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) in
  let d = ref h.(3) and e = ref h.(4) and f = ref h.(5) in
  let g = ref h.(6) and hh = ref h.(7) in
  for i = 0 to 63 do
    let ee = dup !e and aa = dup !a in
    let s1 = ((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land mask in
    (* [lnot !e] sets the high bits; [land !g] clears them again. *)
    let ch = (!e land !f) lxor (lnot !e land !g) in
    let temp1 = !hh + s1 + ch + k.(i) + w.(i) in
    let s0 = ((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land mask in
    let maj = (!a land !b) lxor (!a land !c) lxor (!b land !c) in
    let temp2 = s0 + maj in
    hh := !g;
    g := !f;
    f := !e;
    e := (!d + temp1) land mask;
    d := !c;
    c := !b;
    b := !a;
    a := (temp1 + temp2) land mask
  done;
  h.(0) <- (h.(0) + !a) land mask;
  h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask;
  h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask;
  h.(5) <- (h.(5) + !f) land mask;
  h.(6) <- (h.(6) + !g) land mask;
  h.(7) <- (h.(7) + !hh) land mask

let feed ctx s =
  let len = String.length s in
  ctx.total <- ctx.total + len;
  let pos = ref 0 in
  while !pos < len do
    let take = min (64 - ctx.fill) (len - !pos) in
    Bytes.blit_string s !pos ctx.block ctx.fill take;
    ctx.fill <- ctx.fill + take;
    pos := !pos + take;
    if ctx.fill = 64 then begin
      compress ctx;
      ctx.fill <- 0
    end
  done

let finalize ctx =
  (* Padding: 0x80, zeros, 64-bit big-endian bit length. *)
  Bytes.set ctx.block ctx.fill '\x80';
  ctx.fill <- ctx.fill + 1;
  if ctx.fill > 56 then begin
    Bytes.fill ctx.block ctx.fill (64 - ctx.fill) '\x00';
    compress ctx;
    ctx.fill <- 0
  end;
  Bytes.fill ctx.block ctx.fill (56 - ctx.fill) '\x00';
  Bytes.set_int64_be ctx.block 56 (Int64.mul (Int64.of_int ctx.total) 8L);
  compress ctx;
  let out = Bytes.create 32 in
  Array.iteri (fun i word -> Bytes.set_int32_be out (i * 4) (Int32.of_int word)) ctx.h;
  Bytes.to_string out

let digest s =
  let ctx = init () in
  feed ctx s;
  finalize ctx

let hex_digits = "0123456789abcdef"

let hex raw =
  let out = Bytes.create (2 * String.length raw) in
  String.iteri
    (fun i c ->
      let b = Char.code c in
      Bytes.set out (2 * i) hex_digits.[b lsr 4];
      Bytes.set out ((2 * i) + 1) hex_digits.[b land 0xF])
    raw;
  Bytes.to_string out

let digest_hex s = hex (digest s)

let digest_list parts =
  let ctx = init () in
  let prefix = Bytes.create 4 in
  let feed_part p =
    Bytes.set_int32_be prefix 0 (Int32.of_int (String.length p));
    feed ctx (Bytes.to_string prefix);
    feed ctx p
  in
  List.iter feed_part parts;
  finalize ctx
