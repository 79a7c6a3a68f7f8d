(* Tests for Damd_crypto: SHA-256 against FIPS 180-4 vectors, HMAC-SHA-256
   against RFC 4231 vectors, and the signing registry's tamper detection. *)

module Sha256 = Damd_crypto.Sha256
module Hmac = Damd_crypto.Hmac
module Signer = Damd_crypto.Signer

let check = Alcotest.check

(* --- SHA-256 FIPS vectors --- *)

let sha_vector msg expected () =
  check Alcotest.string "digest" expected (Sha256.digest_hex msg)

let test_sha_empty =
  sha_vector "" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

let test_sha_abc =
  sha_vector "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"

let test_sha_two_blocks =
  sha_vector "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"

let test_sha_448_bit_boundary () =
  (* 56 bytes: padding must spill into a second block. *)
  let msg = String.make 56 'a' in
  check Alcotest.string "56x'a'"
    "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"
    (Sha256.digest_hex msg)

let test_sha_million_a () =
  let msg = String.make 1_000_000 'a' in
  check Alcotest.string "million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.digest_hex msg)

let test_sha_streaming_equals_oneshot () =
  let parts = [ "The quick "; "brown fox "; "jumps over "; "the lazy dog" ] in
  let ctx = Sha256.init () in
  List.iter (Sha256.feed ctx) parts;
  let streamed = Sha256.hex (Sha256.finalize ctx) in
  check Alcotest.string "streaming" (Sha256.digest_hex (String.concat "" parts)) streamed

let test_sha_quick_fox () =
  check Alcotest.string "fox"
    "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592"
    (Sha256.digest_hex "The quick brown fox jumps over the lazy dog")

let test_sha_digest_list_boundaries () =
  let a = Sha256.digest_list [ "ab"; "c" ] in
  let b = Sha256.digest_list [ "a"; "bc" ] in
  check Alcotest.bool "boundary-sensitive" true (a <> b)

let test_sha_digest_list_deterministic () =
  check Alcotest.string "same input same hash"
    (Sha256.hex (Sha256.digest_list [ "x"; "y"; "z" ]))
    (Sha256.hex (Sha256.digest_list [ "x"; "y"; "z" ]))

let test_hex () = check Alcotest.string "hex" "00ff10" (Sha256.hex "\x00\xff\x10")

let test_sha_block_boundaries () =
  (* 55 bytes (padding fits), 64 bytes (exactly one block), 65 bytes
     (spills): the three classic off-by-one traps. *)
  check Alcotest.string "55"
    "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"
    (Sha256.digest_hex (String.make 55 'a'));
  check Alcotest.string "64"
    "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"
    (Sha256.digest_hex (String.make 64 'a'));
  check Alcotest.string "65"
    "635361c48bb9eab14198e76ea8ab7f1a41685d6ad62aa9146d301d4f17eb0ae0"
    (Sha256.digest_hex (String.make 65 'a'))

let test_sha_digest_list_empty () =
  check Alcotest.bool "empty list deterministic" true
    (Sha256.digest_list [] = Sha256.digest_list []);
  check Alcotest.bool "differs from empty string" true
    (Sha256.digest_list [] <> Sha256.digest_list [ "" ])

let prop_sha_length =
  QCheck.Test.make ~name:"digest is 32 bytes" ~count:100 QCheck.string (fun s ->
      String.length (Sha256.digest s) = 32)

let prop_sha_avalanche =
  QCheck.Test.make ~name:"flipping a byte changes the digest" ~count:100
    QCheck.(pair (string_of_size QCheck.Gen.(1 -- 100)) small_nat)
    (fun (s, i) ->
      let i = i mod String.length s in
      let s' =
        String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor 1) else c) s
      in
      Sha256.digest s <> Sha256.digest s')

let prop_sha_streaming_split =
  QCheck.Test.make ~name:"any split streams to the same digest" ~count:100
    QCheck.(pair string small_nat)
    (fun (s, i) ->
      let i = if String.length s = 0 then 0 else i mod (String.length s + 1) in
      let ctx = Sha256.init () in
      Sha256.feed ctx (String.sub s 0 i);
      Sha256.feed ctx (String.sub s i (String.length s - i));
      Sha256.finalize ctx = Sha256.digest s)

(* The native-int implementation against the Int32 one it replaced
   ([Sha256_reference], test-only): every entry point gives the same
   bytes. Lengths run to 300 and half the cases sit within two bytes of a
   padding edge (55/56 where the length field spills into a new block,
   63/64/65 at the block boundary, and the same a block later); the same
   string is also fed in random chunks and split into a [digest_list]. *)
let gen_sha_case =
  let open QCheck.Gen in
  let edge =
    let* base = oneofl [ 55; 56; 63; 64; 65; 119; 120; 127; 128; 129 ] in
    map (fun d -> max 0 (base + d)) (int_range (-2) 2)
  in
  let* len = oneof [ int_bound 300; edge ] in
  let* s = string_size ~gen:char (return len) in
  let* cuts = list_size (int_bound 6) (int_bound len) in
  return (s, List.sort_uniq Int.compare cuts)

let split_at s cuts =
  let bounds = (0 :: cuts) @ [ String.length s ] in
  let rec go = function
    | a :: (b :: _ as rest) -> String.sub s a (b - a) :: go rest
    | _ -> []
  in
  go bounds

let prop_sha_matches_reference =
  QCheck.Test.make ~name:"native-int SHA-256 = Int32 reference" ~count:500
    (QCheck.make
       ~print:(fun (s, cuts) ->
         Printf.sprintf "%d bytes %S, cuts %s" (String.length s) s
           (String.concat "," (List.map string_of_int cuts)))
       gen_sha_case)
    (fun (s, cuts) ->
      let parts = split_at s cuts in
      let ctx = Sha256.init () in
      List.iter (Sha256.feed ctx) parts;
      let raw = Sha256_reference.digest s in
      String.equal (Sha256.digest_hex s) (Sha256_reference.digest_hex s)
      && String.equal (Sha256.finalize ctx) raw
      && String.equal (Sha256.digest_list parts) (Sha256_reference.digest_list parts)
      && String.equal (Sha256.hex s) (Sha256_reference.hex s))

(* --- HMAC RFC 4231 vectors --- *)

let test_hmac_rfc4231_case1 () =
  let key = String.make 20 '\x0b' in
  check Alcotest.string "case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Hmac.mac_hex ~key "Hi There")

let test_hmac_rfc4231_case2 () =
  check Alcotest.string "case 2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Hmac.mac_hex ~key:"Jefe" "what do ya want for nothing?")

let test_hmac_rfc4231_case3 () =
  let key = String.make 20 '\xaa' in
  let msg = String.make 50 '\xdd' in
  check Alcotest.string "case 3"
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    (Hmac.mac_hex ~key msg)

let test_hmac_rfc4231_case6_long_key () =
  (* Key longer than the block size must be hashed first. *)
  let key = String.make 131 '\xaa' in
  check Alcotest.string "case 6"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Hmac.mac_hex ~key "Test Using Larger Than Block-Size Key - Hash Key First")

let test_hmac_block_size_key () =
  (* A key of exactly the block size must be used as-is (not hashed). *)
  check Alcotest.string "64-byte key"
    "3639ed45f96410ae1abf821aaf15a4e616209464f7e06fb79435d35e485bd3c2"
    (Hmac.mac_hex ~key:(String.make 64 'k') "block-size key")

let test_hmac_verify_roundtrip () =
  let tag = Hmac.mac ~key:"k" "message" in
  check Alcotest.bool "verifies" true (Hmac.verify ~key:"k" "message" ~tag);
  check Alcotest.bool "wrong msg" false (Hmac.verify ~key:"k" "messagf" ~tag);
  check Alcotest.bool "wrong key" false (Hmac.verify ~key:"k2" "message" ~tag);
  check Alcotest.bool "wrong length tag" false (Hmac.verify ~key:"k" "message" ~tag:"short")

let prop_hmac_key_separation =
  QCheck.Test.make ~name:"different keys give different tags" ~count:100
    QCheck.(triple (string_of_size QCheck.Gen.(1 -- 32)) (string_of_size QCheck.Gen.(1 -- 32)) string)
    (fun (k1, k2, msg) ->
      QCheck.assume (k1 <> k2);
      Hmac.mac ~key:k1 msg <> Hmac.mac ~key:k2 msg)

(* --- Signer --- *)

let test_signer_roundtrip () =
  let reg = Signer.create_registry ~seed:1 in
  let key = Signer.key_of reg 7 in
  let s = Signer.sign ~key ~signer:7 "payment:42" in
  check Alcotest.bool "verifies" true (Signer.verify reg s)

let test_signer_detects_tamper () =
  let reg = Signer.create_registry ~seed:1 in
  let key = Signer.key_of reg 7 in
  let s = Signer.sign ~key ~signer:7 "payment:42" in
  let s' = Signer.tamper s ~payload:"payment:0" in
  check Alcotest.bool "tamper detected" false (Signer.verify reg s')

let test_signer_detects_spoofed_identity () =
  let reg = Signer.create_registry ~seed:1 in
  let key7 = Signer.key_of reg 7 in
  (* Node 7 signs but claims to be node 3. *)
  let s = Signer.sign ~key:key7 ~signer:3 "report" in
  check Alcotest.bool "spoof detected" false (Signer.verify reg s)

let test_signer_keys_deterministic () =
  let a = Signer.create_registry ~seed:5 in
  let b = Signer.create_registry ~seed:5 in
  check Alcotest.string "same key" (Signer.key_of a 1) (Signer.key_of b 1);
  let c = Signer.create_registry ~seed:6 in
  check Alcotest.bool "different seed different key" true
    (Signer.key_of a 1 <> Signer.key_of c 1)

let test_signer_distinct_identities_distinct_keys () =
  let reg = Signer.create_registry ~seed:5 in
  check Alcotest.bool "distinct" true (Signer.key_of reg 1 <> Signer.key_of reg 2)

let prop_signer_payload_integrity =
  QCheck.Test.make ~name:"any payload change breaks the signature" ~count:100
    QCheck.(pair string string)
    (fun (payload, other) ->
      QCheck.assume (payload <> other);
      let reg = Signer.create_registry ~seed:3 in
      let key = Signer.key_of reg 1 in
      let s = Signer.sign ~key ~signer:1 payload in
      Signer.verify reg s && not (Signer.verify reg (Signer.tamper s ~payload:other)))

let suites =
  [
    ( "crypto.sha256",
      [
        Alcotest.test_case "FIPS empty" `Quick test_sha_empty;
        Alcotest.test_case "FIPS abc" `Quick test_sha_abc;
        Alcotest.test_case "FIPS two blocks" `Quick test_sha_two_blocks;
        Alcotest.test_case "448-bit boundary" `Quick test_sha_448_bit_boundary;
        Alcotest.test_case "million a" `Slow test_sha_million_a;
        Alcotest.test_case "streaming = one-shot" `Quick test_sha_streaming_equals_oneshot;
        Alcotest.test_case "quick fox" `Quick test_sha_quick_fox;
        Alcotest.test_case "digest_list boundaries" `Quick test_sha_digest_list_boundaries;
        Alcotest.test_case "digest_list deterministic" `Quick test_sha_digest_list_deterministic;
        Alcotest.test_case "hex" `Quick test_hex;
        Alcotest.test_case "block boundaries" `Quick test_sha_block_boundaries;
        Alcotest.test_case "digest_list empty" `Quick test_sha_digest_list_empty;
        QCheck_alcotest.to_alcotest prop_sha_length;
        QCheck_alcotest.to_alcotest prop_sha_avalanche;
        QCheck_alcotest.to_alcotest prop_sha_streaming_split;
        QCheck_alcotest.to_alcotest prop_sha_matches_reference;
      ] );
    ( "crypto.hmac",
      [
        Alcotest.test_case "RFC4231 case 1" `Quick test_hmac_rfc4231_case1;
        Alcotest.test_case "RFC4231 case 2" `Quick test_hmac_rfc4231_case2;
        Alcotest.test_case "RFC4231 case 3" `Quick test_hmac_rfc4231_case3;
        Alcotest.test_case "RFC4231 case 6 (long key)" `Quick test_hmac_rfc4231_case6_long_key;
        Alcotest.test_case "block-size key" `Quick test_hmac_block_size_key;
        Alcotest.test_case "verify roundtrip" `Quick test_hmac_verify_roundtrip;
        QCheck_alcotest.to_alcotest prop_hmac_key_separation;
      ] );
    ( "crypto.signer",
      [
        Alcotest.test_case "roundtrip" `Quick test_signer_roundtrip;
        Alcotest.test_case "detects tamper" `Quick test_signer_detects_tamper;
        Alcotest.test_case "detects spoofed identity" `Quick test_signer_detects_spoofed_identity;
        Alcotest.test_case "keys deterministic" `Quick test_signer_keys_deterministic;
        Alcotest.test_case "distinct identities" `Quick test_signer_distinct_identities_distinct_keys;
        QCheck_alcotest.to_alcotest prop_signer_payload_integrity;
      ] );
  ]
