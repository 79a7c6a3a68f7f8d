(* The digest serializations as first written, through [Printf]'s [%h] and
   [string_of_int]. This is the oracle for [Damd_faithful.Protocol]'s
   buffer writers: the tests assert that every protocol digest equals the
   SHA-256 of these bytes, on tables whose floats include subnormals, NaN
   payloads of both signs, infinities and signed zeros. *)

module Dijkstra = Damd_graph.Dijkstra
module Protocol = Damd_faithful.Protocol
module Sha256 = Damd_crypto.Sha256

let routing (t : Protocol.routing_table) =
  let buf = Buffer.create 256 in
  Array.iteri
    (fun j e ->
      Buffer.add_string buf (string_of_int j);
      (match e with
      | None -> Buffer.add_string buf ":-"
      | Some e ->
          Buffer.add_string buf (Printf.sprintf ":%h:" e.Dijkstra.cost);
          List.iter
            (fun v -> Buffer.add_string buf (string_of_int v ^ ","))
            e.Dijkstra.path);
      Buffer.add_char buf ';')
    t;
  Buffer.contents buf

let pricing (t : Protocol.pricing_table) =
  let buf = Buffer.create 256 in
  Array.iteri
    (fun j entries ->
      Buffer.add_string buf (string_of_int j);
      Buffer.add_char buf ':';
      List.iter
        (fun (pe : Protocol.price_entry) ->
          Buffer.add_string buf
            (Printf.sprintf "%d=%h[" pe.Protocol.transit pe.Protocol.price);
          List.iter
            (fun tag -> Buffer.add_string buf (string_of_int tag ^ ","))
            pe.Protocol.tags;
          Buffer.add_char buf ']')
        entries;
      Buffer.add_char buf ';')
    t;
  Buffer.contents buf

let inputs serialize inputs =
  let buf = Buffer.create 256 in
  List.sort (fun (a, _) (b, _) -> Int.compare a b) inputs
  |> List.iter (fun (sender, table) ->
         Buffer.add_string buf (string_of_int sender);
         Buffer.add_char buf '>';
         Buffer.add_string buf (serialize table);
         Buffer.add_char buf '|');
  Buffer.contents buf

let costs costs =
  let buf = Buffer.create 64 in
  Array.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%h;" c)) costs;
  Buffer.contents buf

let routing_digest t = Sha256.digest_hex (routing t)
let pricing_digest t = Sha256.digest_hex (pricing t)
let routing_inputs_digest l = Sha256.digest_hex (inputs routing l)
let pricing_inputs_digest l = Sha256.digest_hex (inputs pricing l)
let costs_digest c = Sha256.digest_hex (costs c)
