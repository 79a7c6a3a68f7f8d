module Dijkstra = Damd_graph.Dijkstra
module Sha256 = Damd_crypto.Sha256

type entry = Dijkstra.entry

type price_entry = { transit : int; price : float; tags : int list }

type routing_table = entry option array

type pricing_table = price_entry list array

type update =
  | Cost_announce of { origin : int; cost : float }
  | Routing_update of { origin : int; table : routing_table }
  | Pricing_update of { origin : int; table : pricing_table }

type msg =
  | Update of update
  | Copy of { principal : int; via : int; inner : update }
  | Packet of { src : int; dst : int; rate : float; trace : int list }

let update_size = function
  | Cost_announce _ -> 12 (* origin + cost *)
  | Routing_update { table; _ } ->
      Array.fold_left
        (fun acc e ->
          match e with
          | None -> acc + 1
          | Some e -> acc + 9 + (4 * List.length e.Dijkstra.path))
        4 table
  | Pricing_update { table; _ } ->
      Array.fold_left
        (fun acc entries ->
          List.fold_left
            (fun acc pe -> acc + 12 + (4 * List.length pe.tags))
            (acc + 1) entries)
        4 table

let msg_size = function
  | Update u -> 1 + update_size u
  | Copy { inner; _ } -> 9 + update_size inner
  | Packet { trace; _ } -> 20 + (4 * List.length trace)

let self_entry self = Some { Dijkstra.cost = 0.; path = [ self ] }

let empty_routing ~n ~self =
  let t = Array.make n None in
  t.(self) <- self_entry self;
  t

let empty_pricing ~n = Array.make n ([] : price_entry list)

let routing_row ~self ~costs ~neighbor_tables dst =
  if dst = self then self_entry self
  else
    let consider best (a, (nbr : routing_table)) =
      match nbr.(dst) with
      | Some e when not (List.mem self e.Dijkstra.path) ->
          let step = if a = dst then 0. else costs.(a) in
          let cand =
            { Dijkstra.cost = e.Dijkstra.cost +. step; path = self :: e.Dijkstra.path }
          in
          (match best with
          | None -> Some cand
          | Some b -> if Dijkstra.compare_entry cand b < 0 then Some cand else best)
      | _ -> best
    in
    List.fold_left consider None neighbor_tables

let recompute_routing ~self ~n ~costs ~neighbor_tables =
  Array.init n (routing_row ~self ~costs ~neighbor_tables)

let dist_of (t : routing_table) j =
  match t.(j) with Some e -> e.Dijkstra.cost | None -> infinity

let on_path_of (t : routing_table) k j =
  match t.(j) with Some e -> List.mem k e.Dijkstra.path | None -> false

let pricing_row ~self ~costs ~own_routing ~neighbor_routing ~neighbor_pricing dst =
  if dst = self then []
  else
    match (own_routing : routing_table).(dst) with
    | None -> []
    | Some e ->
        let price_for k =
          (* d(-k)(self,dst) via each neighbor a <> k, tracking the set
             of minimizing neighbors for the identity tag. *)
          let candidates =
            List.filter_map
              (fun (a, (nbr_r : routing_table)) ->
                if a = k then None
                else begin
                  let step = if a = dst then 0. else costs.(a) in
                  let d_mk_a =
                    if a = dst then 0.
                    else if not (on_path_of nbr_r k dst) then dist_of nbr_r dst
                    else
                      (* A neighbor that has not announced pricing yet
                         offers no avoid-k route through itself. *)
                      match List.assoc_opt a neighbor_pricing with
                      | None -> infinity
                      | Some (nbr_p : pricing_table) -> (
                          match List.find_opt (fun pe -> pe.transit = k) nbr_p.(dst) with
                          | Some pe -> pe.price -. costs.(k) +. dist_of nbr_r dst
                          | None -> infinity)
                  in
                  let total = step +. d_mk_a in
                  if Float.is_finite total then Some (a, total) else None
                end)
              neighbor_routing
          in
          match candidates with
          | [] -> None
          | _ ->
              let d_mk =
                List.fold_left (fun acc (_, v) -> Float.min acc v) infinity candidates
              in
              let tags =
                List.filter_map (fun (a, v) -> if v = d_mk then Some a else None) candidates
                |> List.sort Int.compare
              in
              Some { transit = k; price = costs.(k) +. d_mk -. e.Dijkstra.cost; tags }
        in
        List.filter_map price_for (Dijkstra.transit_nodes e.Dijkstra.path)
        |> List.sort (fun a b -> Int.compare a.transit b.transit)

let recompute_pricing ~self ~costs ~own_routing ~neighbor_routing ~neighbor_pricing =
  Array.init (Array.length own_routing)
    (pricing_row ~self ~costs ~own_routing ~neighbor_routing ~neighbor_pricing)

let serialize_routing (t : routing_table) =
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

let serialize_pricing (t : pricing_table) =
  let buf = Buffer.create 256 in
  Array.iteri
    (fun j entries ->
      Buffer.add_string buf (string_of_int j);
      Buffer.add_char buf ':';
      List.iter
        (fun pe ->
          Buffer.add_string buf (Printf.sprintf "%d=%h[" pe.transit pe.price);
          List.iter (fun tag -> Buffer.add_string buf (string_of_int tag ^ ",")) pe.tags;
          Buffer.add_char buf ']')
        entries;
      Buffer.add_char buf ';')
    t;
  Buffer.contents buf

let routing_digest t = Sha256.digest_hex (serialize_routing t)

let pricing_digest t = Sha256.digest_hex (serialize_pricing t)

(* Digest over a (sender, table) input set — what a principal consumed to
   recompute, and what a checker's mirror consumed. Comparing the two
   tells the fault-tolerant bank whether a mirror mismatch is a
   contradiction (same inputs, different output: someone lied) or an
   omission (the checker worked from different inputs: a message was
   lost, restart instead of accusing). Sorted by sender so the digest is
   order-insensitive. *)
let inputs_digest serialize inputs =
  let buf = Buffer.create 256 in
  List.sort (fun (a, _) (b, _) -> Int.compare a b) inputs
  |> List.iter (fun (sender, table) ->
         Buffer.add_string buf (string_of_int sender);
         Buffer.add_char buf '>';
         Buffer.add_string buf (serialize table);
         Buffer.add_char buf '|');
  Sha256.digest_hex (Buffer.contents buf)

let routing_inputs_digest inputs = inputs_digest serialize_routing inputs

let pricing_inputs_digest inputs = inputs_digest serialize_pricing inputs

let costs_digest costs =
  let buf = Buffer.create 64 in
  Array.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%h;" c)) costs;
  Sha256.digest_hex (Buffer.contents buf)

(* Equality with exactly the serializations' equivalence: floats as
   [%h] prints them (equal bits, or NaNs of one sign — "nan"/"-nan"),
   int lists element by element, tables row by row. *)
let float_equal a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
  || (Float.is_nan a && Float.is_nan b && Bool.equal (Float.sign_bit a) (Float.sign_bit b))

let ints_equal = List.equal Int.equal

let routing_row_equal (a : entry option) (b : entry option) =
  a == b
  ||
  match (a, b) with
  | Some a, Some b -> float_equal a.Dijkstra.cost b.Dijkstra.cost && ints_equal a.path b.path
  | None, None -> true
  | _ -> false

let pricing_row_equal (a : price_entry list) (b : price_entry list) =
  a == b
  || List.equal
       (fun x y -> x.transit = y.transit && float_equal x.price y.price && ints_equal x.tags y.tags)
       a b

let tables_equal row_equal a b =
  a == b || (Array.length a = Array.length b && Array.for_all2 row_equal a b)

let routing_equal = tables_equal routing_row_equal

let pricing_equal = tables_equal pricing_row_equal
