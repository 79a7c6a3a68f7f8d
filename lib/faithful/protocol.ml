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

let routing_size (table : routing_table) =
  Array.fold_left
    (fun acc e ->
      match e with
      | None -> acc + 1
      | Some e -> acc + 9 + (4 * List.length e.Dijkstra.path))
    4 table

let pricing_size (table : pricing_table) =
  Array.fold_left
    (fun acc entries ->
      List.fold_left (fun acc pe -> acc + 12 + (4 * List.length pe.tags)) (acc + 1) entries)
    4 table

let update_size = function
  | Cost_announce _ -> 12 (* origin + cost *)
  | Routing_update { table; _ } -> routing_size table
  | Pricing_update { table; _ } -> pricing_size table

let size_with update_size = function
  | Update u -> 1 + update_size u
  | Copy { inner; _ } -> 9 + update_size inner
  | Packet { trace; _ } -> 20 + (4 * List.length trace)

let msg_size = size_with update_size

(* One announcement goes to every neighbour and one relayed table to
   every other checker, so consecutive sends of a kind mostly carry the
   same table: remember the last table of each kind, by identity, with
   its size. *)
let sizer () =
  let routing = ref ([||] : routing_table) and routing_bytes = ref (routing_size [||]) in
  let pricing = ref ([||] : pricing_table) and pricing_bytes = ref (pricing_size [||]) in
  size_with (function
    | Cost_announce _ as u -> update_size u
    | Routing_update { table; _ } ->
        if table != !routing then begin
          routing := table;
          routing_bytes := routing_size table
        end;
        !routing_bytes
    | Pricing_update { table; _ } ->
        if table != !pricing then begin
          pricing := table;
          pricing_bytes := pricing_size table
        end;
        !pricing_bytes)

let self_entry self = Some { Dijkstra.cost = 0.; path = [ self ] }

let empty_routing ~n ~self =
  let t = Array.make n None in
  t.(self) <- self_entry self;
  t

let empty_pricing ~n = Array.make n ([] : price_entry list)

let price_pairs row = List.map (fun pe -> (pe.transit, pe.price)) row

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

(* --- The digest serializations ---

   The bytes the bank hashes, written into one buffer: integers as
   [string_of_int] prints them and floats as [Printf]'s [%h] does, without
   going through either. A routing row is [j:-;] or [j:COST:v,v,...,;], a
   pricing row [j:] then [TRANSIT=PRICE[tag,...,]] per entry then [;],
   an input set [SENDER>TABLE|] per sender in sender order, and a cost
   list [COST;] per node. *)

(* The digits of [v <= 0], most significant first: negated digits, so
   [min_int] needs no special case. *)
let rec add_digits buf v =
  if v <= -10 then add_digits buf (v / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (v mod 10)))

let add_int buf i =
  if i < 0 then begin
    Buffer.add_char buf '-';
    add_digits buf i
  end
  else add_digits buf (-i)

let hex_digits = "0123456789abcdef"

(* [Printf.sprintf "%h" x]: a [-] when the sign bit is set (NaNs too);
   then [infinity], [nan], or [0x1] for a normal number and [0x0] for a
   zero or subnormal, followed by [.] and the 52-bit fraction in nibbles
   with trailing zero nibbles trimmed (nothing when the fraction is zero),
   then [p] and the always-signed binary exponent: the biased exponent
   less 1023, [-1022] for subnormals, [+0] for zeros. *)
let add_hex_float buf x =
  if Float.sign_bit x then Buffer.add_char buf '-';
  (* The low 63 bits: the biased exponent and the fraction. *)
  let bits = Int64.to_int (Int64.bits_of_float x) in
  let exp = (bits lsr 52) land 0x7ff and frac = bits land 0xf_ffff_ffff_ffff in
  if exp = 0x7ff then Buffer.add_string buf (if frac = 0 then "infinity" else "nan")
  else begin
    Buffer.add_string buf (if exp = 0 then "0x0" else "0x1");
    if frac <> 0 then begin
      Buffer.add_char buf '.';
      let rest = ref frac and shift = ref 48 in
      while !rest <> 0 do
        Buffer.add_char buf hex_digits.[(!rest lsr !shift) land 0xf];
        rest := !rest land ((1 lsl !shift) - 1);
        shift := !shift - 4
      done
    end;
    Buffer.add_char buf 'p';
    let e = if exp <> 0 then exp - 1023 else if frac = 0 then 0 else -1022 in
    if e >= 0 then Buffer.add_char buf '+';
    add_int buf e
  end

let rec add_ints_comma buf = function
  | [] -> ()
  | v :: rest ->
      add_int buf v;
      Buffer.add_char buf ',';
      add_ints_comma buf rest

let add_routing buf (t : routing_table) =
  for j = 0 to Array.length t - 1 do
    add_int buf j;
    (match t.(j) with
    | None -> Buffer.add_string buf ":-"
    | Some e ->
        Buffer.add_char buf ':';
        add_hex_float buf e.Dijkstra.cost;
        Buffer.add_char buf ':';
        add_ints_comma buf e.Dijkstra.path);
    Buffer.add_char buf ';'
  done

let rec add_price_entries buf = function
  | [] -> ()
  | pe :: rest ->
      add_int buf pe.transit;
      Buffer.add_char buf '=';
      add_hex_float buf pe.price;
      Buffer.add_char buf '[';
      add_ints_comma buf pe.tags;
      Buffer.add_char buf ']';
      add_price_entries buf rest

let add_pricing buf (t : pricing_table) =
  for j = 0 to Array.length t - 1 do
    add_int buf j;
    Buffer.add_char buf ':';
    add_price_entries buf t.(j);
    Buffer.add_char buf ';'
  done

let digest_with add x =
  let buf = Buffer.create 1024 in
  add buf x;
  Sha256.digest_hex (Buffer.contents buf)

let routing_digest t = digest_with add_routing t

let pricing_digest t = digest_with add_pricing t

(* Digest over a (sender, table) input set — what a principal consumed to
   recompute, and what a checker's mirror consumed. Comparing the two
   tells the fault-tolerant bank whether a mirror mismatch is a
   contradiction (same inputs, different output: someone lied) or an
   omission (the checker worked from different inputs: a message was
   lost, restart instead of accusing). Sorted by sender so the digest is
   order-insensitive. *)
let add_inputs add buf inputs =
  List.sort (fun (a, _) (b, _) -> Int.compare a b) inputs
  |> List.iter (fun (sender, table) ->
         add_int buf sender;
         Buffer.add_char buf '>';
         add buf table;
         Buffer.add_char buf '|')

let routing_inputs_digest inputs = digest_with (add_inputs add_routing) inputs

let pricing_inputs_digest inputs = digest_with (add_inputs add_pricing) inputs

let costs_digest costs =
  digest_with
    (fun buf ->
      Array.iter (fun c ->
          add_hex_float buf c;
          Buffer.add_char buf ';'))
    costs

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
