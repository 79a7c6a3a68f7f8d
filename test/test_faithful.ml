(* Tests for Damd_faithful: the wire-level protocol computations, node
   behaviour (captured-send unit tests), bank checkpoints and settlement,
   and the headline end-to-end properties — a faithful run certifies and
   reproduces the centralized FPSS tables exactly; every detectable
   deviation is caught (the §4.3 case analysis / Figure 2); no library
   deviation is profitable with checking on (Theorem 1); and profitable
   manipulations reappear when checking is disabled. *)

module Rng = Damd_util.Rng
module Graph = Damd_graph.Graph
module Gen = Damd_graph.Gen
module Dijkstra = Damd_graph.Dijkstra
module Traffic = Damd_fpss.Traffic
module Game = Damd_fpss.Game
module Pricing = Damd_fpss.Pricing
module Tables = Damd_fpss.Tables
module Protocol = Damd_faithful.Protocol
module Adversary = Damd_faithful.Adversary
module Node = Damd_faithful.Node
module Bank = Damd_faithful.Bank
module Runner = Damd_faithful.Runner
module Analysis = Damd_faithful.Analysis
module Equilibrium = Damd_core.Equilibrium
module Faithfulness = Damd_core.Faithfulness
module Signer = Damd_crypto.Signer

let check = Alcotest.check
let checkf = Alcotest.check (Alcotest.float 1e-9)

let fig1 = lazy (Gen.figure1 ())
let fig1_traffic = Traffic.uniform ~n:6 ~rate:1.

let ring5 =
  lazy (Gen.ring ~n:5 ~costs:[| 2.; 3.; 1.; 4.; 2. |])

module Engine = Damd_sim.Engine

(* A construction driven through the public [Engine]/[Node] calls, the
   way [Runner] drives it but with the bank left to the caller: [build]
   runs the cost flood and freezes DATA1, [drive st] runs one table to
   quiescence. [tap] picks the messages that are delivered. *)
type construction = {
  nodes : Node.t array;
  engine : Protocol.msg Engine.t;
  sends : Node.send array;
}

let build ?tap g deviations =
  let n = Graph.n g in
  let neighbor_sets = Array.init n (Graph.neighbors g) in
  let nodes =
    Array.init n (fun id ->
        Node.create ~id ~n ~neighbor_sets ~true_cost:(Graph.cost g id)
          ~deviation:deviations.(id) ())
  in
  let engine : Protocol.msg Engine.t = Engine.create ~n () in
  Option.iter
    (fun keep ->
      Engine.set_tap engine (fun ~src:_ ~dst:_ m -> if keep m then Some m else None))
    tap;
  let sends = Array.init n (fun src ~dst msg -> Engine.send engine ~src ~dst msg) in
  for i = 0 to n - 1 do
    Engine.set_handler engine i (fun ~sender msg ->
        match msg with
        | Protocol.Update u -> Node.on_cost_msg nodes.(i) sends.(i) ~sender u
        | _ -> ())
  done;
  Array.iteri (fun i node -> Node.announce_cost node sends.(i)) nodes;
  ignore (Engine.run engine);
  Array.iter (fun node -> ignore (Node.finalize_costs node)) nodes;
  { nodes; engine; sends }

let drive c st =
  Array.iteri
    (fun i node ->
      Engine.set_handler c.engine i (fun ~sender msg ->
          Node.on_msg st node c.sends.(i) ~sender msg))
    c.nodes;
  Array.iteri (fun i node -> Node.start st node c.sends.(i)) c.nodes;
  ignore (Engine.run ~max_events:1_000_000 c.engine)

(* --- Protocol --- *)

let test_protocol_empty_routing () =
  let t = Protocol.empty_routing ~n:4 ~self:2 in
  check Alcotest.bool "self entry" true (t.(2) <> None);
  check Alcotest.bool "others empty" true (t.(0) = None && t.(1) = None && t.(3) = None)

let test_protocol_recompute_routing_line () =
  (* 0 - 1 - 2 with cost 1 each: node 0 learns 2 via 1's table. *)
  let costs = [| 1.; 1.; 1. |] in
  let t1 = Protocol.empty_routing ~n:3 ~self:1 in
  t1.(2) <- Some { Dijkstra.cost = 0.; path = [ 1; 2 ] };
  let t0 =
    Protocol.recompute_routing ~self:0 ~n:3 ~costs ~neighbor_tables:[ (1, t1) ]
  in
  match t0.(2) with
  | Some e ->
      checkf "cost through 1" 1. e.Dijkstra.cost;
      check (Alcotest.list Alcotest.int) "path" [ 0; 1; 2 ] e.Dijkstra.path
  | None -> Alcotest.fail "missing entry"

let test_protocol_routing_loop_avoidance () =
  (* A neighbor's entry whose path already contains self is rejected. *)
  let costs = [| 1.; 1.; 1. |] in
  let t1 = Protocol.empty_routing ~n:3 ~self:1 in
  t1.(2) <- Some { Dijkstra.cost = 5.; path = [ 1; 0; 2 ] };
  let t0 =
    Protocol.recompute_routing ~self:0 ~n:3 ~costs ~neighbor_tables:[ (1, t1) ]
  in
  check Alcotest.bool "loop rejected" true (t0.(2) = None)

let test_protocol_digests_differ () =
  let a = Protocol.empty_routing ~n:3 ~self:0 in
  let b = Protocol.empty_routing ~n:3 ~self:0 in
  b.(2) <- Some { Dijkstra.cost = 1.; path = [ 0; 2 ] };
  check Alcotest.bool "digests differ" true
    (Protocol.routing_digest a <> Protocol.routing_digest b);
  check Alcotest.bool "equality check" false (Protocol.routing_equal a b)

let test_protocol_pricing_digest_sees_tags () =
  let a : Protocol.pricing_table = [| [ { Protocol.transit = 1; price = 2.; tags = [ 0 ] } ] |] in
  let b : Protocol.pricing_table = [| [ { Protocol.transit = 1; price = 2.; tags = [ 3 ] } ] |] in
  check Alcotest.bool "tags hashed" true
    (Protocol.pricing_digest a <> Protocol.pricing_digest b)

(* Wire sizes of fig1's converged tables, per node: the routing and the
   pricing announcement, each also as a relayed copy (8 bytes more). *)
let fig1_table_sizes =
  [ (123, 91); (119, 75); (119, 75); (111, 43); (119, 75); (115, 59) ]

let test_protocol_msg_sizes () =
  let u = Protocol.Cost_announce { origin = 0; cost = 1. } in
  check Alcotest.int "cost announcement" 13 (Protocol.msg_size (Protocol.Update u));
  check Alcotest.int "cost copy" 21
    (Protocol.msg_size (Protocol.Copy { principal = 0; via = 1; inner = u }));
  let p = Protocol.Packet { src = 0; dst = 1; rate = 1.; trace = [ 0; 2 ] } in
  check Alcotest.int "packet" 28 (Protocol.msg_size p);
  let g, _ = Lazy.force fig1 in
  let c = build g (Array.make 6 Adversary.Faithful) in
  drive c Node.routing_stage;
  drive c Node.pricing_stage;
  let sizes inner =
    let update = Protocol.msg_size (Protocol.Update inner) in
    check Alcotest.int "copy = update + 8" (update + 8)
      (Protocol.msg_size (Protocol.Copy { principal = 0; via = 1; inner }));
    update
  in
  check
    Alcotest.(list (pair int int))
    "fig1 converged tables" fig1_table_sizes
    (Array.to_list c.nodes
    |> List.map (fun (node : Node.t) ->
           let origin = node.Node.id in
           ( sizes (Protocol.Routing_update { origin; table = node.Node.routing }),
             sizes (Protocol.Pricing_update { origin; table = node.Node.pricing }) )))

let test_protocol_costs_digest () =
  check Alcotest.bool "cost digests" true
    (Protocol.costs_digest [| 1.; 2. |] <> Protocol.costs_digest [| 1.; 3. |]);
  check Alcotest.string "deterministic"
    (Protocol.costs_digest [| 1.; 2. |])
    (Protocol.costs_digest [| 1.; 2. |])

(* --- Structural equality = digest equality ---

   [routing_equal]/[pricing_equal] compare tables structurally; they must
   hold exactly when the digests' serializations are equal. The floats
   come from a pool where bitwise and [%h] equality part ways: signed
   zeros, NaNs of both signs and two payloads, infinity, a subnormal.
   Each case is a random table and either a copy of it with one cost,
   price, path element, transit, tag or the table length changed, or a
   second random table. *)

let float_pool =
  [| 0.; -0.; nan; -.nan; Int64.float_of_bits 0x7ff0000000000001L; infinity;
     4.9e-324; 1.; 2.5; 7. |]

let gen_float = QCheck.Gen.map (Array.get float_pool) (QCheck.Gen.int_bound 9)
let gen_ints = QCheck.Gen.(list_size (int_bound 3) (int_bound 4))

let gen_routing_row =
  QCheck.Gen.(
    opt (map2 (fun cost path -> { Dijkstra.cost; path }) gen_float gen_ints))

let gen_price_entry =
  QCheck.Gen.(
    map3
      (fun transit price tags -> { Protocol.transit; price; tags })
      (int_bound 4) gen_float gen_ints)

let gen_pricing_row = QCheck.Gen.(list_size (int_bound 3) gen_price_entry)

(* A random table and a partner: a copy, a copy with one row passed
   through [mutate_row] (one field redrawn, possibly to an equal value),
   a copy one row longer or shorter, or an unrelated table. *)
let gen_table_pair gen_row mutate_row =
  let open QCheck.Gen in
  let* a = array_size (1 -- 4) gen_row in
  let n = Array.length a in
  let* edit = int_bound 3 and* j = int_bound (n - 1) in
  match edit with
  | 0 -> return (a, Array.copy a)
  | 1 ->
      let* r = mutate_row a.(j) in
      let b = Array.copy a in
      b.(j) <- r;
      return (a, b)
  | 2 ->
      let* extra = gen_row in
      return (a, if j mod 2 = 0 then Array.append a [| extra |] else Array.sub a 0 (n - 1))
  | _ ->
      let* b = array_size (return n) gen_row in
      return (a, b)

let set_nth l j x = List.mapi (fun i y -> if i = j then x else y) l

let mutate_ints l =
  let open QCheck.Gen in
  match l with
  | [] -> map (fun v -> [ v ]) (int_bound 4)
  | _ ->
      let* j = int_bound (List.length l - 1) and* v = int_bound 4 in
      return (set_nth l j v)

let mutate_routing_row (row : Dijkstra.entry option) =
  let open QCheck.Gen in
  match row with
  | None -> gen_routing_row
  | Some e ->
      let* which = bool in
      if which then map (fun cost -> Some { e with Dijkstra.cost }) gen_float
      else map (fun path -> Some { e with Dijkstra.path }) (mutate_ints e.Dijkstra.path)

let mutate_pricing_row (row : Protocol.price_entry list) =
  let open QCheck.Gen in
  match row with
  | [] -> map (fun pe -> [ pe ]) gen_price_entry
  | _ ->
      let* j = int_bound (List.length row - 1) and* field = int_bound 2 in
      let pe = List.nth row j in
      let* pe =
        match field with
        | 0 -> map (fun price -> { pe with Protocol.price }) gen_float
        | 1 -> map (fun transit -> { pe with Protocol.transit }) (int_bound 4)
        | _ -> map (fun tags -> { pe with Protocol.tags }) (mutate_ints pe.Protocol.tags)
      in
      return (set_nth row j pe)

let print_floats_ints f ints =
  Printf.sprintf "%h/%s" f (String.concat "," (List.map string_of_int ints))

let print_routing (t : Protocol.routing_table) =
  Array.to_list t
  |> List.map (function
       | None -> "-"
       | Some e -> print_floats_ints e.Dijkstra.cost e.Dijkstra.path)
  |> String.concat "; "

let print_pricing (t : Protocol.pricing_table) =
  Array.to_list t
  |> List.map (fun row ->
         List.map
           (fun pe ->
             string_of_int pe.Protocol.transit ^ "="
             ^ print_floats_ints pe.Protocol.price pe.Protocol.tags)
           row
         |> String.concat " ")
  |> String.concat "; "

let prop_equal_is_digest_equal name gen print equal digest =
  QCheck.Test.make ~name ~count:500
    (QCheck.make ~print:QCheck.Print.(pair print print) gen)
    (fun (a, b) -> Bool.equal (equal a b) (String.equal (digest a) (digest b)))

let prop_routing_equal_is_digest_equal =
  prop_equal_is_digest_equal "routing_equal = digest equality"
    (gen_table_pair gen_routing_row mutate_routing_row)
    print_routing Protocol.routing_equal Protocol.routing_digest

let prop_pricing_equal_is_digest_equal =
  prop_equal_is_digest_equal "pricing_equal = digest equality"
    (gen_table_pair gen_pricing_row mutate_pricing_row)
    print_pricing Protocol.pricing_equal Protocol.pricing_digest

(* --- Digest writers vs the Printf reference ---

   [Protocol]'s digests write their bytes with a hand-written [%h] and
   integer writer; [Serialize_reference] keeps the [Printf] serializations
   they replaced. Every digest must be the SHA-256 of the reference bytes.
   Half the floats are raw 64-bit patterns, drawn by class where [%h] has
   a case of its own — any pattern, a subnormal, a NaN payload, an
   infinity, a zero, each with either sign — and half ordinary costs.
   Ids are mostly small, sometimes any int. *)

let gen_raw_float =
  let open QCheck.Gen in
  let* negative = bool
  and* kind = int_bound 4
  and* frac =
    map2 (fun hi lo -> (hi lsl 26) lor lo) (int_bound 0x3ff_ffff) (int_bound 0x3ff_ffff)
  and* any_exp = int_bound 0x7ff in
  let exp, frac =
    match kind with
    | 0 -> (any_exp, frac)
    | 1 -> (0, frac) (* subnormal *)
    | 2 -> (0x7ff, frac) (* NaN *)
    | 3 -> (0x7ff, 0) (* infinity *)
    | _ -> (0, 0)
  in
  let bits = Int64.(logor (shift_left (of_int exp) 52) (of_int frac)) in
  return (Int64.float_of_bits (if negative then Int64.logor Int64.min_int bits else bits))

let gen_cost =
  QCheck.Gen.(
    oneof
      [
        map float_of_int (int_bound 20);
        map (fun k -> float_of_int k /. 8.) (int_bound 160);
        float_bound_inclusive 50.;
      ])

let gen_any_float = QCheck.Gen.(frequency [ (1, gen_raw_float); (1, gen_cost) ])
let gen_id = QCheck.Gen.(frequency [ (4, int_bound 20); (1, int) ])
let gen_id_list = QCheck.Gen.(list_size (int_bound 4) gen_id)

let gen_any_routing : Protocol.routing_table QCheck.Gen.t =
  QCheck.Gen.(
    array_size (int_bound 6)
      (opt (map2 (fun cost path -> { Dijkstra.cost; path }) gen_any_float gen_id_list)))

let gen_any_pricing : Protocol.pricing_table QCheck.Gen.t =
  QCheck.Gen.(
    array_size (int_bound 6)
      (list_size (int_bound 3)
         (map3
            (fun transit price tags -> { Protocol.transit; price; tags })
            gen_id gen_any_float gen_id_list)))

let gen_inputs gen_table = QCheck.Gen.(list_size (int_bound 3) (pair gen_id gen_table))

let prop_digests_equal_printf_reference =
  let module R = Serialize_reference in
  let print (r, p, c, (ri, pi)) =
    String.concat "\n"
      [
        R.routing r;
        R.pricing p;
        R.costs c;
        R.inputs R.routing ri;
        R.inputs R.pricing pi;
      ]
  in
  QCheck.Test.make ~name:"digest writers = Printf reference bytes" ~count:1000
    (QCheck.make ~print
       QCheck.Gen.(
         quad gen_any_routing gen_any_pricing
           (array_size (int_bound 6) gen_any_float)
           (pair (gen_inputs gen_any_routing) (gen_inputs gen_any_pricing))))
    (fun (r, p, c, (ri, pi)) ->
      String.equal (Protocol.routing_digest r) (R.routing_digest r)
      && String.equal (Protocol.pricing_digest p) (R.pricing_digest p)
      && String.equal (Protocol.costs_digest c) (R.costs_digest c)
      && String.equal (Protocol.routing_inputs_digest ri) (R.routing_inputs_digest ri)
      && String.equal (Protocol.pricing_inputs_digest pi) (R.pricing_inputs_digest pi))

(* --- The memoizing sizer vs msg_size ---

   A random sequence of sends the way [Node] makes them: a table from a
   small pool of routing and pricing tables, resent as fresh messages to
   several neighbours, as updates or as relayed copies, with cost
   announcements and packets mixed in. The pools hold structurally equal
   tables under distinct identities too. At every step the sizer must
   agree with [msg_size]. *)

let gen_sends =
  let open QCheck.Gen in
  let* routing = array_size (1 -- 3) gen_any_routing
  and* pricing = array_size (1 -- 3) gen_any_pricing
  and* steps =
    list_size (int_bound 30)
      (quad (int_bound 3) small_nat (int_bound 3) (pair bool gen_id_list))
  in
  let routing = Array.append routing (Array.map Array.copy routing) in
  let pricing = Array.append pricing (Array.map Array.copy pricing) in
  return
    (List.concat_map
       (fun (kind, pick, times, (as_copy, trace)) ->
         List.init (1 + times) (fun via ->
             let wrap inner =
               if as_copy then Protocol.Copy { principal = 0; via; inner }
               else Protocol.Update inner
             in
             match kind with
             | 0 ->
                 let table = routing.(pick mod Array.length routing) in
                 wrap (Protocol.Routing_update { origin = via; table })
             | 1 ->
                 let table = pricing.(pick mod Array.length pricing) in
                 wrap (Protocol.Pricing_update { origin = via; table })
             | 2 -> wrap (Protocol.Cost_announce { origin = via; cost = 1. })
             | _ -> Protocol.Packet { src = 0; dst = via; rate = 1.; trace }))
       steps)

let prop_sizer_equals_msg_size =
  QCheck.Test.make ~name:"sizer = msg_size on every send" ~count:300
    (QCheck.make
       ~print:(fun msgs ->
         String.concat " " (List.map (fun m -> string_of_int (Protocol.msg_size m)) msgs))
       gen_sends)
    (fun msgs ->
      let size = Protocol.sizer () in
      List.for_all (fun m -> size m = Protocol.msg_size m) msgs)

(* --- Protocol handlers vs the full-sweep reference ---

   The per-node handlers run as one synchronous full sweep: each round
   every node recomputes its row from its neighbors' previous-round rows,
   and a node whose row changed announces it to every neighbor. That is
   the reference's schedule, so tables, rounds and messages must all
   equal [Fpss_reference.run_reference]'s, cold and warm. The reference
   carries no identity tags, so they are stripped before pricing rows
   are compared or checked for a change. *)

module Distributed = Damd_fpss.Distributed
module Reference = Fpss_reference

let strip_tags (row : Protocol.price_entry list) =
  List.map (fun pe -> (pe.Protocol.transit, pe.Protocol.price)) row

(* Synchronous rounds of [step] over [state] until no row changes, [same]
   telling unchanged rows apart. Returns the rounds up to the last change
   and the messages sent. *)
let sweep g ~step ~same state =
  let n = Graph.n g in
  let rounds = ref 0 and messages = ref 0 in
  let changed = ref (List.init n Fun.id) in
  while !changed <> [] do
    incr rounds;
    if !rounds > (10 * n) + 20 then failwith "protocol sweep did not converge";
    List.iter (fun i -> messages := !messages + Graph.degree g i) !changed;
    let next = Array.init n step in
    changed := List.filter (fun i -> not (same next.(i) state.(i))) (List.init n Fun.id);
    Array.blit next 0 state 0 n
  done;
  (max 0 (!rounds - 1), !messages)

let run_protocol_sweep ?warm_start g =
  let n = Graph.n g in
  let costs = Graph.costs g in
  let from_neighbors rows i = List.map (fun a -> (a, rows.(a))) (Graph.neighbors g i) in
  let routing =
    Array.init n (fun i ->
        let row =
          match warm_start with
          | Some t -> Array.copy t.Tables.routing.(i)
          | None -> Protocol.empty_routing ~n ~self:i
        in
        row.(i) <- Some { Dijkstra.cost = 0.; path = [ i ] };
        row)
  in
  let rounds_routing, routing_msgs =
    sweep g routing ~same:( = ) ~step:(fun i ->
        Protocol.recompute_routing ~self:i ~n ~costs
          ~neighbor_tables:(from_neighbors routing i))
  in
  let pricing =
    Array.init n (fun i ->
        match warm_start with
        | Some t ->
            Array.map
              (List.map (fun (transit, price) -> { Protocol.transit; price; tags = [] }))
              t.Tables.prices.(i)
        | None -> Protocol.empty_pricing ~n)
  in
  let rounds_pricing, pricing_msgs =
    sweep g pricing
      ~same:(fun a b -> Array.map strip_tags a = Array.map strip_tags b)
      ~step:(fun i ->
        Protocol.recompute_pricing ~self:i ~costs ~own_routing:routing.(i)
          ~neighbor_routing:(from_neighbors routing i)
          ~neighbor_pricing:(from_neighbors pricing i))
  in
  let rounds_flood, flood_msgs = Distributed.flood_costs g in
  {
    Distributed.tables =
      { Tables.routing; prices = Array.map (Array.map strip_tags) pricing };
    rounds_flood;
    rounds_routing;
    rounds_pricing;
    messages = flood_msgs + routing_msgs + pricing_msgs;
  }

let prop_protocol_sweep_equals_reference =
  QCheck.Test.make ~name:"protocol sweep = full-sweep reference (cold+warm)"
    ~count:40
    QCheck.(quad small_nat (float_bound_inclusive 1.) small_nat (int_bound 9))
    (fun (seed, p, who, new_cost) ->
      let g = Reference.random_graph (Rng.create (seed + 2700)) ~seed ~p in
      let same (a : Distributed.result) (b : Distributed.result) =
        a.Distributed.tables = b.Distributed.tables
        && a.Distributed.rounds_flood = b.Distributed.rounds_flood
        && a.Distributed.rounds_routing = b.Distributed.rounds_routing
        && a.Distributed.rounds_pricing = b.Distributed.rounds_pricing
        && a.Distributed.messages = b.Distributed.messages
      in
      let cold = Reference.run_reference g in
      let changed =
        Graph.with_cost g (who mod Graph.n g) (float_of_int (1 + new_cost))
      in
      let warm_start = cold.Distributed.tables in
      (* Warm starts need strictly positive costs: with a zero-cost
         node the reference's warm pricing can fail to converge at all. *)
      same (run_protocol_sweep g) cold
      && (Array.exists (fun c -> c = 0.) (Graph.costs g)
         || same
              (run_protocol_sweep ~warm_start changed)
              (Reference.run_reference ~warm_start changed)))

(* --- Node unit tests with captured sends --- *)

let line3_sets = [| [ 1 ]; [ 0; 2 ]; [ 1 ] |]

let capture () =
  let sent = ref [] in
  let send ~dst msg = sent := (dst, msg) :: !sent in
  (sent, send)

let test_node_announce_cost_faithful () =
  let node = Node.create ~id:1 ~n:3 ~neighbor_sets:line3_sets ~true_cost:7. ~deviation:Adversary.Faithful () in
  let sent, send = capture () in
  Node.announce_cost node send;
  check Alcotest.int "two announcements" 2 (List.length !sent);
  List.iter
    (fun (_, msg) ->
      match msg with
      | Protocol.Update (Protocol.Cost_announce { origin; cost }) ->
          check Alcotest.int "origin" 1 origin;
          checkf "truthful" 7. cost
      | _ -> Alcotest.fail "unexpected message")
    !sent

let test_node_announce_cost_misreport () =
  let node =
    Node.create ~id:1 ~n:3 ~neighbor_sets:line3_sets ~true_cost:7.
      ~deviation:(Adversary.Misreport_cost 2.) ()
  in
  let sent, send = capture () in
  Node.announce_cost node send;
  List.iter
    (fun (_, msg) ->
      match msg with
      | Protocol.Update (Protocol.Cost_announce { cost; _ }) -> checkf "lied" 2. cost
      | _ -> Alcotest.fail "unexpected message")
    !sent

let test_node_announce_cost_inconsistent () =
  let node =
    Node.create ~id:1 ~n:3 ~neighbor_sets:line3_sets ~true_cost:7.
      ~deviation:(Adversary.Inconsistent_cost (1., 9.)) ()
  in
  let sent, send = capture () in
  Node.announce_cost node send;
  let costs =
    List.filter_map
      (fun (_, msg) ->
        match msg with
        | Protocol.Update (Protocol.Cost_announce { cost; _ }) -> Some cost
        | _ -> None)
      !sent
    |> List.sort_uniq compare
  in
  check Alcotest.int "two distinct values" 2 (List.length costs)

let test_node_cost_flood_forwards_once () =
  let node = Node.create ~id:1 ~n:3 ~neighbor_sets:line3_sets ~true_cost:1. ~deviation:Adversary.Faithful () in
  let sent, send = capture () in
  Node.on_cost_msg node send ~sender:0 (Protocol.Cost_announce { origin = 0; cost = 4. });
  check Alcotest.int "forwarded to the other neighbor" 1 (List.length !sent);
  Node.on_cost_msg node send ~sender:2 (Protocol.Cost_announce { origin = 0; cost = 4. });
  check Alcotest.int "duplicate not re-flooded" 1 (List.length !sent)

let test_node_finalize_costs () =
  let node = Node.create ~id:1 ~n:3 ~neighbor_sets:line3_sets ~true_cost:1. ~deviation:Adversary.Faithful () in
  let _, send = capture () in
  Node.announce_cost node send;
  check Alcotest.bool "incomplete" false (Node.finalize_costs node);
  Node.on_cost_msg node send ~sender:0 (Protocol.Cost_announce { origin = 0; cost = 4. });
  Node.on_cost_msg node send ~sender:2 (Protocol.Cost_announce { origin = 2; cost = 5. });
  check Alcotest.bool "complete" true (Node.finalize_costs node);
  checkf "stored" 4. node.Node.costs.(0)

let test_node_routing_update_forwards_copies () =
  let node = Node.create ~id:1 ~n:3 ~neighbor_sets:line3_sets ~true_cost:1. ~deviation:Adversary.Faithful () in
  let _, send0 = capture () in
  Node.announce_cost node send0;
  Node.on_cost_msg node send0 ~sender:0 (Protocol.Cost_announce { origin = 0; cost = 4. });
  Node.on_cost_msg node send0 ~sender:2 (Protocol.Cost_announce { origin = 2; cost = 5. });
  ignore (Node.finalize_costs node);
  let sent, send = capture () in
  let table0 = Protocol.empty_routing ~n:3 ~self:0 in
  Node.on_routing_msg node send ~sender:0
    (Protocol.Update (Protocol.Routing_update { origin = 0; table = table0 }));
  (* One copy to checker 2 (not back to 0), plus announcements of the
     updated table to both neighbors. *)
  let copies =
    List.filter (fun (_, m) -> match m with Protocol.Copy _ -> true | _ -> false) !sent
  in
  check Alcotest.int "one copy" 1 (List.length copies);
  (match copies with
  | [ (dst, Protocol.Copy { principal; via; _ }) ] ->
      check Alcotest.int "to the other checker" 2 dst;
      check Alcotest.int "principal" 1 principal;
      check Alcotest.int "via" 0 via
  | _ -> Alcotest.fail "copy shape");
  check Alcotest.bool "routing learned" true (node.Node.routing.(0) <> None)

let test_node_drop_copies_deviation () =
  let node =
    Node.create ~id:1 ~n:3 ~neighbor_sets:line3_sets ~true_cost:1.
      ~deviation:Adversary.Drop_routing_copies ()
  in
  node.Node.costs <- [| 4.; 1.; 5. |];
  let sent, send = capture () in
  let table0 = Protocol.empty_routing ~n:3 ~self:0 in
  Node.on_routing_msg node send ~sender:0
    (Protocol.Update (Protocol.Routing_update { origin = 0; table = table0 }));
  let copies =
    List.filter (fun (_, m) -> match m with Protocol.Copy _ -> true | _ -> false) !sent
  in
  check Alcotest.int "no copies" 0 (List.length copies)

let test_node_checker_rejects_bad_via () =
  let node = Node.create ~id:1 ~n:3 ~neighbor_sets:line3_sets ~true_cost:1. ~deviation:Adversary.Faithful () in
  let _, send = capture () in
  (* A copy claiming provenance from node 1's own id... node 0's neighbors
     are just [1], so via=2 is not a checker of 0. *)
  Node.on_routing_msg node send ~sender:0
    (Protocol.Copy
       {
         principal = 0;
         via = 2;
         inner = Protocol.Routing_update { origin = 2; table = Protocol.empty_routing ~n:3 ~self:2 };
       });
  check Alcotest.bool "flagged" true
    (List.exists (fun (rule, _) -> rule = "CHECK2") node.Node.check_flags)

(* --- Row-granular intake = full recompute ---

   An update from a neighbour heard before recomputes only the rows its
   new table changed. One node on a random graph takes a random script of
   routing, then pricing, updates, and after every one its table must
   equal the full recompute of everything it has heard. The updates are
   its neighbours' tables from the rounds of a synchronous sweep (nearby
   rounds differ in a few rows, distant ones in many), some passed
   through the stage's [distort]; senders repeat and arrive for the first
   time in any order. *)

(* The per-node tables of [rounds] synchronous rounds of [step] after
   [init], [init] first. *)
let sweep_rounds ~rounds init step =
  let states = Array.make (rounds + 1) init in
  for r = 1 to rounds do
    states.(r) <- Array.init (Array.length init) (step states.(r - 1))
  done;
  states

let drive_intake st node nbrs rounds script =
  let _, send = capture () in
  List.for_all
    (fun (who, round, delta) ->
      let sender = nbrs.(who mod Array.length nbrs) in
      let table = rounds.(round mod Array.length rounds).(sender) in
      let table =
        match delta with None -> table | Some d -> st.Node.distort (float_of_int d) table
      in
      Node.on_msg st node send ~sender (Protocol.Update (st.Node.wrap ~origin:sender table));
      st.Node.equal (st.Node.get node) (st.Node.recompute node))
    script

let intake_script =
  QCheck.(list_of_size Gen.(1 -- 15) (triple small_nat small_nat (option (int_range (-2) 2))))

let prop_node_intake_equals_recompute =
  QCheck.Test.make ~name:"row-granular intake = full recompute" ~count:100
    QCheck.(quad small_nat (float_bound_inclusive 1.) small_nat (pair intake_script intake_script))
    (fun (seed, p, who, (routing_script, pricing_script)) ->
      let g = Fpss_reference.random_graph (Rng.create (seed + 2800)) ~seed ~p in
      let n = Graph.n g in
      let id = who mod n in
      let nbrs = Array.of_list (Graph.neighbors g id) in
      let costs = Graph.costs g in
      let from_nbrs tables i = List.map (fun a -> (a, tables.(a))) (Graph.neighbors g i) in
      let rounds = n + 2 in
      let routing =
        sweep_rounds ~rounds
          (Array.init n (fun i -> Protocol.empty_routing ~n ~self:i))
          (fun prev i ->
            Protocol.recompute_routing ~self:i ~n ~costs ~neighbor_tables:(from_nbrs prev i))
      in
      let final = routing.(rounds) in
      let pricing =
        sweep_rounds ~rounds (Array.make n (Protocol.empty_pricing ~n)) (fun prev i ->
            Protocol.recompute_pricing ~self:i ~costs ~own_routing:final.(i)
              ~neighbor_routing:(from_nbrs final i) ~neighbor_pricing:(from_nbrs prev i))
      in
      let node =
        Node.create ~id ~n ~neighbor_sets:(Array.init n (Graph.neighbors g))
          ~true_cost:costs.(id) ~deviation:Adversary.Faithful ()
      in
      node.Node.costs <- costs;
      let _, send = capture () in
      Array.length nbrs = 0
      || begin
           Node.start_routing node send;
           let routing_ok = drive_intake Node.routing_stage node nbrs routing routing_script in
           Node.start_pricing node send;
           routing_ok && drive_intake Node.pricing_stage node nbrs pricing pricing_script
         end)

let test_node_payment_report () =
  let node = Node.create ~id:0 ~n:3 ~neighbor_sets:line3_sets ~true_cost:1. ~deviation:Adversary.Faithful () in
  node.Node.pricing.(2) <- [ { Protocol.transit = 1; price = 3.; tags = [] } ];
  let traffic = Array.make_matrix 3 3 0. in
  traffic.(0).(2) <- 2.;
  check
    (Alcotest.list (Alcotest.pair Alcotest.int (Alcotest.float 1e-9)))
    "owes transit" [ (1, 6.) ]
    (Node.payment_report node traffic)

let test_node_payment_report_underreports () =
  let node =
    Node.create ~id:0 ~n:3 ~neighbor_sets:line3_sets ~true_cost:1.
      ~deviation:(Adversary.Underreport_payments 0.25) ()
  in
  node.Node.pricing.(2) <- [ { Protocol.transit = 1; price = 4.; tags = [] } ];
  let traffic = Array.make_matrix 3 3 0. in
  traffic.(0).(2) <- 1.;
  check
    (Alcotest.list (Alcotest.pair Alcotest.int (Alcotest.float 1e-9)))
    "scaled" [ (1, 1.) ]
    (Node.payment_report node traffic)

(* --- Bank --- *)

let test_bank_serialize_report_canonical () =
  check Alcotest.string "sorted" (Bank.serialize_report [ (2, 1.); (1, 3.) ])
    (Bank.serialize_report [ (1, 3.); (2, 1.) ])

let test_bank_checkpoint_costs () =
  let mk dev =
    Node.create ~id:0 ~n:2 ~neighbor_sets:[| [ 1 ]; [ 0 ] |] ~true_cost:1. ~deviation:dev ()
  in
  let a = mk Adversary.Faithful and b = mk Adversary.Faithful in
  a.Node.costs <- [| 1.; 2. |];
  b.Node.costs <- [| 1.; 2. |];
  check Alcotest.int "consistent" 0 (List.length (Bank.checkpoint_costs [| a; b |]));
  b.Node.costs <- [| 1.; 3. |];
  check Alcotest.int "inconsistent" 1 (List.length (Bank.checkpoint_costs [| a; b |]))

let test_bank_checkpoint_bytes_positive () =
  let g, _ = Lazy.force fig1 in
  let sets = Array.init 6 (Graph.neighbors g) in
  let nodes =
    Array.init 6 (fun id ->
        Node.create ~id ~n:6 ~neighbor_sets:sets ~true_cost:1. ~deviation:Adversary.Faithful ())
  in
  check Alcotest.bool "bytes > 0" true (Bank.checkpoint_bytes nodes > 0)

(* --- Bank.checkpoint vs the one-digest-per-query reference ---

   [Bank.checkpoint] hashes each distinct table once per call;
   [Bank_reference] keeps the bodies that hashed once per query and
   computed the principal's own inputs digest up front. On a random small
   graph with up to two deviants (announce and copy distortion,
   withholding, spoofing, shielding checkers, Byzantine plans) and a
   seeded tap that may drop routing and pricing updates and copies, both
   must report the same detections (rule, culprit and detail, in order)
   at the routing and the pricing checkpoint, in both evidence modes.
   After each checkpoint one principal's own table is replaced by a
   distorted copy and the bank is asked again, so checkers' mirrors
   disagree with it on matching inputs: a branch the fault campaigns
   do not reach. *)

let construction_deviation rng n =
  Rng.choose rng
    (Adversary.Byzantine_arbitrary (Int64.to_int (Rng.bits64 rng))
    :: Adversary.Collude_with (Rng.int rng n)
    :: List.filter Adversary.is_construction Adversary.library)

let same_detections =
  List.equal (fun (x : Bank.detection) (y : Bank.detection) ->
      String.equal x.Bank.rule y.Bank.rule
      && Option.equal Int.equal x.Bank.culprit y.Bank.culprit
      && String.equal x.Bank.detail y.Bank.detail)

let checkpoints_agree c st =
  List.for_all
    (fun fault_tolerant ->
      same_detections
        (Bank.checkpoint ~fault_tolerant st c.nodes)
        (Bank_reference.checkpoint ~fault_tolerant st c.nodes))
    [ false; true ]

let prop_checkpoint_equals_reference =
  QCheck.Test.make ~name:"checkpoint = one-digest-per-query reference" ~count:100
    QCheck.(triple small_nat (float_bound_inclusive 1.) int)
    (fun (seed, p, tap_seed) ->
      let rng = Rng.create (seed + 3300) in
      let g = Fpss_reference.random_graph rng ~seed ~p in
      let n = Graph.n g in
      let deviations = Array.make n Adversary.Faithful in
      List.iter
        (fun v -> deviations.(v) <- construction_deviation rng n)
        (Rng.subset rng (Rng.int_in rng 0 2) n);
      let drop = Rng.choose rng [ 0.; 0.02; 0.1 ] in
      let tap_rng = Rng.create tap_seed in
      let keep = function
        | Protocol.Update (Protocol.Cost_announce _) | Protocol.Packet _ -> true
        | Protocol.Update _ | Protocol.Copy _ -> not (Rng.bernoulli tap_rng drop)
      in
      let c = build ~tap:keep g deviations in
      let table st =
        drive c st;
        let agree = checkpoints_agree c st in
        let node = c.nodes.(Rng.int rng n) in
        st.Node.set node (st.Node.distort 1. (st.Node.get node));
        agree && checkpoints_agree c st
      in
      table Node.routing_stage && table Node.pricing_stage)

(* --- End-to-end: faithful runs --- *)

let faithful_run =
  lazy
    (let g, _ = Lazy.force fig1 in
     Runner.run_faithful ~graph:g ~traffic:fig1_traffic ())

let test_run_faithful_completes () =
  let r = Lazy.force faithful_run in
  check Alcotest.bool "completed" true r.Runner.completed;
  check Alcotest.int "no restarts" 0 r.Runner.restarts;
  check Alcotest.int "no detections" 0 (List.length r.Runner.detections)

let test_run_faithful_matches_centralized () =
  let g, _ = Lazy.force fig1 in
  let r = Lazy.force faithful_run in
  match r.Runner.tables with
  | None -> Alcotest.fail "no tables"
  | Some t ->
      let c = Pricing.compute g in
      check Alcotest.bool "routing" true (Tables.routing_equal t c);
      check Alcotest.bool "prices" true (Tables.prices_equal t c)

let test_run_faithful_matches_centralized_random () =
  let rng = Rng.create 701 in
  for _ = 1 to 3 do
    let g = Gen.chordal_ring rng ~n:8 ~chords:3 (Gen.Uniform_int (1, 8)) in
    let traffic = Traffic.uniform ~n:8 ~rate:1. in
    let r = Runner.run_faithful ~graph:g ~traffic () in
    check Alcotest.bool "completed" true r.Runner.completed;
    match r.Runner.tables with
    | None -> Alcotest.fail "no tables"
    | Some t ->
        let c = Pricing.compute g in
        check Alcotest.bool "routing" true (Tables.routing_equal t c);
        check Alcotest.bool "prices" true (Tables.prices_equal t c)
  done

let test_run_deterministic () =
  let g = Lazy.force ring5 in
  let traffic = Traffic.uniform ~n:5 ~rate:1. in
  let a = Runner.run_faithful ~graph:g ~traffic () in
  let b = Runner.run_faithful ~graph:g ~traffic () in
  check (Alcotest.array (Alcotest.float 0.)) "same utilities" a.Runner.utilities
    b.Runner.utilities;
  check Alcotest.int "same messages" a.Runner.construction_messages
    b.Runner.construction_messages

let test_run_all_traffic_delivered () =
  let r = Lazy.force faithful_run in
  (* uniform rate 1: each of the 6 sources delivers to 5 destinations *)
  ignore r;
  let g, _ = Lazy.force fig1 in
  let r = Runner.run_faithful ~graph:g ~traffic:fig1_traffic () in
  check Alcotest.bool "exec messages" true (r.Runner.execution_messages > 0)

let test_run_money_conserved_faithful () =
  (* With everyone faithful, transfers net to zero, so total utility =
     total delivered value minus total true transit cost. *)
  let g = Lazy.force ring5 in
  let traffic = Traffic.uniform ~n:5 ~rate:1. in
  let r = Runner.run_faithful ~graph:g ~traffic () in
  let total_u = Array.fold_left ( +. ) 0. r.Runner.utilities in
  (* every pair delivered: 20 flows of rate 1 at value 50 *)
  let delivered_value = 50. *. 20. in
  let tables = Option.get r.Runner.tables in
  let true_cost =
    Array.to_list (Array.init 5 (fun k -> Graph.cost g k *. Tables.transit_load tables traffic k))
    |> List.fold_left ( +. ) 0.
  in
  checkf "accounting identity" (delivered_value -. true_cost) total_u

(* --- Detection matrix (Figure 2 / §4.3) --- *)

let run_with_deviant g traffic node deviation =
  let deviations = Array.make (Graph.n g) Adversary.Faithful in
  deviations.(node) <- deviation;
  Runner.run ~graph:g ~traffic ~deviations ()

let test_every_detectable_construction_deviation_caught () =
  (* A deviation must be caught whenever it has any effect; a deviation
     that loses every first-arrival race (possible for the cost-forward
     corruption on a dense graph) is indistinguishable from faithful play
     and legitimately passes. *)
  let g, _ = Lazy.force fig1 in
  let faithful = Lazy.force faithful_run in
  List.iter
    (fun d ->
      if Adversary.detectable d && Adversary.is_construction d then begin
        let r = run_with_deviant g fig1_traffic 2 d in
        if r.Runner.completed then begin
          let no_effect =
            match (r.Runner.tables, faithful.Runner.tables) with
            | Some a, Some b -> Tables.routing_equal a b && Tables.prices_equal a b
            | _ -> false
          in
          if not no_effect then
            Alcotest.failf "%s escaped the construction checkpoints" (Adversary.name d)
        end
        else
          check Alcotest.bool
            (Adversary.name d ^ " produced detections")
            true
            (r.Runner.detections <> [])
      end)
    Adversary.library

let test_corrupt_cost_forward_caught_on_ring () =
  (* On a sparse ring the corrupter sits on the unique fast propagation
     path for half the nodes, so the corrupted facts land and the DATA1
     certificate must fire. *)
  let g = Gen.ring ~n:8 ~costs:(Array.make 8 2.) in
  let traffic = Traffic.uniform ~n:8 ~rate:1. in
  let r = run_with_deviant g traffic 1 (Adversary.Corrupt_cost_forward 3.) in
  check Alcotest.bool "not completed" false r.Runner.completed;
  check Alcotest.bool "DATA1 fired" true
    (List.exists (fun det -> det.Bank.rule = "DATA1") r.Runner.detections)

let test_every_execution_deviation_caught () =
  let g, _ = Lazy.force fig1 in
  List.iter
    (fun d ->
      if Adversary.is_execution d then begin
        let r = run_with_deviant g fig1_traffic 2 d in
        check Alcotest.bool (Adversary.name d ^ " completed construction") true
          r.Runner.completed;
        check Alcotest.bool
          (Adversary.name d ^ " flagged by EXEC audit")
          true
          (List.exists (fun det -> det.Bank.rule = "EXEC") r.Runner.detections)
      end)
    Adversary.library

let test_misreport_not_detected () =
  (* A consistent misreport is information revelation, not a protocol
     violation: the run completes cleanly (VCG handles the incentive). *)
  let g, _ = Lazy.force fig1 in
  let r = run_with_deviant g fig1_traffic 2 (Adversary.Misreport_cost 5.) in
  check Alcotest.bool "completed" true r.Runner.completed;
  check Alcotest.int "no detections" 0 (List.length r.Runner.detections)

let test_detection_attributes_culprit () =
  let g, _ = Lazy.force fig1 in
  let r = run_with_deviant g fig1_traffic 3 (Adversary.Miscompute_routing 2.) in
  check Alcotest.bool "culprit identified" true
    (List.exists
       (fun det -> det.Bank.rule = "BANK1" && det.Bank.culprit = Some 3)
       r.Runner.detections)

let test_deviant_checker_detected () =
  (* A node deviating in its checker role (corrupting copies) is also
     caught — the restart hits everyone, so checking stays incentive-
     compatible by the partitioning argument. *)
  let g, _ = Lazy.force fig1 in
  let r = run_with_deviant g fig1_traffic 5 (Adversary.Corrupt_routing_copies 1.) in
  check Alcotest.bool "not completed" false r.Runner.completed

(* --- Theorem 1: no profitable deviation with checking on --- *)

let test_no_profitable_deviation_fig1 () =
  let g, _ = Lazy.force fig1 in
  List.iter
    (fun d ->
      List.iter
        (fun node ->
          let gain =
            Runner.utility_gain ~graph:g ~traffic:fig1_traffic ~node ~deviation:d ()
          in
          if gain > 1e-6 then
            Alcotest.failf "node %d profits %g from %s" node gain (Adversary.name d))
        [ 0; 2; 3 ])
    Adversary.library

let test_no_profitable_deviation_ring () =
  let g = Lazy.force ring5 in
  let traffic = Traffic.uniform ~n:5 ~rate:1. in
  List.iter
    (fun d ->
      let gain = Runner.utility_gain ~graph:g ~traffic ~node:1 ~deviation:d () in
      if gain > 1e-6 then
        Alcotest.failf "node 1 profits %g from %s" gain (Adversary.name d))
    Adversary.library

(* --- The ablation: disable checking and manipulation pays --- *)

let unchecked = { Runner.default_params with Runner.checking = false }

let test_unchecked_underreporting_profits () =
  let g, _ = Lazy.force fig1 in
  let gain =
    Runner.utility_gain ~params:unchecked ~graph:g ~traffic:fig1_traffic ~node:4
      ~deviation:(Adversary.Underreport_payments 0.) ()
  in
  check Alcotest.bool "free riding pays when unchecked" true (gain > 0.)

let test_unchecked_some_construction_deviation_profits () =
  let g, _ = Lazy.force fig1 in
  let best =
    List.fold_left
      (fun best d ->
        List.fold_left
          (fun best node ->
            let gain =
              Runner.utility_gain ~params:unchecked ~graph:g ~traffic:fig1_traffic
                ~node ~deviation:d ()
            in
            Float.max best gain)
          best [ 0; 1; 2; 3; 4; 5 ])
      neg_infinity Adversary.library
  in
  check Alcotest.bool "a profitable manipulation exists unchecked" true (best > 1e-6)

(* --- Analysis: the executable Theorem 1 --- *)

let test_analysis_ex_post_nash_holds () =
  let g, _ = Lazy.force fig1 in
  let rng = Rng.create 702 in
  let report =
    Analysis.ex_post_nash_report ~rng ~profiles:2 ~base:g ~traffic:fig1_traffic ()
  in
  if not (Equilibrium.holds report) then
    Alcotest.failf "ex post Nash violated, max gain %g" report.Equilibrium.max_gain

let test_analysis_evidence_certifies () =
  let g, _ = Lazy.force fig1 in
  let rng = Rng.create 703 in
  let evidence = Analysis.evidence ~rng ~profiles:2 ~base:g ~traffic:fig1_traffic () in
  let verdict = Faithfulness.certify evidence in
  if not verdict.Faithfulness.faithful then
    Alcotest.failf "not faithful: %s" (String.concat "; " verdict.Faithfulness.failures)

let test_analysis_unchecked_not_faithful () =
  let g, _ = Lazy.force fig1 in
  let rng = Rng.create 704 in
  let report =
    Analysis.ex_post_nash_report ~params:unchecked ~rng ~profiles:2 ~base:g
      ~traffic:fig1_traffic ()
  in
  check Alcotest.bool "unchecked spec is not an equilibrium" false
    (Equilibrium.holds report)

(* --- Extensions: collusion, omission faults, ablations, asynchrony --- *)

let test_lying_checker_alone_harmless () =
  (* A lying checker with a faithful principal echoes a truthful digest:
     nothing changes, nothing is (or should be) detected. *)
  let g, _ = Lazy.force fig1 in
  let r = run_with_deviant g fig1_traffic 5 Adversary.Lying_checker in
  check Alcotest.bool "completed" true r.Runner.completed;
  check Alcotest.int "no detections" 0 (List.length r.Runner.detections)

let test_partial_collusion_still_caught () =
  (* C deviates; one of its two checkers (D) colludes; the other (Z) is
     honest and still catches it — "there is always at least one checker". *)
  let g, _ = Lazy.force fig1 in
  let c = 2 and d = 3 in
  let deviations = Array.make 6 Adversary.Faithful in
  deviations.(c) <- Adversary.Miscompute_routing 2.;
  deviations.(d) <- Adversary.Collude_with c;
  let r = Runner.run ~graph:g ~traffic:fig1_traffic ~deviations () in
  check Alcotest.bool "still caught" false r.Runner.completed;
  check Alcotest.bool "BANK1 fired" true
    (List.exists (fun det -> det.Bank.rule = "BANK1" && det.Bank.culprit = Some c)
       r.Runner.detections)

let test_full_neighborhood_collusion_escapes () =
  (* Both of C's checkers collude: the deviation certifies — the exact
     boundary of the paper's no-collusion assumption. *)
  let g, _ = Lazy.force fig1 in
  let c = 2 in
  let deviations = Array.make 6 Adversary.Faithful in
  deviations.(c) <- Adversary.Miscompute_routing 2.;
  List.iter
    (fun nb -> deviations.(nb) <- Adversary.Collude_with c)
    (Graph.neighbors g c);
  let r = Runner.run ~graph:g ~traffic:fig1_traffic ~deviations () in
  check Alcotest.bool "escapes" true r.Runner.completed

let test_detectable_in_partial_coalition () =
  (* Topology-aware prediction matching test_partial_collusion_still_caught:
     one honest checker remains, so C is still detectable — and the
     colluder shares its principal's verdict. *)
  let g, _ = Lazy.force fig1 in
  let c = 2 in
  let profile = Array.make 6 Adversary.Faithful in
  profile.(c) <- Adversary.Miscompute_routing 2.;
  profile.(3) <- Adversary.Collude_with c;
  let neighbors = Graph.neighbors g in
  check Alcotest.bool "principal detectable" true
    (Adversary.detectable_in ~neighbors ~profile c);
  check Alcotest.bool "colluder shares verdict" true
    (Adversary.detectable_in ~neighbors ~profile 3)

let test_detectable_in_covering_coalition () =
  (* Every neighbor of C colludes: no honest checker remains, so the
     checker-mediated deviation is predicted to escape — matching
     test_full_neighborhood_collusion_escapes. A deviation the bank
     catches globally (DATA1) stays detectable regardless. *)
  let g, _ = Lazy.force fig1 in
  let c = 2 in
  let profile = Array.make 6 Adversary.Faithful in
  profile.(c) <- Adversary.Miscompute_routing 2.;
  List.iter (fun nb -> profile.(nb) <- Adversary.Collude_with c) (Graph.neighbors g c);
  let neighbors = Graph.neighbors g in
  check Alcotest.bool "covered principal escapes" false
    (Adversary.detectable_in ~neighbors ~profile c);
  check Alcotest.bool "colluders escape with it" false
    (Adversary.detectable_in ~neighbors ~profile (List.hd (Graph.neighbors g c)));
  profile.(c) <- Adversary.Inconsistent_cost (1., 8.);
  check Alcotest.bool "DATA1-caught deviation immune to coalition" true
    (Adversary.detectable_in ~neighbors ~profile c)

let test_detectable_in_shielded_silence () =
  (* Silence reaches the bank only as checker evidence (no announcement
     seen, mirrors that disagree), so lying checkers covering the silent
     node's neighbourhood shield it: the run certifies wrong tables with
     no detection, and [detectable_in] must predict that escape. *)
  let costs = Gen.draw_costs (Rng.create 3) (Gen.Uniform_int (1, 8)) 9 in
  let g = Gen.grid ~rows:3 ~cols:3 ~costs in
  let profile = Array.make 9 Adversary.Faithful in
  profile.(0) <- Adversary.Silent_in_construction;
  profile.(1) <- Adversary.Lying_checker;
  profile.(3) <- Adversary.Lying_checker;
  check (Alcotest.list Alcotest.int) "the corner's neighbourhood" [ 1; 3 ]
    (List.sort Int.compare (Graph.neighbors g 0));
  check Alcotest.bool "shielded silence escapes" false
    (Adversary.detectable_in ~neighbors:(Graph.neighbors g) ~profile 0);
  let r =
    Runner.run ~graph:g ~traffic:(Traffic.uniform ~n:9 ~rate:1.) ~deviations:profile ()
  in
  check Alcotest.bool "certified" true r.Runner.completed;
  check Alcotest.int "no detection" 0 (List.length r.Runner.detections);
  match r.Runner.tables with
  | None -> Alcotest.fail "no tables"
  | Some t ->
      let c = Pricing.compute g in
      check Alcotest.bool "certified tables are wrong" false
        (Tables.routing_equal t c && Tables.prices_equal t c)

let test_channel_loss_false_positives () =
  (* Heavy omission faults against all-faithful nodes: the §5 caveat —
     the machinery falsely detects and the mechanism stalls. *)
  let g, _ = Lazy.force fig1 in
  let params = { Runner.default_params with Runner.channel_loss = Some (0.25, 3) } in
  let r = Runner.run_faithful ~params ~graph:g ~traffic:fig1_traffic () in
  check Alcotest.bool "stalls under loss" false r.Runner.completed

let test_zero_channel_loss_is_clean () =
  let g, _ = Lazy.force fig1 in
  let params = { Runner.default_params with Runner.channel_loss = Some (0., 3) } in
  let r = Runner.run_faithful ~params ~graph:g ~traffic:fig1_traffic () in
  check Alcotest.bool "completed" true r.Runner.completed;
  check Alcotest.int "no detections" 0 (List.length r.Runner.detections)

let test_no_copies_mode_cheaper () =
  (* The plain-FPSS baseline (no checker copies) moves strictly fewer
     bytes than the faithful construction. *)
  let g, _ = Lazy.force fig1 in
  let plain_params =
    { Runner.default_params with Runner.checking = false; copies = false }
  in
  let plain = Runner.run_faithful ~params:plain_params ~graph:g ~traffic:fig1_traffic () in
  let faithful = Lazy.force faithful_run in
  check Alcotest.bool "plain completes" true plain.Runner.completed;
  check Alcotest.bool "cheaper" true
    (plain.Runner.construction_bytes < faithful.Runner.construction_bytes);
  (* and it still converges to the right tables *)
  match plain.Runner.tables with
  | Some t ->
      let c = Pricing.compute g in
      check Alcotest.bool "tables right" true
        (Tables.routing_equal t c && Tables.prices_equal t c)
  | None -> Alcotest.fail "no tables"

let test_deferred_certification_catches_late () =
  let g, _ = Lazy.force fig1 in
  let params = { Runner.default_params with Runner.deferred_certification = true } in
  let deviations = Array.make 6 Adversary.Faithful in
  deviations.(2) <- Adversary.Inconsistent_cost (1., 8.);
  let r = Runner.run ~params ~graph:g ~traffic:fig1_traffic ~deviations () in
  check Alcotest.bool "still caught" false r.Runner.completed;
  check (Alcotest.option Alcotest.string) "at the final certificate"
    (Some "deferred-certification") r.Runner.stuck_phase

let test_deferred_certification_faithful_clean () =
  let g, _ = Lazy.force fig1 in
  let params = { Runner.default_params with Runner.deferred_certification = true } in
  let r = Runner.run_faithful ~params ~graph:g ~traffic:fig1_traffic () in
  check Alcotest.bool "completed" true r.Runner.completed

let test_heterogeneous_latency_agrees () =
  let g = Lazy.force ring5 in
  let traffic = Traffic.uniform ~n:5 ~rate:1. in
  let c = Pricing.compute g in
  List.iter
    (fun seed ->
      let params = { Runner.default_params with Runner.latency_seed = Some seed } in
      let r = Runner.run_faithful ~params ~graph:g ~traffic () in
      check Alcotest.bool "completed" true r.Runner.completed;
      match r.Runner.tables with
      | Some t ->
          check Alcotest.bool "tables match" true
            (Tables.routing_equal t c && Tables.prices_equal t c)
      | None -> Alcotest.fail "no tables")
    [ 1; 2; 3 ]

let test_heterogeneous_latency_still_detects () =
  let g = Lazy.force ring5 in
  let traffic = Traffic.uniform ~n:5 ~rate:1. in
  let params = { Runner.default_params with Runner.latency_seed = Some 9 } in
  let deviations = Array.make 5 Adversary.Faithful in
  deviations.(2) <- Adversary.Miscompute_pricing 2.;
  let r = Runner.run ~params ~graph:g ~traffic ~deviations () in
  check Alcotest.bool "caught" false r.Runner.completed

(* --- Replication baseline --- *)

let test_replication_correct_and_complete () =
  let g, _ = Lazy.force fig1 in
  let r = Damd_faithful.Replication.run g in
  check Alcotest.bool "tables match" true r.Damd_faithful.Replication.tables_match;
  check Alcotest.bool "mirrors complete" true r.Damd_faithful.Replication.mirrors_complete

let test_replication_costs_more_than_faithful () =
  let rng = Rng.create 801 in
  let g = Gen.chordal_ring rng ~n:10 ~chords:3 (Gen.Uniform_int (1, 8)) in
  let traffic = Traffic.uniform ~n:10 ~rate:1. in
  let faithful = Runner.run_faithful ~graph:g ~traffic () in
  let repl = Damd_faithful.Replication.run g in
  check Alcotest.bool "replication heavier" true
    (repl.Damd_faithful.Replication.bytes > faithful.Runner.construction_bytes)

(* --- Broader integration properties --- *)

let test_faithful_under_hotspot_traffic () =
  (* The faithfulness machinery is traffic-model agnostic: a hotspot
     matrix changes payments, not detection. *)
  let rng = Rng.create 802 in
  let g = Gen.chordal_ring rng ~n:8 ~chords:2 (Gen.Uniform_int (1, 8)) in
  let traffic = Traffic.hotspot rng ~n:8 ~hotspots:2 ~rate:2. in
  let r = Runner.run_faithful ~graph:g ~traffic () in
  check Alcotest.bool "completed" true r.Runner.completed;
  let deviations = Array.make 8 Adversary.Faithful in
  deviations.(1) <- Adversary.Underreport_payments 0.1;
  let dr = Runner.run ~graph:g ~traffic ~deviations () in
  check Alcotest.bool "fraud caught under hotspot traffic" true
    (List.exists (fun det -> det.Bank.rule = "EXEC") dr.Runner.detections)

let test_zero_traffic_execution_trivial () =
  let g, _ = Lazy.force fig1 in
  let traffic = Array.make_matrix 6 6 0. in
  let r = Runner.run_faithful ~graph:g ~traffic () in
  check Alcotest.bool "completed" true r.Runner.completed;
  check Alcotest.int "no packets" 0 r.Runner.execution_messages;
  Array.iter (fun u -> checkf "all utilities zero" 0. u) r.Runner.utilities

let test_triangle_minimal_biconnected () =
  (* The smallest graph with a transit node: a triangle. *)
  let g = Graph.create ~n:3 ~costs:[| 2.; 3.; 4. |] ~edges:[ (0, 1); (1, 2); (0, 2) ] in
  let traffic = Traffic.uniform ~n:3 ~rate:1. in
  let r = Runner.run_faithful ~graph:g ~traffic () in
  check Alcotest.bool "completed" true r.Runner.completed;
  match r.Runner.tables with
  | Some t ->
      let c = Pricing.compute g in
      check Alcotest.bool "tables" true
        (Tables.routing_equal t c && Tables.prices_equal t c)
  | None -> Alcotest.fail "no tables"

let test_zero_cost_nodes () =
  (* Free-transit nodes exercise the zero-cost corner of the pricing
     recurrence. *)
  let g = Gen.ring ~n:6 ~costs:[| 0.; 1.; 0.; 2.; 0.; 3. |] in
  let traffic = Traffic.uniform ~n:6 ~rate:1. in
  let r = Runner.run_faithful ~graph:g ~traffic () in
  check Alcotest.bool "completed" true r.Runner.completed;
  match r.Runner.tables with
  | Some t ->
      let c = Pricing.compute g in
      check Alcotest.bool "tables" true
        (Tables.routing_equal t c && Tables.prices_equal t c)
  | None -> Alcotest.fail "no tables"

let prop_faithful_random_graphs =
  QCheck.Test.make ~name:"faithful run certifies and matches on random graphs" ~count:50
    QCheck.(pair small_nat (float_bound_inclusive 1.))
    (fun (seed, p) ->
      let rng = Rng.create (seed + 900) in
      let n = 5 + (seed mod 6) in
      let p = 0.3 +. (p *. 0.4) in
      let g = Gen.erdos_renyi rng ~n ~p (Gen.Uniform_int (1, 9)) in
      let traffic = Traffic.uniform ~n ~rate:1. in
      let r = Runner.run_faithful ~graph:g ~traffic () in
      r.Runner.completed
      &&
      match r.Runner.tables with
      | Some t ->
          let c = Pricing.compute g in
          Tables.routing_equal t c && Tables.prices_equal t c
      | None -> false)

let prop_detection_random_graphs =
  QCheck.Test.make ~name:"random deviant on random graph: caught or no effect" ~count:10
    QCheck.(triple small_nat small_nat small_nat)
    (fun (seed, who, which) ->
      let rng = Rng.create (seed + 950) in
      let n = 6 in
      let g = Gen.erdos_renyi rng ~n ~p:0.5 (Gen.Uniform_int (1, 9)) in
      let traffic = Traffic.uniform ~n ~rate:1. in
      let construction_lib =
        List.filter
          (fun d -> Adversary.detectable d && Adversary.is_construction d)
          Adversary.library
      in
      let d = List.nth construction_lib (which mod List.length construction_lib) in
      let who = who mod n in
      let deviations = Array.make n Adversary.Faithful in
      deviations.(who) <- d;
      let r = Runner.run ~graph:g ~traffic ~deviations () in
      if not r.Runner.completed then true
      else
        let faithful = Runner.run_faithful ~graph:g ~traffic () in
        match (r.Runner.tables, faithful.Runner.tables) with
        | Some a, Some b -> Tables.routing_equal a b && Tables.prices_equal a b
        | _ -> false)

(* --- Penalty arithmetic, exactly --- *)

let test_underreport_penalty_is_delta_plus_epsilon () =
  (* The fine is "epsilon-above the attempted deviation": reporting half
     the owed total costs exactly (0.5 * owed) + epsilon relative to
     faithful play, everything else unchanged. *)
  let g, _ = Lazy.force fig1 in
  let faithful = Lazy.force faithful_run in
  let tables = Option.get faithful.Runner.tables in
  let who = 4 (* X *) in
  let owed = Tables.outlay tables fig1_traffic who in
  let gain =
    Runner.utility_gain ~graph:g ~traffic:fig1_traffic ~node:who
      ~deviation:(Adversary.Underreport_payments 0.5) ()
  in
  checkf "gain = -(delta + epsilon)" (-.((0.5 *. owed) +. 1.)) gain

let test_misreport_gain_matches_centralized_game () =
  (* The distributed protocol's utility change under a consistent cost
     misreport equals the centralized game's prediction plus the delivery
     value (which is constant) — i.e. the two layers agree on the
     economics. *)
  let g, _ = Lazy.force fig1 in
  let who = 2 (* C *) and lie = 5. in
  let true_costs = Graph.costs g in
  let declared = Array.copy true_costs in
  declared.(who) <- lie;
  let centralized_truth =
    (Game.utilities Game.Vcg ~base:g ~true_costs ~declared:true_costs
       ~traffic:fig1_traffic).(who)
  in
  let centralized_lie =
    (Game.utilities Game.Vcg ~base:g ~true_costs ~declared ~traffic:fig1_traffic).(who)
  in
  let distributed_gain =
    Runner.utility_gain ~graph:g ~traffic:fig1_traffic ~node:who
      ~deviation:(Adversary.Misreport_cost lie) ()
  in
  checkf "layers agree" (centralized_lie -. centralized_truth) distributed_gain

(* --- Bank committee (footnote 6's open problem, sketched) --- *)

module Committee = Damd_faithful.Committee

let some_evidence =
  [ { Bank.rule = "BANK1"; culprit = Some 0; detail = "test evidence" } ]

let test_committee_honest_unanimity () =
  let c = [ Committee.Honest_replica; Committee.Honest_replica; Committee.Honest_replica ] in
  check Alcotest.bool "green on no evidence" true
    (Committee.decide c ~evidence:[] = Committee.Green_light);
  match Committee.decide c ~evidence:some_evidence with
  | Committee.Restart ds -> check Alcotest.int "carries evidence" 1 (List.length ds)
  | Committee.Green_light -> Alcotest.fail "should restart"

let test_committee_minority_liar_cannot_flip () =
  (* 1 corrupt of 3: neither direction flips. *)
  let approve = [ Committee.Honest_replica; Committee.Honest_replica; Committee.Always_approve ] in
  check Alcotest.bool "cannot suppress restart" true
    (Committee.decide approve ~evidence:some_evidence <> Committee.Green_light);
  let restart = [ Committee.Honest_replica; Committee.Honest_replica; Committee.Always_restart ] in
  check Alcotest.bool "cannot force restart" true
    (Committee.decide restart ~evidence:[] = Committee.Green_light)

let test_committee_majority_liars_win () =
  let approve =
    [ Committee.Honest_replica; Committee.Always_approve; Committee.Always_approve ]
  in
  check Alcotest.bool "suppresses restart" true
    (Committee.decide approve ~evidence:some_evidence = Committee.Green_light);
  let restart =
    [ Committee.Honest_replica; Committee.Always_restart; Committee.Always_restart ]
  in
  match Committee.decide restart ~evidence:[] with
  | Committee.Restart [ d ] -> check Alcotest.string "synthesized" "COMMITTEE" d.Bank.rule
  | _ -> Alcotest.fail "expected forced restart"

let test_committee_tolerance_bound () =
  check Alcotest.bool "3 tolerates 1" true (Committee.tolerates ~replicas:3 ~corrupt:1);
  check Alcotest.bool "3 not 2" false (Committee.tolerates ~replicas:3 ~corrupt:2);
  check Alcotest.bool "5 tolerates 2" true (Committee.tolerates ~replicas:5 ~corrupt:2);
  check Alcotest.bool "1 tolerates 0" true (Committee.tolerates ~replicas:1 ~corrupt:0)

let test_committee_ties_fail_safe () =
  let c = [ Committee.Honest_replica; Committee.Always_restart ] in
  check Alcotest.bool "even tie restarts" true
    (Committee.decide c ~evidence:[] <> Committee.Green_light)

let test_committee_checkpoint_end_to_end () =
  (* Drive a real construction to quiescence, then have a committee with a
     minority liar vote on the real checkpoints. *)
  let g, _ = Lazy.force fig1 in
  let r = Runner.run_faithful ~graph:g ~traffic:fig1_traffic () in
  check Alcotest.bool "baseline ok" true r.Runner.completed;
  (* rebuild converged nodes directly for the committee to inspect *)
  let n = 6 in
  let sets = Array.init n (Graph.neighbors g) in
  let nodes =
    Array.init n (fun id ->
        Node.create ~id ~n ~neighbor_sets:sets ~true_cost:(Graph.cost g id)
          ~deviation:Adversary.Faithful ())
  in
  let inbox = Queue.create () in
  let send_of i ~dst msg = Queue.push (i, dst, msg) inbox in
  let drain handler =
    while not (Queue.is_empty inbox) do
      let src, dst, msg = Queue.pop inbox in
      handler dst ~sender:src msg
    done
  in
  Array.iteri (fun i node -> Node.announce_cost node (send_of i)) nodes;
  drain (fun dst ~sender msg ->
      match msg with
      | Protocol.Update u -> Node.on_cost_msg nodes.(dst) (send_of dst) ~sender u
      | _ -> ());
  Array.iter (fun node -> ignore (Node.finalize_costs node)) nodes;
  Array.iteri (fun i node -> Node.start_routing node (send_of i)) nodes;
  drain (fun dst ~sender msg -> Node.on_routing_msg nodes.(dst) (send_of dst) ~sender msg);
  let committee =
    [ Committee.Honest_replica; Committee.Honest_replica; Committee.Always_restart ]
  in
  check Alcotest.bool "routing green-lit despite liar" true
    (Committee.checkpoint committee ~stage:`Routing nodes = Committee.Green_light)

(* --- FPSS partitioning (footnote 8 of the paper) --- *)

let test_partitioning_own_pricing_cannot_raise_own_income () =
  (* "Each of these nodes ignores (by the pricing update rules) the node
     that caused the update": the pricing recurrence never consults node
     k's own announcements when deriving payments *to* k, so even with
     checking disabled, inflating one's own announced prices does not
     raise one's own income. *)
  let rng = Rng.create 810 in
  let unchecked = { Runner.default_params with Runner.checking = false } in
  for _ = 1 to 3 do
    let g = Gen.chordal_ring rng ~n:8 ~chords:2 (Gen.Uniform_int (1, 8)) in
    let traffic = Traffic.uniform ~n:8 ~rate:1. in
    let faithful = Runner.run_faithful ~params:unchecked ~graph:g ~traffic () in
    for k = 0 to 7 do
      let deviations = Array.make 8 Adversary.Faithful in
      deviations.(k) <- Adversary.Miscompute_pricing 5.;
      let r = Runner.run ~params:unchecked ~graph:g ~traffic ~deviations () in
      check Alcotest.bool "no self-enrichment" true
        (r.Runner.utilities.(k) <= faithful.Runner.utilities.(k) +. 1e-6)
    done
  done

let test_combined_attacks_caught () =
  let g, _ = Lazy.force fig1 in
  List.iter
    (fun d ->
      let r = run_with_deviant g fig1_traffic 3 d in
      check Alcotest.bool (Adversary.name d ^ " blocked") false r.Runner.completed)
    [ Adversary.Combined_routing_attack 2.; Adversary.Combined_pricing_attack 2. ]

let test_stress_larger_network () =
  (* A single heavier end-to-end check: n=24, heavier degree. *)
  let rng = Rng.create 811 in
  let g = Gen.erdos_renyi rng ~n:24 ~p:0.2 (Gen.Uniform_int (1, 10)) in
  let traffic = Traffic.uniform ~n:24 ~rate:1. in
  let r = Runner.run_faithful ~graph:g ~traffic () in
  check Alcotest.bool "completed" true r.Runner.completed;
  match r.Runner.tables with
  | Some t ->
      let c = Pricing.compute g in
      check Alcotest.bool "exact tables at n=24" true
        (Tables.routing_equal t c && Tables.prices_equal t c)
  | None -> Alcotest.fail "no tables"

(* --- Audit API --- *)

module Audit = Damd_faithful.Audit

let test_audit_one_caught () =
  let g, _ = Lazy.force fig1 in
  let a =
    Audit.one ~graph:g ~traffic:fig1_traffic ~node:2
      ~deviation:(Adversary.Miscompute_routing 2.) ()
  in
  (match a.Audit.outcome with
  | Audit.Caught rules -> check Alcotest.bool "BANK1" true (List.mem "BANK1" rules)
  | _ -> Alcotest.fail "expected caught");
  check Alcotest.bool "negative gain" true (a.Audit.gain < 0.);
  check Alcotest.bool "not completed" false a.Audit.completed

let test_audit_one_no_effect () =
  let g, _ = Lazy.force fig1 in
  let a =
    Audit.one ~graph:g ~traffic:fig1_traffic ~node:2
      ~deviation:(Adversary.Misreport_cost 1.) ()
  in
  (* declaring the true cost is literally the faithful behaviour *)
  check Alcotest.string "no effect" "no effect" (Audit.outcome_to_string a.Audit.outcome);
  Alcotest.check (Alcotest.float 1e-9) "zero gain" 0. a.Audit.gain

let test_audit_matrix_clean_on_fig1 () =
  let g, _ = Lazy.force fig1 in
  let rows =
    Audit.detection_matrix ~targets:[ (g, fig1_traffic, [ 2 ]) ] ()
  in
  check Alcotest.bool "clean" true (Audit.clean rows);
  check Alcotest.int "all detectable deviations audited"
    (List.length (List.filter Adversary.detectable Adversary.library))
    (List.length rows);
  List.iter
    (fun (r : Audit.matrix_row) ->
      check Alcotest.int (r.Audit.name ^ " runs") 1 r.Audit.runs;
      check Alcotest.bool (r.Audit.name ^ " gain <= 0") true (r.Audit.max_gain <= 1e-9))
    rows

let test_audit_detects_escape_under_collusion () =
  (* With a full-neighborhood coalition the matrix must report the escape
     honestly — exercised via max_gain over a colluding configuration is
     not expressible here (matrix audits single deviants), so check that
     the unchecked configuration reports Escaped rows instead. *)
  let g, _ = Lazy.force fig1 in
  let unchecked = { Runner.default_params with Runner.checking = false } in
  let rows =
    Audit.detection_matrix ~params:unchecked
      ~deviations:[ Adversary.Miscompute_routing (-2.) ]
      ~targets:[ (g, fig1_traffic, [ 2; 3 ]) ]
      ()
  in
  check Alcotest.bool "escapes visible when unchecked" false (Audit.clean rows)

let test_audit_max_gain_nonpositive_checked () =
  let g = Lazy.force ring5 in
  let traffic = Traffic.uniform ~n:5 ~rate:1. in
  let gain, _ = Audit.max_gain ~graph:g ~traffic () in
  check Alcotest.bool "faithful" true (gain <= 1e-9)

let test_audit_max_gain_positive_unchecked () =
  let g, _ = Lazy.force fig1 in
  let unchecked = { Runner.default_params with Runner.checking = false } in
  let gain, name = Audit.max_gain ~params:unchecked ~graph:g ~traffic:fig1_traffic () in
  check Alcotest.bool "profit exists" true (gain > 0.);
  check Alcotest.bool "named" true (name <> "-")

(* --- The second instantiation: faithful distributed leader election --- *)

module Election = Damd_faithful.Election
module Leader = Damd_mech.Leader_election

let election_fixture =
  lazy
    (let rng = Rng.create 820 in
     let g = Gen.chordal_ring rng ~n:8 ~chords:2 (Gen.Uniform_int (1, 5)) in
     let profile = Leader.sample_profile ~n:8 rng in
     (g, profile))

let test_election_honest_certifies () =
  let g, profile = Lazy.force election_fixture in
  let r = Election.run ~graph:g ~profile ~deviations:(Array.make 8 Election.Honest) () in
  check Alcotest.bool "completed" true r.Election.completed;
  check Alcotest.int "no detections" 0 (List.length r.Election.detections);
  (* the distributed protocol elects the same node as the centralized
     second-score mechanism *)
  let m = Leader.second_score ~n:8 ~benefit:2. in
  let o, _ = m.Damd_mech.Mechanism.run profile in
  check (Alcotest.option Alcotest.int) "same winner" (Some o.Leader.leader)
    r.Election.leader

let test_election_winner_utility_matches_centralized () =
  let g, profile = Lazy.force election_fixture in
  let r = Election.run ~graph:g ~profile ~deviations:(Array.make 8 Election.Honest) () in
  let m = Leader.second_score ~n:8 ~benefit:2. in
  let leader = Option.get r.Election.leader in
  checkf "utility agrees"
    (Damd_mech.Mechanism.utility m leader profile.(leader) profile)
    r.Election.utilities.(leader)

let test_election_no_profitable_deviation () =
  let g, profile = Lazy.force election_fixture in
  List.iter
    (fun d ->
      for node = 0 to 7 do
        let gain = Election.utility_gain ~graph:g ~profile ~node ~deviation:d () in
        if gain > 1e-9 then
          Alcotest.failf "node %d profits %g from %s" node gain
            (Election.deviation_name d)
      done)
    Election.deviation_library

let test_election_inconsistent_bid_caught () =
  let g, profile = Lazy.force election_fixture in
  let deviations = Array.make 8 Election.Honest in
  deviations.(1) <- Election.Inconsistent_bid 3.;
  let r = Election.run ~graph:g ~profile ~deviations () in
  check Alcotest.bool "stuck" false r.Election.completed;
  check Alcotest.bool "flagged" true (r.Election.detections <> [])

let test_election_miscompute_caught () =
  let g, profile = Lazy.force election_fixture in
  (* a node that is not the honest winner claims the crown *)
  let honest = Election.run ~graph:g ~profile ~deviations:(Array.make 8 Election.Honest) () in
  let loser = if honest.Election.leader = Some 0 then 1 else 0 in
  let deviations = Array.make 8 Election.Honest in
  deviations.(loser) <- Election.Miscompute_winner;
  let r = Election.run ~graph:g ~profile ~deviations () in
  check Alcotest.bool "stuck" false r.Election.completed

let test_election_unchecked_self_nomination_profits () =
  let g, profile = Lazy.force election_fixture in
  let unchecked = { Election.default_params with Election.checking = false } in
  let best =
    List.fold_left
      (fun acc node ->
        Float.max acc
          (Election.utility_gain ~params:unchecked ~graph:g ~profile ~node
             ~deviation:Election.Miscompute_winner ()))
      neg_infinity
      [ 0; 1; 2; 3; 4; 5; 6; 7 ]
  in
  check Alcotest.bool "self-nomination pays unchecked" true (best > 0.)

let test_election_refuse_to_serve_fined () =
  let g, profile = Lazy.force election_fixture in
  let honest = Election.run ~graph:g ~profile ~deviations:(Array.make 8 Election.Honest) () in
  let leader = Option.get honest.Election.leader in
  let deviations = Array.make 8 Election.Honest in
  deviations.(leader) <- Election.Refuse_to_serve;
  let r = Election.run ~graph:g ~profile ~deviations () in
  check Alcotest.bool "completed" true r.Election.completed;
  check Alcotest.bool "fined" true (r.Election.utilities.(leader) < 0.);
  check Alcotest.bool "logged" true (r.Election.detections <> [])

let test_election_classification_total () =
  List.iter
    (fun d ->
      check Alcotest.bool
        (Election.deviation_name d)
        true
        (Election.classify d <> []))
    Election.deviation_library

(* --- Spec catalogue --- *)

module Spec = Damd_faithful.Spec

let test_spec_covers_all_classes () =
  check Alcotest.int "three classes" 3 (List.length (Spec.classes_covered ()))

let test_spec_covers_all_phases () =
  let phases = List.sort_uniq compare (List.map (fun e -> e.Spec.phase) Spec.catalogue) in
  check Alcotest.int "four phases" 4 (List.length phases)

let test_spec_deviations_exist_in_library () =
  (* Every deviation label referenced by the catalogue corresponds to a
     constructor of the adversary library. *)
  List.iter
    (fun e ->
      List.iter
        (fun d ->
          check Alcotest.bool
            (Spec.Dev.to_string d ^ " exists")
            true
            (List.mem d Adversary.all_labels))
        e.Spec.deviations)
    Spec.catalogue

let test_spec_every_library_deviation_targets_an_action () =
  (* Conversely, every library deviation is accounted for in the spec. *)
  let targeted =
    List.concat_map (fun e -> e.Spec.deviations) Spec.catalogue
  in
  List.iter
    (fun d ->
      check Alcotest.bool
        (Adversary.name d ^ " targeted")
        true
        (List.mem (Adversary.label d) targeted))
    Adversary.library

let test_spec_rules_cover_all_rule_tags () =
  (* The catalogue exercises the full enforcement-rule vocabulary. *)
  let used =
    List.sort_uniq compare (List.concat_map (fun e -> e.Spec.rules) Spec.catalogue)
  in
  check Alcotest.int "all rule tags used"
    (List.length Damd_speccheck.Rule.all)
    (List.length used)

(* --- Adversary bookkeeping --- *)

let test_adversary_names_unique () =
  let names = List.map Adversary.name Adversary.library in
  check Alcotest.int "unique" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_adversary_classes_nonempty () =
  List.iter
    (fun d ->
      check Alcotest.bool (Adversary.name d) true (Adversary.classify d <> []))
    Adversary.library;
  check Alcotest.bool "faithful has no classes" true
    (Adversary.classify Adversary.Faithful = [])

let test_adversary_phases_partition () =
  List.iter
    (fun d ->
      check Alcotest.bool
        (Adversary.name d ^ " is construction xor execution")
        true
        (Adversary.is_construction d <> Adversary.is_execution d
        || d = Adversary.Misreport_cost 5.))
    Adversary.library

(* The plan-based scope predicates against the constructor-by-constructor
   oracle in adversary_reference.ml, on every named deviation, an
   inconsistent-cost pair of equal costs, a sampled Byzantine plan and a
   plan whose one drawn component is a (1, 1) cost pair, each bare and
   under an ε wrapper; then [detectable_in] on a coalition profile drawn
   like the gauntlet's sampler over a random biconnected graph. *)
let one_pair_byzantine_seed = 1367447748165548000 (* gauntlet replay 4285784464683832136 *)

let same_predicates d =
  let module R = Adversary_reference in
  Bool.equal (Adversary.is_construction d) (R.is_construction d)
  && Bool.equal (Adversary.is_execution d) (R.is_execution d)
  && Bool.equal (Adversary.detectable d) (R.detectable d)
  && Bool.equal (Adversary.checker_caught d) (R.checker_caught d)
  && List.for_all
       (fun p -> Bool.equal (Adversary.colluding d ~principal:p) (R.colluding d ~principal:p))
       [ 0; 1; 2 ]

let prop_scope_predicates_equal_reference =
  QCheck.Test.make ~name:"scope predicates = constructor-by-constructor reference"
    ~count:200
    QCheck.(triple int small_nat (float_bound_inclusive 1.))
    (fun (byz_seed, seed, p) ->
      let named =
        Adversary.Faithful :: Adversary.Collude_with 0 :: Adversary.Collude_with 2
        :: Adversary.Inconsistent_cost (3., 3.)
        :: Adversary.Byzantine_arbitrary one_pair_byzantine_seed
        :: Adversary.Byzantine_arbitrary byz_seed :: Adversary.library
      in
      let wrapped = List.map (fun d -> Adversary.Epsilon_rational (0.5, d)) named in
      let rng = Rng.create (seed + 3100) in
      let g = Fpss_reference.random_graph rng ~seed ~p in
      let n = Graph.n g in
      let profile = Array.make n Adversary.Faithful in
      List.iter
        (fun v ->
          profile.(v) <-
            Rng.choose rng
              (Adversary.Byzantine_arbitrary (Int64.to_int (Rng.bits64 rng))
              :: Adversary.Collude_with (Rng.int rng n) :: Adversary.library))
        (Rng.subset rng (Rng.int_in rng 0 2) n);
      let principal = Rng.int rng n in
      profile.(principal) <-
        Rng.choose rng (Adversary.Byzantine_arbitrary byz_seed :: Adversary.library);
      let nbrs = Array.of_list (Graph.neighbors g principal) in
      Rng.shuffle rng nbrs;
      for j = 0 to Rng.int_in rng 0 (Array.length nbrs) - 1 do
        profile.(nbrs.(j)) <-
          (if Rng.bool rng then Adversary.Lying_checker
           else Adversary.Collude_with principal)
      done;
      let neighbors = Graph.neighbors g in
      List.for_all same_predicates (named @ wrapped)
      && List.for_all
           (fun i ->
             Bool.equal
               (Adversary.detectable_in ~neighbors ~profile i)
               (Adversary_reference.detectable_in ~neighbors ~profile i))
           (List.init n Fun.id))

(* --- Scale: faithful checking over sparse state --- *)

module Scale = Damd_faithful.Scale
module Sparse = Damd_fpss.Sparse

let test_scale_honest_completes () =
  (* A full honest pass on an n=256 AS-like power-law topology with a
     restricted destination set: clean checkpoints, every demand routed,
     and the settlement conserves value (payments are transfers, so the
     welfare identity sum(u) = value*delivered - true transit cost must
     hold exactly). *)
  let rng = Rng.create 77 in
  let g, _ = Gen.as_like rng ~n:256 ~m:2 (Gen.Uniform_int (1, 10)) in
  let dests = [| 0; 1; 2; 3; 50; 100; 150; 250 |] in
  let report, _sp = Scale.run ~dests g in
  check Alcotest.bool "completed" true report.Scale.completed;
  check Alcotest.int "no detections" 0 (List.length report.Scale.detections);
  check Alcotest.int "all demands delivered" (8 * 255) report.Scale.delivered;
  check Alcotest.bool "construction messages counted" true
    (report.Scale.construction_messages > 0);
  check Alcotest.bool "checkpoint traffic is per-edge" true
    (report.Scale.checkpoint_messages = 4 * Graph.num_edges g);
  let sum_u = Array.fold_left ( +. ) 0. report.Scale.utilities in
  let expected =
    (100. *. float_of_int report.Scale.delivered) -. report.Scale.total_true_cost
  in
  check (Alcotest.float 1e-6) "welfare identity" expected sum_u

let test_scale_matches_dense_tables () =
  (* With the full destination set, the announced tables the scale layer
     certifies are exactly the centralized FPSS fixpoint, and the money
     that moves matches the dense price tables. *)
  let g, _ = Lazy.force fig1 in
  let report, sp = Scale.run g in
  check Alcotest.bool "completed" true report.Scale.completed;
  let t = Sparse.to_tables sp in
  let c = Pricing.compute g in
  check Alcotest.bool "routing = centralized" true (Tables.routing_equal t c);
  check Alcotest.bool "prices = centralized" true (Tables.prices_equal t c);
  let dense_payments = ref 0. in
  for src = 0 to 5 do
    for dst = 0 to 5 do
      if src <> dst then
        List.iter
          (fun (_, p) -> dense_payments := !dense_payments +. p)
          (Tables.packet_payments c ~src ~dst)
    done
  done;
  check (Alcotest.float 1e-9) "payments match dense tables" !dense_payments
    report.Scale.total_payments

let test_scale_routing_distorter_caught () =
  let rng = Rng.create 78 in
  let g = Gen.chordal_ring rng ~n:64 ~chords:16 (Gen.Uniform_int (1, 10)) in
  let deviations i = if i = 5 then Scale.Distort_routing 0.5 else Scale.Honest in
  let report, _ = Scale.run ~dests:[| 0; 16; 32; 48 |] ~deviations g in
  check Alcotest.bool "not completed" false report.Scale.completed;
  (match report.Scale.detections with
  | [ d ] ->
      check Alcotest.int "correct culprit" 5 d.Scale.culprit;
      check Alcotest.bool "routing phase" true (d.Scale.phase = `Routing);
      check (Alcotest.float 1e-9) "residual = distortion" 0.5 d.Scale.residual
  | ds ->
      Alcotest.failf "expected exactly one detection, got %d" (List.length ds))

let test_scale_pricing_distorter_caught () =
  (* Node C (id 2) carries Fig-1 transit traffic, so padded prices are a
     visible lie; routing stays honest and clean. *)
  let g, _ = Lazy.force fig1 in
  let deviations i = if i = 2 then Scale.Distort_pricing 0.75 else Scale.Honest in
  let report, _ = Scale.run ~deviations g in
  check Alcotest.bool "not completed" false report.Scale.completed;
  (match report.Scale.detections with
  | [ d ] ->
      check Alcotest.int "correct culprit" 2 d.Scale.culprit;
      check Alcotest.bool "pricing phase" true (d.Scale.phase = `Pricing);
      check (Alcotest.float 1e-9) "residual = distortion" 0.75 d.Scale.residual
  | ds ->
      Alcotest.failf "expected exactly one detection, got %d" (List.length ds))

let test_scale_halts_on_detection () =
  (* Detection means the bank refuses to certify: no traffic clears and
     no money moves. *)
  let g, _ = Lazy.force fig1 in
  let deviations i = if i = 3 then Scale.Distort_routing 1.0 else Scale.Honest in
  let report, _ = Scale.run ~deviations g in
  check Alcotest.bool "not completed" false report.Scale.completed;
  check Alcotest.int "nothing delivered" 0 report.Scale.delivered;
  checkf "no payments" 0. report.Scale.total_payments;
  Array.iter (fun u -> checkf "utilities untouched" 0. u) report.Scale.utilities

(* --- Fault injection through the runner: blame correctness --- *)

module Fault = Damd_sim.Fault

let fault_params spec =
  { Runner.default_params with Runner.fault = Some spec; max_restarts = 4 }

let no_honest_accusation r =
  List.for_all (fun det -> det.Bank.culprit = None) r.Runner.detections

let test_fault_loss_never_accuses_honest () =
  (* Pure link loss against an all-honest run: progress may degrade
     (restarts, a stuck phase) but the FT evidence split must never
     produce a culprit — loss is an omission, not a contradiction. *)
  let g, _ = Lazy.force fig1 in
  let deviations = Array.make 6 Adversary.Faithful in
  List.iter
    (fun seed ->
      let spec =
        {
          Fault.seed;
          link = Some { Fault.loss_p = 0.05; reorder_p = 0.2; reorder_delay = 1.5 };
          partition = None;
          crash = None;
        }
      in
      let r =
        Runner.run ~params:(fault_params spec) ~graph:g ~traffic:fig1_traffic
          ~deviations ()
      in
      check Alcotest.bool "no honest node accused" true (no_honest_accusation r);
      if r.Runner.completed then
        match (r.Runner.tables, (Lazy.force faithful_run).Runner.tables) with
        | Some t, Some t' ->
            check Alcotest.bool "certified tables are correct" true
              (Tables.routing_equal t t' && Tables.prices_equal t t')
        | _ -> Alcotest.fail "completed run without tables")
    [ 11; 23; 37; 58 ]

let test_fault_crash_handoff_recovers () =
  (* Fail-stop with recovery inside the routing phase: the neighbor
     handoff plus bank-ordered restarts must carry the run to a clean
     certification with no one blamed. *)
  let g, _ = Lazy.force fig1 in
  let deviations = Array.make 6 Adversary.Faithful in
  let spec =
    {
      Fault.seed = 7;
      link = None;
      partition = None;
      crash =
        Some { Fault.node = 3; crash_phase = `Routing; at = 1.0; recovers_at = 2.5 };
    }
  in
  let r =
    Runner.run ~params:(fault_params spec) ~graph:g ~traffic:fig1_traffic
      ~deviations ()
  in
  check Alcotest.bool "no honest node accused" true (no_honest_accusation r);
  check Alcotest.bool "run completes after recovery" true r.Runner.completed;
  match (r.Runner.tables, (Lazy.force faithful_run).Runner.tables) with
  | Some t, Some t' ->
      check Alcotest.bool "tables unaffected by the crash" true
        (Tables.routing_equal t t' && Tables.prices_equal t t')
  | _ -> Alcotest.fail "completed run without tables"

let test_fault_partition_heals_and_completes () =
  let g, _ = Lazy.force fig1 in
  let deviations = Array.make 6 Adversary.Faithful in
  let spec =
    {
      Fault.seed = 9;
      link = None;
      partition =
        Some
          { Fault.island = [ 0; 1 ]; part_phase = `Costs; at = 0.5; heals_at = 3.0 };
      crash = None;
    }
  in
  let r =
    Runner.run ~params:(fault_params spec) ~graph:g ~traffic:fig1_traffic
      ~deviations ()
  in
  check Alcotest.bool "no honest node accused" true (no_honest_accusation r)

let test_plan_of_seed_deterministic () =
  List.iter
    (fun s ->
      check Alcotest.bool "pure in the seed" true
        (Adversary.plan_of_seed s = Adversary.plan_of_seed s))
    [ 0; 1; 42; 9001 ];
  check Alcotest.bool "seeds differentiate plans" true
    (List.exists
       (fun s -> Adversary.plan_of_seed s <> Adversary.plan_of_seed 0)
       [ 1; 2; 3; 4; 5 ])

(* The plan [one_pair_byzantine_seed] draws has one component, the cost
   pair (1, 1): a consistent declaration, so the at-least-one-active
   fallback adds its routing distortion. *)
let test_plan_of_seed_equal_pair () =
  let p = Adversary.plan_of_seed one_pair_byzantine_seed in
  check Alcotest.bool "declares 1 to everyone" true
    (p.Adversary.declare = Adversary.Declare 1.);
  check Alcotest.bool "fallback routing distortion" true
    (p.Adversary.routing.Adversary.announce = Adversary.Distort (-2.));
  check Alcotest.bool "inconsistent-cost (3, 3) declares 3" true
    ((Adversary.plan (Adversary.Inconsistent_cost (3., 3.))).Adversary.declare
    = Adversary.Declare 3.)

let test_byzantine_deviant_caught () =
  (* A Byzantine node never slides damage past certification: either the
     bank refuses to certify / flags it, or the plan was behaviorally
     inert on this topology and the certified tables are still the
     honest ones (e.g. a cost pair whose two values land on same-parity
     neighbors, or corrupted forwards that lose the first-arrival race
     in the flood). At least some seeds must actually be caught. *)
  let g, _ = Lazy.force fig1 in
  let caught = ref 0 in
  List.iter
    (fun seed ->
      let deviations = Array.make 6 Adversary.Faithful in
      deviations.(2) <- Adversary.Byzantine_arbitrary seed;
      let r = Runner.run ~graph:g ~traffic:fig1_traffic ~deviations () in
      if (not r.Runner.completed) || r.Runner.detections <> [] then incr caught
      else
        (* Undetected plans amount to strategic misdeclaration — legal
           under the AC model, and Theorem 1 makes them unprofitable. *)
        let gain =
          Runner.utility_gain ~graph:g ~traffic:fig1_traffic ~node:2
            ~deviation:(Adversary.Byzantine_arbitrary seed) ()
        in
        check Alcotest.bool "undetected byz plan is unprofitable" true
          (gain <= 1e-9))
    [ 1; 2; 3; 17; 101 ];
  check Alcotest.bool "most byz plans are caught" true (!caught >= 3)

(* Cross-commit golden for Byzantine plans: one digest per seed of a fig1
   run with node 2 playing [Byzantine_arbitrary seed], covering the
   verdict, restarts, stuck phase, every detection and the utilities in
   hex. A plan component the node stops playing moves some digest. A
   deliberate change replaces the list (the failure prints the actual
   one) and names the moved seeds in the change log. *)
let byzantine_golden =
  [
    (0, "b9dc8d0ccbd75578cc02c4bdaac8e2ab");
    (1, "58cbced65c1341315036405f3529fe2b");
    (2, "b9dc8d0ccbd75578cc02c4bdaac8e2ab");
    (3, "a7811c518a68d42e03801e33081de26c");
    (4, "b3b543bd66d0ae8bf84d69de710c08ee");
    (5, "8b3b8db0af0f1f410a42587ba823d252");
    (6, "8b3b8db0af0f1f410a42587ba823d252");
    (7, "a7811c518a68d42e03801e33081de26c");
    (8, "8b3b8db0af0f1f410a42587ba823d252");
    (9, "8b3b8db0af0f1f410a42587ba823d252");
    (10, "1156e8e7852bf9547e9b0722041a77b2");
    (11, "596e92d68c669e63234a2ef5f478d6cd");
    (12, "041337327bc9ac314e3156e3b3da46f1");
    (13, "4a4f3cabcd3260010d0909d678d3afb8");
    (14, "8b3b8db0af0f1f410a42587ba823d252");
    (15, "b9dc8d0ccbd75578cc02c4bdaac8e2ab");
    (16, "8b3b8db0af0f1f410a42587ba823d252");
    (17, "b9dc8d0ccbd75578cc02c4bdaac8e2ab");
    (18, "8b3b8db0af0f1f410a42587ba823d252");
    (19, "a3278209f5b0126aff613af3e2c85d2e");
    (20, "2b78138e7f93fd5d1b3e5ce7ca77621c");
    (21, "b9dc8d0ccbd75578cc02c4bdaac8e2ab");
    (22, "8b3b8db0af0f1f410a42587ba823d252");
    (23, "f37e63b480454755dab9222b5fae3e71");
    (24, "f37e63b480454755dab9222b5fae3e71");
    (25, "8b3b8db0af0f1f410a42587ba823d252");
    (26, "8b3b8db0af0f1f410a42587ba823d252");
    (27, "04fb40b300b6f474915be21f0de4a465");
    (28, "8b3b8db0af0f1f410a42587ba823d252");
    (29, "a7811c518a68d42e03801e33081de26c");
    (30, "4a4f3cabcd3260010d0909d678d3afb8");
    (31, "1156e8e7852bf9547e9b0722041a77b2");
    (32, "04fb40b300b6f474915be21f0de4a465");
    (33, "b9dc8d0ccbd75578cc02c4bdaac8e2ab");
    (34, "4a4f3cabcd3260010d0909d678d3afb8");
    (35, "b9dc8d0ccbd75578cc02c4bdaac8e2ab");
    (36, "1156e8e7852bf9547e9b0722041a77b2");
    (37, "b9dc8d0ccbd75578cc02c4bdaac8e2ab");
    (38, "8b3b8db0af0f1f410a42587ba823d252");
    (39, "f37e63b480454755dab9222b5fae3e71");
  ]

let byzantine_run_digest seed =
  let g, _ = Lazy.force fig1 in
  let deviations = Array.make 6 Adversary.Faithful in
  deviations.(2) <- Adversary.Byzantine_arbitrary seed;
  let r = Runner.run ~graph:g ~traffic:fig1_traffic ~deviations () in
  let b = Buffer.create 256 in
  Printf.bprintf b "completed=%b;restarts=%d;stuck=%s;" r.Runner.completed
    r.Runner.restarts
    (Option.value ~default:"-" r.Runner.stuck_phase);
  List.iter
    (fun (d : Bank.detection) ->
      Printf.bprintf b "detection=%s/%s/%s;" d.Bank.rule
        (match d.Bank.culprit with Some c -> string_of_int c | None -> "-")
        d.Bank.detail)
    r.Runner.detections;
  Array.iter (fun u -> Printf.bprintf b "utility=%h;" u) r.Runner.utilities;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_byzantine_golden () =
  let actual = List.init 40 (fun s -> (s, byzantine_run_digest s)) in
  if actual <> byzantine_golden then begin
    List.iter
      (fun (s, hex) ->
        if List.assoc_opt s byzantine_golden <> Some hex then
          Printf.printf "byzantine golden mismatch: seed %d\n" s)
      actual;
    print_endline "actual list:";
    List.iter (fun (s, hex) -> Printf.printf "    (%d, %S);\n" s hex) actual;
    Alcotest.fail "byzantine golden digests moved"
  end

let suites =
  [
    ( "faithful.protocol",
      [
        Alcotest.test_case "empty routing" `Quick test_protocol_empty_routing;
        Alcotest.test_case "recompute line" `Quick test_protocol_recompute_routing_line;
        Alcotest.test_case "loop avoidance" `Quick test_protocol_routing_loop_avoidance;
        Alcotest.test_case "digests differ" `Quick test_protocol_digests_differ;
        Alcotest.test_case "tags hashed" `Quick test_protocol_pricing_digest_sees_tags;
        Alcotest.test_case "message sizes" `Quick test_protocol_msg_sizes;
        Alcotest.test_case "cost digests" `Quick test_protocol_costs_digest;
        QCheck_alcotest.to_alcotest prop_protocol_sweep_equals_reference;
        QCheck_alcotest.to_alcotest prop_routing_equal_is_digest_equal;
        QCheck_alcotest.to_alcotest prop_pricing_equal_is_digest_equal;
        QCheck_alcotest.to_alcotest prop_digests_equal_printf_reference;
        QCheck_alcotest.to_alcotest prop_sizer_equals_msg_size;
      ] );
    ( "faithful.node",
      [
        Alcotest.test_case "announce cost" `Quick test_node_announce_cost_faithful;
        Alcotest.test_case "misreport" `Quick test_node_announce_cost_misreport;
        Alcotest.test_case "inconsistent" `Quick test_node_announce_cost_inconsistent;
        Alcotest.test_case "flood forwards once" `Quick test_node_cost_flood_forwards_once;
        Alcotest.test_case "finalize costs" `Quick test_node_finalize_costs;
        Alcotest.test_case "routing copies" `Quick test_node_routing_update_forwards_copies;
        Alcotest.test_case "drop copies deviation" `Quick test_node_drop_copies_deviation;
        Alcotest.test_case "checker rejects bad via" `Quick test_node_checker_rejects_bad_via;
        Alcotest.test_case "payment report" `Quick test_node_payment_report;
        Alcotest.test_case "underreport" `Quick test_node_payment_report_underreports;
        QCheck_alcotest.to_alcotest prop_node_intake_equals_recompute;
      ] );
    ( "faithful.bank",
      [
        Alcotest.test_case "serialize canonical" `Quick test_bank_serialize_report_canonical;
        Alcotest.test_case "checkpoint costs" `Quick test_bank_checkpoint_costs;
        Alcotest.test_case "checkpoint bytes" `Quick test_bank_checkpoint_bytes_positive;
        QCheck_alcotest.to_alcotest prop_checkpoint_equals_reference;
      ] );
    ( "faithful.run",
      [
        Alcotest.test_case "faithful completes" `Quick test_run_faithful_completes;
        Alcotest.test_case "matches centralized (Fig1)" `Quick
          test_run_faithful_matches_centralized;
        Alcotest.test_case "matches centralized (random)" `Quick
          test_run_faithful_matches_centralized_random;
        Alcotest.test_case "deterministic" `Quick test_run_deterministic;
        Alcotest.test_case "traffic flows" `Quick test_run_all_traffic_delivered;
        Alcotest.test_case "money conserved" `Quick test_run_money_conserved_faithful;
      ] );
    ( "faithful.detection",
      [
        Alcotest.test_case "construction deviations caught" `Quick
          test_every_detectable_construction_deviation_caught;
        Alcotest.test_case "cost-forward corruption caught on ring" `Quick
          test_corrupt_cost_forward_caught_on_ring;
        Alcotest.test_case "execution deviations caught" `Quick
          test_every_execution_deviation_caught;
        Alcotest.test_case "misreport passes (by design)" `Quick test_misreport_not_detected;
        Alcotest.test_case "culprit attributed" `Quick test_detection_attributes_culprit;
        Alcotest.test_case "deviant checker detected" `Quick test_deviant_checker_detected;
      ] );
    ( "faithful.theorem1",
      [
        Alcotest.test_case "no profitable deviation (Fig1)" `Slow
          test_no_profitable_deviation_fig1;
        Alcotest.test_case "no profitable deviation (ring)" `Slow
          test_no_profitable_deviation_ring;
        Alcotest.test_case "unchecked: free-riding pays" `Quick
          test_unchecked_underreporting_profits;
        Alcotest.test_case "unchecked: manipulation pays" `Slow
          test_unchecked_some_construction_deviation_profits;
        Alcotest.test_case "ex post Nash report" `Slow test_analysis_ex_post_nash_holds;
        Alcotest.test_case "Proposition 2 certificate" `Slow test_analysis_evidence_certifies;
        Alcotest.test_case "unchecked not faithful" `Slow test_analysis_unchecked_not_faithful;
      ] );
    ( "faithful.extensions",
      [
        Alcotest.test_case "lying checker alone harmless" `Quick
          test_lying_checker_alone_harmless;
        Alcotest.test_case "partial collusion caught" `Quick
          test_partial_collusion_still_caught;
        Alcotest.test_case "full-neighborhood collusion escapes" `Quick
          test_full_neighborhood_collusion_escapes;
        Alcotest.test_case "detectable_in: partial coalition" `Quick
          test_detectable_in_partial_coalition;
        Alcotest.test_case "detectable_in: covering coalition" `Quick
          test_detectable_in_covering_coalition;
        Alcotest.test_case "detectable_in: shielded silence" `Quick
          test_detectable_in_shielded_silence;
        Alcotest.test_case "channel loss: false positives" `Quick
          test_channel_loss_false_positives;
        Alcotest.test_case "zero loss clean" `Quick test_zero_channel_loss_is_clean;
        Alcotest.test_case "no-copies mode cheaper" `Quick test_no_copies_mode_cheaper;
        Alcotest.test_case "deferred certification catches late" `Quick
          test_deferred_certification_catches_late;
        Alcotest.test_case "deferred certification faithful clean" `Quick
          test_deferred_certification_faithful_clean;
        Alcotest.test_case "async latency agrees" `Quick test_heterogeneous_latency_agrees;
        Alcotest.test_case "async latency still detects" `Quick
          test_heterogeneous_latency_still_detects;
        Alcotest.test_case "replication correct" `Quick test_replication_correct_and_complete;
        Alcotest.test_case "replication heavier" `Quick
          test_replication_costs_more_than_faithful;
        Alcotest.test_case "hotspot traffic" `Quick test_faithful_under_hotspot_traffic;
        Alcotest.test_case "zero traffic" `Quick test_zero_traffic_execution_trivial;
        Alcotest.test_case "triangle" `Quick test_triangle_minimal_biconnected;
        Alcotest.test_case "zero-cost nodes" `Quick test_zero_cost_nodes;
        (* seeded so the 50 sampled graphs are the same on every run *)
        QCheck_alcotest.to_alcotest
          ~rand:(Random.State.make [| 0x5eed |])
          prop_faithful_random_graphs;
        QCheck_alcotest.to_alcotest prop_detection_random_graphs;
      ] );
    ( "faithful.economics",
      [
        Alcotest.test_case "fine = delta + epsilon exactly" `Quick
          test_underreport_penalty_is_delta_plus_epsilon;
        Alcotest.test_case "distributed = centralized economics" `Quick
          test_misreport_gain_matches_centralized_game;
      ] );
    ( "faithful.committee",
      [
        Alcotest.test_case "honest unanimity" `Quick test_committee_honest_unanimity;
        Alcotest.test_case "minority liar cannot flip" `Quick
          test_committee_minority_liar_cannot_flip;
        Alcotest.test_case "majority liars win" `Quick test_committee_majority_liars_win;
        Alcotest.test_case "tolerance bound" `Quick test_committee_tolerance_bound;
        Alcotest.test_case "ties fail safe" `Quick test_committee_ties_fail_safe;
        Alcotest.test_case "end-to-end checkpoint" `Quick
          test_committee_checkpoint_end_to_end;
      ] );
    ( "faithful.partitioning",
      [
        Alcotest.test_case "own pricing cannot self-enrich" `Slow
          test_partitioning_own_pricing_cannot_raise_own_income;
        Alcotest.test_case "combined attacks caught" `Quick test_combined_attacks_caught;
        Alcotest.test_case "stress n=24" `Slow test_stress_larger_network;
      ] );
    ( "faithful.audit",
      [
        Alcotest.test_case "one caught" `Quick test_audit_one_caught;
        Alcotest.test_case "one no-effect" `Quick test_audit_one_no_effect;
        Alcotest.test_case "matrix clean" `Quick test_audit_matrix_clean_on_fig1;
        Alcotest.test_case "escape visible unchecked" `Quick
          test_audit_detects_escape_under_collusion;
        Alcotest.test_case "max gain <= 0 checked" `Slow
          test_audit_max_gain_nonpositive_checked;
        Alcotest.test_case "max gain > 0 unchecked" `Slow
          test_audit_max_gain_positive_unchecked;
      ] );
    ( "faithful.election",
      [
        Alcotest.test_case "honest certifies" `Quick test_election_honest_certifies;
        Alcotest.test_case "utility matches centralized" `Quick
          test_election_winner_utility_matches_centralized;
        Alcotest.test_case "no profitable deviation" `Quick
          test_election_no_profitable_deviation;
        Alcotest.test_case "inconsistent bid caught" `Quick
          test_election_inconsistent_bid_caught;
        Alcotest.test_case "miscompute caught" `Quick test_election_miscompute_caught;
        Alcotest.test_case "unchecked self-nomination profits" `Quick
          test_election_unchecked_self_nomination_profits;
        Alcotest.test_case "refuse-to-serve fined" `Quick test_election_refuse_to_serve_fined;
        Alcotest.test_case "classification total" `Quick test_election_classification_total;
      ] );
    ( "faithful.spec",
      [
        Alcotest.test_case "covers all classes" `Quick test_spec_covers_all_classes;
        Alcotest.test_case "covers all phases" `Quick test_spec_covers_all_phases;
        Alcotest.test_case "deviations exist" `Quick test_spec_deviations_exist_in_library;
        Alcotest.test_case "library fully targeted" `Quick
          test_spec_every_library_deviation_targets_an_action;
        Alcotest.test_case "rule tags covered" `Quick
          test_spec_rules_cover_all_rule_tags;
      ] );
    ( "faithful.adversary",
      [
        Alcotest.test_case "names unique" `Quick test_adversary_names_unique;
        Alcotest.test_case "classes nonempty" `Quick test_adversary_classes_nonempty;
        Alcotest.test_case "phase partition" `Quick test_adversary_phases_partition;
        QCheck_alcotest.to_alcotest prop_scope_predicates_equal_reference;
      ] );
    ( "faithful.scale",
      [
        Alcotest.test_case "honest n=256 AS-like completes" `Quick
          test_scale_honest_completes;
        Alcotest.test_case "matches dense runner economics" `Quick
          test_scale_matches_dense_tables;
        Alcotest.test_case "routing distorter caught" `Quick
          test_scale_routing_distorter_caught;
        Alcotest.test_case "pricing distorter caught" `Quick
          test_scale_pricing_distorter_caught;
        Alcotest.test_case "halt on detection" `Quick test_scale_halts_on_detection;
      ] );
    ( "faithful.fault",
      [
        Alcotest.test_case "loss never accuses honest" `Quick
          test_fault_loss_never_accuses_honest;
        Alcotest.test_case "crash handoff recovers" `Quick
          test_fault_crash_handoff_recovers;
        Alcotest.test_case "partition heals" `Quick
          test_fault_partition_heals_and_completes;
        Alcotest.test_case "byz plan pure in seed" `Quick
          test_plan_of_seed_deterministic;
        Alcotest.test_case "byzantine deviant caught" `Quick
          test_byzantine_deviant_caught;
        Alcotest.test_case "byzantine golden: 40 plans on fig1" `Quick
          test_byzantine_golden;
        Alcotest.test_case "byz equal cost pair declares" `Quick
          test_plan_of_seed_equal_pair;
      ] );
  ]
