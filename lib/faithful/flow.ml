module Dijkstra = Damd_graph.Dijkstra
module Ir = Damd_speccheck.Ir
module Taint = Damd_speccheck.Taint

(* Exactly one input class is perturbed per run. *)
type world = Base | Private | Received | State

(* ---- the Figure-1 fixture, seen from node 3 ---- *)

let neighbor_sets () =
  [| [ 4; 5 ]; [ 3; 5 ]; [ 3; 5 ]; [ 1; 2; 4 ]; [ 0; 3 ]; [ 0; 1; 2 ] |]

let base_costs () = [| 5.; 6.; 1.; 1.; 100.; 1000. |]

let mk ~deviation ~world () =
  let true_cost = match world with Private -> 2.75 | _ -> 1. in
  Node.create ~id:3 ~n:6 ~neighbor_sets:(neighbor_sets ()) ~true_cost
    ~deviation ()

let capture () =
  let log = ref [] in
  let send ~dst msg = log := (dst, msg) :: !log in
  (log, send)

(* ---- fixture tables ---- *)

let rt ~self entries : Protocol.routing_table =
  let t = Array.make 6 None in
  t.(self) <- Some { Dijkstra.cost = 0.; path = [ self ] };
  List.iter
    (fun (dst, cost, path) -> t.(dst) <- Some { Dijkstra.cost = cost; path })
    entries;
  t

let pt entries : Protocol.pricing_table =
  let t = Array.make 6 [] in
  List.iter
    (fun (dst, es) ->
      t.(dst) <-
        List.map
          (fun (transit, price, tags) -> { Protocol.transit; price; tags })
          es)
    entries;
  t

(* ---- canonical rendering ([%h] floats: no rounding masks a flow) ---- *)

let fstr = Printf.sprintf "%h"

let render_update = function
  | Protocol.Cost_announce { origin; cost } ->
      Printf.sprintf "cost(%d,%s)" origin (fstr cost)
  | Protocol.Routing_update { origin; table } ->
      Printf.sprintf "rt(%d,%s)" origin (Protocol.routing_digest table)
  | Protocol.Pricing_update { origin; table } ->
      Printf.sprintf "pt(%d,%s)" origin (Protocol.pricing_digest table)

let render_msg = function
  | Protocol.Update u -> "u:" ^ render_update u
  | Protocol.Copy { principal; via; inner } ->
      Printf.sprintf "c:%d/%d/%s" principal via (render_update inner)
  | Protocol.Packet { src; dst; rate; trace } ->
      Printf.sprintf "p:%d>%d@%s[%s]" src dst (fstr rate)
        (String.concat ";" (List.map string_of_int trace))

let render_sends sends =
  List.map (fun (dst, m) -> Printf.sprintf "%d<-%s" dst (render_msg m)) sends
  |> List.sort String.compare
  |> String.concat " "

let copies sends =
  List.filter (fun (_, m) -> match m with Protocol.Copy _ -> true | _ -> false) sends

let updates sends =
  List.filter
    (fun (_, m) -> match m with Protocol.Update _ -> true | _ -> false)
    sends

(* ---- per-action harnesses ---- *)

let declare_cost deviation world =
  let node = mk ~deviation ~world () in
  let log, send = capture () in
  Node.announce_cost node send;
  render_sends !log

let flood_costs deviation world =
  let node = mk ~deviation ~world () in
  (match world with State -> node.Node.learned_costs.(0) <- Some 9. | _ -> ());
  let cost = match world with Received -> 8. | _ -> 7.5 in
  let log, send = capture () in
  Node.on_cost_msg node send ~sender:1
    (Protocol.Cost_announce { origin = 0; cost });
  render_sends !log

(* Phase-2a intake at node 3: neighbor 1 announces a routing table. The
   handler both forwards checker copies (the [forward-routing-copies]
   action — the [Copy] projection of the send log) and recomputes + re-
   announces (the [recompute-routing] action — the [Update] projection
   plus the table digest). *)
let routing_update deviation world =
  let node = mk ~deviation ~world () in
  let costs = base_costs () in
  (match world with State -> costs.(1) <- costs.(1) +. 3.25 | _ -> ());
  node.Node.costs <- costs;
  let d = match world with Received -> 2.5 | _ -> 0. in
  let table = rt ~self:1 [ (5, d, [ 1; 5 ]); (0, 7.25 +. d, [ 1; 5; 0 ]) ] in
  let log, send = capture () in
  Node.on_routing_msg node send ~sender:1
    (Protocol.Update (Protocol.Routing_update { origin = 1; table }));
  (!log, Node.self_digest Node.routing_stage node)

(* The two projections of one intake run (routing or pricing): the copies
   relayed to the checkers, and the re-announcement plus the table
   digest. *)
let forward_copies intake deviation world =
  render_sends (copies (fst (intake deviation world)))

let recompute intake deviation world =
  let log, digest = intake deviation world in
  render_sends (updates log) ^ " !" ^ digest

(* Checker intake at node 3 for principal 1: two claimed inputs (via its
   checkers 5 and 3), then the CHECK1 mirror recomputation. The state
   perturbation bumps costs.(5), not costs.(1): principal 1's own transit
   cost is never interior to its paths, so it cannot flow. *)
let mirror_routing deviation world =
  let node = mk ~deviation ~world () in
  let costs = base_costs () in
  (match world with State -> costs.(5) <- costs.(5) +. 41. | _ -> ());
  node.Node.costs <- costs;
  let d = match world with Received -> 2.5 | _ -> 0. in
  let rt5 = rt ~self:5 [ (0, d, [ 5; 0 ]); (2, d, [ 5; 2 ]) ] in
  let rt3 = rt ~self:3 [ (0, 99., [ 3; 4; 0 ]) ] in
  let log, send = capture () in
  Node.on_routing_msg node send ~sender:1
    (Protocol.Copy
       {
         principal = 1;
         via = 5;
         inner = Protocol.Routing_update { origin = 5; table = rt5 };
       });
  Node.on_routing_msg node send ~sender:1
    (Protocol.Copy
       {
         principal = 1;
         via = 3;
         inner = Protocol.Routing_update { origin = 3; table = rt3 };
       });
  ignore !log;
  Node.mirror_digest Node.routing_stage node ~principal:1

(* Phase-2b intake at node 3: routing context is already accumulated
   protocol state; neighbor 1 announces a pricing table. Two neighbor
   routing tables matter here: with a single claimed path the FPSS price
   [costs.(k) + d_mk - e.cost] cancels every cost term exactly (the price
   collapses to the neighbor's claimed price), so the protocol-state flow
   would be invisible. The via-4 alternative makes the destination-0
   minimum switch to a candidate whose price retains [costs], while the
   destination-2 entry keeps the claimed-price dependency. *)
let pricing_update deviation world =
  let node = mk ~deviation ~world () in
  let costs = base_costs () in
  (match world with State -> costs.(1) <- costs.(1) +. 3.25 | _ -> ());
  node.Node.costs <- costs;
  let rt1 =
    rt ~self:1
      [ (5, 0., [ 1; 5 ]); (0, 7.25, [ 1; 5; 0 ]); (2, 3., [ 1; 5; 2 ]) ]
  in
  let rt4 = rt ~self:4 [ (0, 1., [ 4; 0 ]) ] in
  node.Node.routing_slot.Node.heard <- [ (1, rt1); (4, rt4) ];
  node.Node.routing <- Node.routing_stage.Node.recompute node;
  let d = match world with Received -> 1.5 | _ -> 0. in
  let table =
    pt
      [
        (0, [ (1, 4.5 +. d, [ 5 ]); (5, 2000. +. d, [ 5 ]) ]);
        (2, [ (5, 4.5 +. d, [ 5 ]) ]);
        (5, [ (1, 3.5 +. d, [ 5 ]) ]);
      ]
  in
  let log, send = capture () in
  Node.on_pricing_msg node send ~sender:1
    (Protocol.Update (Protocol.Pricing_update { origin = 1; table }));
  (!log, Node.self_digest Node.pricing_stage node)

let mirror_pricing deviation world =
  let node = mk ~deviation ~world () in
  let costs = base_costs () in
  (match world with State -> costs.(5) <- costs.(5) +. 41. | _ -> ());
  node.Node.costs <- costs;
  let d = match world with Received -> 1.5 | _ -> 0. in
  let rt5 = rt ~self:5 [ (0, d, [ 5; 0 ]); (2, d, [ 5; 2 ]) ] in
  let rt3 = rt ~self:3 [ (0, 99., [ 3; 4; 0 ]) ] in
  let pt5 = pt [ (0, [ (5, 2.25 +. d, [ 0 ]) ]) ] in
  let log, send = capture () in
  Node.on_routing_msg node send ~sender:1
    (Protocol.Copy
       {
         principal = 1;
         via = 5;
         inner = Protocol.Routing_update { origin = 5; table = rt5 };
       });
  Node.on_routing_msg node send ~sender:1
    (Protocol.Copy
       {
         principal = 1;
         via = 3;
         inner = Protocol.Routing_update { origin = 3; table = rt3 };
       });
  Node.on_pricing_msg node send ~sender:1
    (Protocol.Copy
       {
         principal = 1;
         via = 5;
         inner = Protocol.Pricing_update { origin = 5; table = pt5 };
       });
  ignore !log;
  Node.mirror_digest Node.pricing_stage node ~principal:1

let report_digests deviation world =
  let node = mk ~deviation ~world () in
  let costs = base_costs () in
  (match world with State -> costs.(1) <- costs.(1) +. 3.25 | _ -> ());
  node.Node.costs <- costs;
  let rt1 = rt ~self:1 [ (5, 0., [ 1; 5 ]); (0, 7.25, [ 1; 5; 0 ]) ] in
  node.Node.routing_slot.Node.heard <- [ (1, rt1) ];
  node.Node.routing <- Node.routing_stage.Node.recompute node;
  node.Node.pricing_slot.Node.heard <-
    [ (1, pt [ (0, [ (1, 4.5, [ 5 ]); (5, 9.5, [ 5 ]) ]) ]) ];
  node.Node.pricing <- Node.pricing_stage.Node.recompute node;
  String.concat "/"
    [
      Node.costs_digest node;
      Node.self_digest Node.routing_stage node;
      Node.self_digest Node.pricing_stage node;
    ]

let forward_packets deviation world =
  let node = mk ~deviation ~world () in
  node.Node.routing.(0) <-
    (match world with
    | State -> Some { Dijkstra.cost = 8.; path = [ 3; 1; 5; 0 ] }
    | _ -> Some { Dijkstra.cost = 105.; path = [ 3; 4; 0 ] });
  let rate = match world with Received -> 2.0 | _ -> 1.5 in
  let log, send = capture () in
  Node.on_packet node send ~sender:2
    (Protocol.Packet { src = 2; dst = 0; rate; trace = [ 2 ] });
  render_sends !log

let report_payments deviation world =
  let node = mk ~deviation ~world () in
  let bumped = match world with State -> true | _ -> false in
  node.Node.pricing <-
    pt
      [
        (0, [ (4, (if bumped then 3.25 else 2.5), [ 4 ]) ]);
        (5, [ (1, (if bumped then 1.75 else 1.25), [ 1 ]) ]);
      ];
  let traffic = Array.make_matrix 6 6 0. in
  traffic.(3).(0) <- (match world with Private -> 3.5 | _ -> 2.);
  traffic.(3).(5) <- 1.;
  Node.payment_report node traffic
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map (fun (transit, owed) -> Printf.sprintf "%d=%s" transit (fstr owed))
  |> String.concat " "

let harnesses =
  [
    ("declare-cost", declare_cost);
    ("flood-costs", flood_costs);
    ("forward-routing-copies", forward_copies routing_update);
    ("recompute-routing", recompute routing_update);
    ("mirror-routing", mirror_routing);
    ("forward-pricing-copies", forward_copies pricing_update);
    ("recompute-pricing", recompute pricing_update);
    ("mirror-pricing", mirror_pricing);
    ("report-digests", report_digests);
    ("forward-packets", forward_packets);
    ("report-payments", report_payments);
  ]

let observations ?(deviation = Adversary.Faithful) () =
  List.map
    (fun (action, harness) ->
      let base = harness deviation Base in
      let deps =
        List.filter_map
          (fun (world, input) ->
            if String.equal (harness deviation world) base then None
            else Some input)
          [
            (Private, Ir.Private_info);
            (Received, Ir.Received_messages);
            (State, Ir.Protocol_state);
          ]
      in
      { Taint.action; deps })
    harnesses
