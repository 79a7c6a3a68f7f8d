(* The full-sweep FPSS fixpoints: every round recomputes all n^2 table
   entries from the neighbours' previous-round entries and compares whole
   rows. This is the oracle for [Damd_fpss.Sparse] (and so for
   [Distributed.run], its all-destinations view) and for the faithful
   protocol's per-node handlers. The tests assert identical tables, round
   counts and message counts from a cold start and for the protocol's
   warm start; a [Sparse.rerun] warm restart must reach the same tables.
   Routing keeps the path-vector loop check that [Sparse] drops, so after
   a cost change the two can take different rounds to converge. Warm
   starts assume strictly positive costs: with a zero-cost node the warm
   pricing sweep below can fail to converge. *)

module Graph = Damd_graph.Graph
module Gen = Damd_graph.Gen
module Dijkstra = Damd_graph.Dijkstra
module Tables = Damd_fpss.Tables
module Distributed = Damd_fpss.Distributed

let by_transit (a, x) (b, y) =
  let c = Int.compare a b in
  if c <> 0 then c else Float.compare x y

let infinity_cost = infinity

let reference_routing_fixpoint ?(max_rounds = 1000) ?init g =
  let n = Graph.n g in
  let state =
    match init with
    | Some (tables : Dijkstra.entry option array array) ->
        Array.map Array.copy tables
    | None -> Array.init n (fun _ -> Array.make n None)
  in
  for i = 0 to n - 1 do
    state.(i).(i) <- Some { Dijkstra.cost = 0.; path = [ i ] }
  done;
  let rounds = ref 0 and messages = ref 0 in
  let changed_nodes = ref (List.init n (fun i -> i)) in
  while !changed_nodes <> [] do
    incr rounds;
    if !rounds > max_rounds then failwith "Distributed: routing did not converge";
    List.iter (fun i -> messages := !messages + Graph.degree g i) !changed_nodes;
    let next = Array.init n (fun _ -> Array.make n None) in
    let round_changed = ref [] in
    for i = 0 to n - 1 do
      next.(i).(i) <- Some { Dijkstra.cost = 0.; path = [ i ] };
      for j = 0 to n - 1 do
        if i <> j then begin
          let consider best a =
            match state.(a).(j) with
            | Some e when not (List.mem i e.Dijkstra.path) ->
                let step = if a = j then 0. else Graph.cost g a in
                let cand =
                  { Dijkstra.cost = e.Dijkstra.cost +. step; path = i :: e.Dijkstra.path }
                in
                (match best with
                | None -> Some cand
                | Some b -> if Dijkstra.compare_entry cand b < 0 then Some cand else best)
            | _ -> best
          in
          next.(i).(j) <- List.fold_left consider None (Graph.neighbors g i)
        end
      done;
      if next.(i) <> state.(i) then round_changed := i :: !round_changed
    done;
    Array.blit next 0 state 0 n;
    changed_nodes := !round_changed
  done;
  (state, max 0 (!rounds - 1), !messages)

let reference_pricing_fixpoint ?(max_rounds = 1000) ?init g routing =
  let n = Graph.n g in
  let dist i j =
    match routing.(i).(j) with
    | Some e -> e.Dijkstra.cost
    | None -> infinity_cost
  in
  let on_path k i j =
    match routing.(i).(j) with
    | Some e -> List.mem k e.Dijkstra.path
    | None -> false
  in
  let state =
    match init with
    | Some (prices : (int * float) list array array) -> Array.map Array.copy prices
    | None -> Array.init n (fun _ -> Array.make n ([] : (int * float) list))
  in
  let rounds = ref 0 and messages = ref 0 in
  let changed_nodes = ref (List.init n (fun i -> i)) in
  while !changed_nodes <> [] do
    incr rounds;
    if !rounds > max_rounds then failwith "Distributed: pricing did not converge";
    List.iter (fun i -> messages := !messages + Graph.degree g i) !changed_nodes;
    let next = Array.init n (fun _ -> Array.make n ([] : (int * float) list)) in
    let round_changed = ref [] in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if i <> j then
          match routing.(i).(j) with
          | None -> ()
          | Some e ->
              let price_for k =
                let via a =
                  if a = k then infinity_cost
                  else begin
                    let step = if a = j then 0. else Graph.cost g a in
                    let d_mk_a =
                      if a = j then 0.
                      else if not (on_path k a j) then dist a j
                      else
                        match List.assoc_opt k state.(a).(j) with
                        | Some p -> p -. Graph.cost g k +. dist a j
                        | None -> infinity_cost
                    in
                    step +. d_mk_a
                  end
                in
                let d_mk =
                  List.fold_left (fun acc a -> Float.min acc (via a)) infinity_cost
                    (Graph.neighbors g i)
                in
                if Float.is_finite d_mk then
                  Some (k, Graph.cost g k +. d_mk -. dist i j)
                else None
              in
              next.(i).(j) <-
                List.filter_map price_for (Dijkstra.transit_nodes e.Dijkstra.path)
                |> List.sort by_transit
      done;
      if next.(i) <> state.(i) then round_changed := i :: !round_changed
    done;
    Array.blit next 0 state 0 n;
    changed_nodes := !round_changed
  done;
  (state, max 0 (!rounds - 1), !messages)

let run_reference ?max_rounds ?warm_start g =
  let n = Graph.n g in
  let max_rounds = match max_rounds with Some r -> r | None -> (10 * n) + 20 in
  let rounds_flood, flood_msgs = Distributed.flood_costs g in
  let routing_init = Option.map (fun t -> t.Tables.routing) warm_start in
  let pricing_init = Option.map (fun t -> t.Tables.prices) warm_start in
  let routing, rounds_routing, routing_msgs =
    reference_routing_fixpoint ~max_rounds ?init:routing_init g
  in
  let prices, rounds_pricing, pricing_msgs =
    reference_pricing_fixpoint ~max_rounds ?init:pricing_init g routing
  in
  {
    Distributed.tables = { Tables.routing; prices };
    rounds_flood;
    rounds_routing;
    rounds_pricing;
    messages = flood_msgs + routing_msgs + pricing_msgs;
  }

(* A graph from one of the families the oracle tests draw: Erdős–Rényi
   with zero-cost nodes (density from [p] in [0, 1]), chordal rings,
   AS-like power-law graphs, or Waxman graphs with float costs. [seed]
   picks the family ([seed / 10 mod 4]) and the size (6 to 15 nodes).
   Every family but Erdős–Rényi has strictly positive costs. *)
let random_graph rng ~seed ~p =
  let n = 6 + (seed mod 10) in
  match seed / 10 mod 4 with
  | 0 -> Gen.erdos_renyi rng ~n ~p:(0.2 +. (p *. 0.4)) (Gen.Uniform_int (0, 10))
  | 1 -> Gen.chordal_ring rng ~n ~chords:(n / 4) (Gen.Uniform_int (1, 10))
  | 2 -> fst (Gen.as_like rng ~n ~m:2 (Gen.Uniform_int (1, 10)))
  | _ -> Gen.waxman rng ~n ~alpha:0.7 ~beta:0.4 (Gen.Uniform_float (0.1, 5.))
