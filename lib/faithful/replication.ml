module Graph = Damd_graph.Graph
module Engine = Damd_sim.Engine

type flood_msg = {
  origin : int;
  seq : int;
  inner : Protocol.update;
}

type result = {
  messages : int;
  bytes : int;
  tables_match : bool;
  mirrors_complete : bool;
  sim_time : float;
}

type node_state = {
  id : int;
  neighbors : int list;
  mutable costs : float array;
  (* latest flooded state per origin — the global view *)
  seen_seq : int array;
  global_routing : Protocol.routing_table option array;
  global_pricing : Protocol.pricing_table option array;
  mutable own_seq : int;
  mutable routing : Protocol.routing_table;
  mutable pricing : Protocol.pricing_table;
}

let run g =
  let n = Graph.n g in
  let neighbor_sets = Array.init n (Graph.neighbors g) in
  let states =
    Array.init n (fun id ->
        {
          id;
          neighbors = neighbor_sets.(id);
          costs = Graph.costs g;
          seen_seq = Array.make n (-1);
          global_routing = Array.make n None;
          global_pricing = Array.make n None;
          own_seq = 0;
          routing = Protocol.empty_routing ~n ~self:id;
          pricing = Protocol.empty_pricing ~n;
        })
  in
  let engine : flood_msg Engine.t = Engine.create ~n () in
  Engine.set_size engine (fun m ->
      12
      +
      match m.inner with
      | Protocol.Cost_announce _ -> 12
      | Protocol.Routing_update { table; _ } ->
          Protocol.msg_size (Protocol.Update (Protocol.Routing_update { origin = 0; table }))
      | Protocol.Pricing_update { table; _ } ->
          Protocol.msg_size (Protocol.Update (Protocol.Pricing_update { origin = 0; table })));
  let flood_from i msg ~except =
    List.iter
      (fun nbr -> if Some nbr <> except then Engine.send engine ~src:i ~dst:nbr msg)
      states.(i).neighbors
  in
  let announce i inner =
    let s = states.(i) in
    s.own_seq <- s.own_seq + 1;
    let msg = { origin = i; seq = s.own_seq; inner } in
    (* keep our own global view current too *)
    s.seen_seq.(i) <- s.own_seq;
    (match inner with
    | Protocol.Routing_update { table; _ } -> s.global_routing.(i) <- Some table
    | Protocol.Pricing_update { table; _ } -> s.global_pricing.(i) <- Some table
    | Protocol.Cost_announce _ -> ());
    flood_from i msg ~except:None
  in
  let neighbor_routing s =
    List.filter_map
      (fun a -> Option.map (fun t -> (a, t)) s.global_routing.(a))
      s.neighbors
  in
  let neighbor_pricing s =
    List.filter_map
      (fun a -> Option.map (fun t -> (a, t)) s.global_pricing.(a))
      s.neighbors
  in
  let recompute_and_announce_routing i =
    let s = states.(i) in
    let table =
      Protocol.recompute_routing ~self:i ~n ~costs:s.costs
        ~neighbor_tables:(neighbor_routing s)
    in
    if not (Protocol.routing_equal table s.routing) then begin
      s.routing <- table;
      announce i (Protocol.Routing_update { origin = i; table })
    end
  in
  let recompute_and_announce_pricing i =
    let s = states.(i) in
    let table =
      Protocol.recompute_pricing ~self:i ~costs:s.costs ~own_routing:s.routing
        ~neighbor_routing:(neighbor_routing s) ~neighbor_pricing:(neighbor_pricing s)
    in
    if not (Protocol.pricing_equal table s.pricing) then begin
      s.pricing <- table;
      announce i (Protocol.Pricing_update { origin = i; table })
    end
  in
  let phase = ref `Routing in
  for i = 0 to n - 1 do
    Engine.set_handler engine i (fun ~sender msg ->
        let s = states.(i) in
        if msg.seq > s.seen_seq.(msg.origin) then begin
          s.seen_seq.(msg.origin) <- msg.seq;
          (match msg.inner with
          | Protocol.Cost_announce _ -> ()
          | Protocol.Routing_update { table; _ } -> s.global_routing.(msg.origin) <- Some table
          | Protocol.Pricing_update { table; _ } -> s.global_pricing.(msg.origin) <- Some table);
          (* gossip on: full replication means everyone sees everything *)
          flood_from i msg ~except:(Some sender);
          if List.mem msg.origin s.neighbors then
            match !phase with
            | `Routing -> recompute_and_announce_routing i
            | `Pricing -> recompute_and_announce_pricing i
        end)
  done;
  (* routing stage *)
  phase := `Routing;
  for i = 0 to n - 1 do
    announce i (Protocol.Routing_update { origin = i; table = states.(i).routing })
  done;
  (match Engine.run engine with
  | Engine.Quiescent -> ()
  | Engine.Event_limit -> failwith "Replication: routing did not quiesce");
  (* pricing stage: reset sequence space by continuing (seq keeps rising) *)
  phase := `Pricing;
  for i = 0 to n - 1 do
    let s = states.(i) in
    s.pricing <-
      Protocol.recompute_pricing ~self:i ~costs:s.costs ~own_routing:s.routing
        ~neighbor_routing:(neighbor_routing s) ~neighbor_pricing:(neighbor_pricing s);
    announce i (Protocol.Pricing_update { origin = i; table = s.pricing })
  done;
  (match Engine.run engine with
  | Engine.Quiescent -> ()
  | Engine.Event_limit -> failwith "Replication: pricing did not quiesce");
  (* verification *)
  let centralized = Damd_fpss.Pricing.compute g in
  let built =
    {
      Damd_fpss.Tables.routing = Array.init n (fun i -> states.(i).routing);
      prices =
        Array.init n (fun i -> Array.map Protocol.price_pairs states.(i).pricing);
    }
  in
  let tables_match =
    Damd_fpss.Tables.routing_equal built centralized
    && Damd_fpss.Tables.prices_equal built centralized
  in
  (* every node holds every principal's final announcements, so any node
     can mirror any principal: check the global views are complete and
     agree with the principals' actual tables *)
  let mirrors_complete =
    Array.for_all
      (fun s ->
        Array.for_all (fun v -> v) (Array.init n (fun p ->
            match s.global_routing.(p) with
            | Some t -> Protocol.routing_equal t states.(p).routing
            | None -> false)))
      states
  in
  {
    messages = Engine.messages_sent engine;
    bytes = Engine.bytes_sent engine;
    tables_match;
    mirrors_complete;
    sim_time = Engine.now engine;
  }
