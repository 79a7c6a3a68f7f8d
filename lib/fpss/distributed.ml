module Graph = Damd_graph.Graph

type result = {
  tables : Tables.t;
  rounds_flood : int;
  rounds_routing : int;
  rounds_pricing : int;
  messages : int;
}

(* DATA1: synchronous flooding of (node, cost) announcements. Each round a
   node forwards any facts it learned in the previous round to all
   neighbors; one message per (node, neighbor) per round with news. *)
let flood_costs g =
  let n = Graph.n g in
  let known = Array.init n (fun _ -> Array.make n false) in
  let fresh = Array.init n (fun i -> [ i ]) in
  for i = 0 to n - 1 do
    known.(i).(i) <- true
  done;
  let rounds = ref 0 and messages = ref 0 in
  let active = ref (n > 1) in
  while !active do
    incr rounds;
    let next_fresh = Array.make n [] in
    let progress = ref false in
    for i = 0 to n - 1 do
      if fresh.(i) <> [] then
        Array.iter
          (fun a ->
            incr messages;
            List.iter
              (fun fact ->
                if not known.(a).(fact) then begin
                  known.(a).(fact) <- true;
                  next_fresh.(a) <- fact :: next_fresh.(a);
                  progress := true
                end)
              fresh.(i))
          (Graph.neighbors_arr g i)
    done;
    Array.blit next_fresh 0 fresh 0 n;
    active := !progress
  done;
  (* The final round carried no news; don't count it as convergence work. *)
  (max 0 (!rounds - 1), !messages)

(* DATA2 and DATA3 are [Sparse]'s fixpoints over every destination,
   converged by [Sparse.rerun] from the fresh state. The full n-fact flood
   above replaces [Sparse.flood]'s destination-only accounting, so
   [Sparse.messages] counts the two fixpoints alone. *)
let run g =
  let rounds_flood, flood_msgs = flood_costs g in
  let sp = Sparse.create g in
  Sparse.rerun sp;
  {
    tables = Sparse.to_tables sp;
    rounds_flood;
    rounds_routing = Sparse.rounds_routing sp;
    rounds_pricing = Sparse.rounds_pricing sp;
    messages = flood_msgs + Sparse.messages sp;
  }
