type t = {
  nodes : int;
  edges : int;
  min_degree : int;
  max_degree : int;
  mean_degree : float;
  hop_diameter : int;
  mean_hop_distance : float;
  clustering : float;
  biconnected : bool;
}

let local_clustering g v =
  let nbrs = Graph.neighbors g v in
  let k = List.length nbrs in
  if k < 2 then 0.
  else begin
    let closed = ref 0 in
    List.iter
      (fun a -> List.iter (fun b -> if a < b && Graph.has_edge g a b then incr closed) nbrs)
      nbrs;
    2. *. float_of_int !closed /. float_of_int (k * (k - 1))
  end

let compute g =
  let n = Graph.n g in
  let degrees = List.init n (Graph.degree g) in
  let mean xs =
    match xs with
    | [] -> 0.
    | _ -> float_of_int (List.fold_left ( + ) 0 xs) /. float_of_int (List.length xs)
  in
  let diameter = ref 0 and dist_sum = ref 0 and dist_count = ref 0 in
  for s = 0 to n - 1 do
    let dist = Graph.hop_distances g s in
    Array.iteri
      (fun v d ->
        if v <> s && d >= 0 then begin
          if d > !diameter then diameter := d;
          dist_sum := !dist_sum + d;
          incr dist_count
        end)
      dist
  done;
  let clustering =
    if n = 0 then 0.
    else begin
      let acc = ref 0. in
      for v = 0 to n - 1 do
        acc := !acc +. local_clustering g v
      done;
      !acc /. float_of_int n
    end
  in
  {
    nodes = n;
    edges = Graph.num_edges g;
    min_degree = List.fold_left min max_int (if degrees = [] then [ 0 ] else degrees);
    max_degree = List.fold_left max 0 degrees;
    mean_degree = mean degrees;
    hop_diameter = !diameter;
    mean_hop_distance =
      (if !dist_count = 0 then 0. else float_of_int !dist_sum /. float_of_int !dist_count);
    clustering;
    biconnected = Biconnect.is_biconnected g;
  }

let degree_histogram g =
  let tbl = Hashtbl.create 16 in
  for v = 0 to Graph.n g - 1 do
    let d = Graph.degree g v in
    Hashtbl.replace tbl d (1 + Option.value ~default:0 (Hashtbl.find_opt tbl d))
  done;
  Hashtbl.fold (fun d c acc -> (d, c) :: acc) tbl []
  |> List.sort compare (* poly-ok: (int * int) histogram rows *)
