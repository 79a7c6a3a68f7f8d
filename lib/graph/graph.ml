type t = {
  n : int;
  costs : float array;
  adj : int list array;  (* sorted, no duplicates, no self-loops *)
  adj_arr : int array array;  (* same adjacency, as arrays, for hot paths *)
}

let validate_cost c =
  if not (Float.is_finite c) || c < 0. then
    invalid_arg "Graph.create: transit costs must be finite and non-negative"

let create ~n ~costs ~edges =
  if n < 0 then invalid_arg "Graph.create: negative n";
  if Array.length costs <> n then invalid_arg "Graph.create: costs length <> n";
  Array.iter validate_cost costs;
  let adj = Array.make n [] in
  let add (u, v) =
    if u < 0 || u >= n || v < 0 || v >= n then
      invalid_arg "Graph.create: edge endpoint out of range";
    if u = v then invalid_arg "Graph.create: self-loop";
    adj.(u) <- v :: adj.(u);
    adj.(v) <- u :: adj.(v)
  in
  List.iter add edges;
  let dedup l = List.sort_uniq Int.compare l in
  Array.iteri (fun i l -> adj.(i) <- dedup l) adj;
  { n; costs = Array.copy costs; adj; adj_arr = Array.map Array.of_list adj }

let n g = g.n

let cost g i = g.costs.(i)

let costs g = Array.copy g.costs

let with_cost g i c =
  validate_cost c;
  let costs = Array.copy g.costs in
  costs.(i) <- c;
  { g with costs }

let with_costs g costs =
  if Array.length costs <> g.n then invalid_arg "Graph.with_costs: length mismatch";
  Array.iter validate_cost costs;
  { g with costs = Array.copy costs }

let neighbors g i = g.adj.(i)

let neighbors_arr g i = g.adj_arr.(i)

let degree g i = Array.length g.adj_arr.(i)

let has_edge g u v = List.mem v g.adj.(u)

let edges g =
  let acc = ref [] in
  for u = g.n - 1 downto 0 do
    List.iter (fun v -> if u < v then acc := (u, v) :: !acc) g.adj.(u)
  done;
  List.sort compare !acc (* poly-ok: (int * int) edge pairs *)

let num_edges g = List.length (edges g)

let is_connected g =
  if g.n = 0 then true
  else begin
    (* Explicit-stack DFS: the recursive version overflowed the OCaml stack
       on large path-like graphs (n >= ~50k), and [Gen.ensure_biconnected]
       calls this on every generated topology. *)
    let seen = Array.make g.n false in
    let stack = Stack.create () in
    seen.(0) <- true;
    Stack.push 0 stack;
    let count = ref 1 in
    while not (Stack.is_empty stack) do
      let u = Stack.pop stack in
      Array.iter
        (fun v ->
          if not seen.(v) then begin
            seen.(v) <- true;
            incr count;
            Stack.push v stack
          end)
        g.adj_arr.(u)
    done;
    !count = g.n
  end

let fold_nodes f g acc =
  let acc = ref acc in
  for i = 0 to g.n - 1 do
    acc := f i !acc
  done;
  !acc

let hop_distances g s =
  let dist = Array.make g.n (-1) in
  dist.(s) <- 0;
  let q = Queue.create () in
  Queue.push s q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    Array.iter
      (fun v ->
        if dist.(v) = -1 then begin
          dist.(v) <- dist.(u) + 1;
          Queue.push v q
        end)
      g.adj_arr.(u)
  done;
  dist

let hop_eccentricity g s = Array.fold_left Int.max 0 (hop_distances g s)

let hop_diameter g =
  let best = ref 0 in
  for v = 0 to g.n - 1 do
    let e = hop_eccentricity g v in
    if e > !best then best := e
  done;
  !best

let to_dot ?(highlight = []) g =
  let norm (u, v) = if u < v then (u, v) else (v, u) in
  let hl = List.map norm highlight in
  let buf = Buffer.create 256 in
  Buffer.add_string buf "graph damd {\n";
  for i = 0 to g.n - 1 do
    Buffer.add_string buf (Printf.sprintf "  n%d [label=\"%d (c=%g)\"];\n" i i g.costs.(i))
  done;
  List.iter
    (fun (u, v) ->
      let style = if List.mem (u, v) hl then " [style=bold,penwidth=2]" else "" in
      Buffer.add_string buf (Printf.sprintf "  n%d -- n%d%s;\n" u v style))
    (edges g);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
