module Graph = Damd_graph.Graph
module Dijkstra = Damd_graph.Dijkstra
module Obs = Damd_obs.Obs

let by_transit (a, x) (b, y) =
  let c = Int.compare a b in
  if c <> 0 then c else Float.compare x y

type t = {
  mutable g : Graph.t;  (* mutable for [update_cost] warm restarts *)
  dests : int array;  (* sorted destination nodes; slot s <-> dests.(s) *)
  dest_of : int array;  (* node -> slot, -1 when not a destination *)
  k : int;
  (* Flat n*k state, indexed i*k + s. Dense tables allocate n^2
     option/record cells per table (~100M at n=10k); here routing is three
     unboxed scalars per (node, destination) pair and the path is implicit
     in the next-hop chain, so memory is O(n*k) + O(route entries). *)
  dist : float array;  (* announced route cost; infinity = unreachable *)
  hops : int array;  (* announced path length in nodes; 0 = none *)
  next : int array;  (* announced next hop; -1 = none, self at the dest *)
  prices : (int * float) list array;  (* announced transit prices, sorted *)
  mutable rounds_flood : int;
  mutable rounds_routing : int;
  mutable rounds_pricing : int;
  mutable messages : int;
  mutable recomputes : int;
  mutable obs : Obs.t;
}

let create ?dests g =
  let n = Graph.n g in
  let dests =
    match dests with
    | None -> Array.init n Fun.id
    | Some d ->
        let d = Array.copy d in
        Array.sort Int.compare d;
        d
  in
  let k = Array.length dests in
  if k = 0 then invalid_arg "Sparse.create: empty destination set";
  let dest_of = Array.make n (-1) in
  Array.iteri
    (fun s j ->
      if j < 0 || j >= n then invalid_arg "Sparse.create: destination out of range";
      if dest_of.(j) >= 0 then invalid_arg "Sparse.create: duplicate destination";
      dest_of.(j) <- s)
    dests;
  {
    g;
    dests;
    dest_of;
    k;
    dist = Array.make (n * k) infinity;
    hops = Array.make (n * k) 0;
    next = Array.make (n * k) (-1);
    prices = Array.make (n * k) [];
    rounds_flood = 0;
    rounds_routing = 0;
    rounds_pricing = 0;
    messages = 0;
    recomputes = 0;
    obs = Obs.noop;
  }

let graph t = t.g
let dests t = Array.copy t.dests
let messages t = t.messages
let recomputes t = t.recomputes
let set_obs t obs = t.obs <- obs
let rounds_flood t = t.rounds_flood
let rounds_routing t = t.rounds_routing
let rounds_pricing t = t.rounds_pricing

let slot t j =
  if j < 0 || j >= Graph.n t.g || t.dest_of.(j) < 0 then
    invalid_arg "Sparse: not a destination"
  else t.dest_of.(j)

let idx t i s = (i * t.k) + s

let dist t i ~dest = t.dist.(idx t i (slot t dest))
let hop_count t i ~dest = t.hops.(idx t i (slot t dest))

let next_hop t i ~dest =
  let nx = t.next.(idx t i (slot t dest)) in
  if nx < 0 then None else Some nx

let prices t i ~dest = t.prices.(idx t i (slot t dest))

(* Reconstruct the announced path by walking next-hop pointers. At a
   routing fixpoint [hops] strictly decreases along the chain, so the walk
   terminates in [hops] steps; the explicit bound only guards calls on
   unconverged state. *)
let path t i ~dest =
  let s = slot t dest in
  if t.next.(idx t i s) < 0 then None
  else begin
    let n = Graph.n t.g in
    let rec go v acc steps =
      if steps > n then None
      else if v = dest then Some (List.rev (dest :: acc))
      else
        let nx = t.next.(idx t v s) in
        if nx < 0 then None else go nx (v :: acc) (steps + 1)
    in
    go i [] 0
  end

(* Is [node] on the announced path from [v0] to [dests.(s)], endpoints
   included? Mirrors [List.mem node path] on dense tables. *)
let chain_mem t ~from:v0 ~s ~node =
  let j = t.dests.(s) in
  let n = Graph.n t.g in
  let rec go v steps =
    if steps > n then false
    else if v = node then true
    else if v = j then false
    else
      let nx = t.next.(idx t v s) in
      if nx < 0 then false else go nx (steps + 1)
  in
  go v0 0

(* DATA1 at scale: only the [k] destination (identity, cost) facts flood —
   each fact crosses every directed edge once, and the rounds to quiesce
   are the largest hop-eccentricity among the destinations. The full
   n-fact flood of [Distributed.flood_costs] is O(n*E) messages, which is
   exactly the kind of all-pairs traffic the destination-restricted
   protocol avoids; transit costs of intermediate nodes ride inside the
   routing announcements themselves (each hop adds its own cost before
   forwarding), so no separate global flood is needed. *)
let flood t =
  let ecc =
    Array.fold_left
      (fun acc j -> max acc (Graph.hop_eccentricity t.g j))
      0 t.dests
  in
  t.rounds_flood <- ecc;
  t.messages <- t.messages + (t.k * 2 * Graph.num_edges t.g)

(* DATA2: path-vector Bellman-Ford under the canonical (cost, hops, lex
   path) order, on flat state. For candidates [i :: path_a] vs
   [i :: path_a'] from distinct neighbors a <> a', the lex comparison
   reduces to [Int.compare a a'] — so (cost, hops, neighbor id) is
   *exactly* the canonical tie-break, and since [neighbors_arr] is sorted
   ascending a strict improvement test keeps the smallest neighbor on
   ties. No explicit loop check is needed from a cold start: a walk that
   revisits a node costs at least as much as its loop-free core and is
   strictly longer, so under the canonical order looping candidates can
   never win, and distances descend monotonically to the unique LCP
   fixpoint (this is why [recompute] is a pure function of the neighbors'
   (dist, hops) entries — the invariant the dirty-set propagation needs).

   [offsets], when given, models rational cost distortion: node i's
   *announced* entry is its honest recomputation plus [offsets.(i)]
   (diagonals excepted). The fixpoint then runs over announced rows, so
   honest mirrors recomputed from announced inputs agree everywhere
   except at the distorting nodes themselves — see [routing_deviation].
   Offsets must keep effective link costs non-negative. *)
let recompute_routing t i s =
  let j = t.dests.(s) in
  let best_d = ref infinity and best_h = ref 0 and best_a = ref (-1) in
  Array.iter
    (fun a ->
      let da = t.dist.(idx t a s) in
      if Float.is_finite da then begin
        let step = if a = j then 0. else Graph.cost t.g a in
        let d = da +. step in
        let h = t.hops.(idx t a s) + 1 in
        if
          d < !best_d
          || (d = !best_d && (h < !best_h || (h = !best_h && !best_a < 0)))
        then begin
          best_d := d;
          best_h := h;
          best_a := a
        end
      end)
    (Graph.neighbors_arr t.g i);
  (!best_d, !best_h, !best_a)

(* Change-driven Jacobi fixpoint on flat state (DESIGN.md §9). Invariant:
   a (node, slot) entry computed in round r is a pure function of the
   neighbors' entries for that slot at round r-1, so it can only differ
   from its round r-1 value when some neighbor's entry for the slot
   changed in round r-1. [dirty.(a)] holds exactly the slots whose entry
   at [a] changed last round, and a node recomputes only the union of its
   neighbors' dirty slots. Round 1 recomputes everything, which matches a
   cold full sweep and also repairs the stale state of a warm restart.
   Updates are buffered and applied after the round, so every
   recomputation reads round r-1 state — the full sweep's schedule: from a
   cold start the per-round changed-node sets, and so the round and
   message counts, are the full sweep's (a changed node announces to all
   neighbors: degree messages). The budget is 10n+20 rounds per stage. *)
let fixpoint ~stage ~changed ~recompute ~apply t =
  let g = t.g in
  let n = Graph.n g in
  let max_rounds = (10 * n) + 20 in
  let rounds = ref 0 in
  let dirty = Array.make n [] in
  let stamp = Array.make t.k (-1) in
  let epoch = ref 0 in
  let first = ref true in
  let changed_nodes = ref (List.init n Fun.id) in
  while !changed_nodes <> [] do
    incr rounds;
    if !rounds > max_rounds then
      failwith (Printf.sprintf "Sparse: %s did not converge" stage);
    List.iter
      (fun i -> t.messages <- t.messages + Graph.degree g i)
      !changed_nodes;
    let updates = ref [] in
    let round_changed = ref [] in
    let next_dirty = Array.make n [] in
    for i = 0 to n - 1 do
      let row_changed = ref false in
      let consider s =
        if t.dests.(s) <> i then begin
          t.recomputes <- t.recomputes + 1;
          let v = recompute i s in
          if changed i s v then begin
            updates := (i, s, v) :: !updates;
            next_dirty.(i) <- s :: next_dirty.(i);
            row_changed := true
          end
        end
      in
      if !first then
        for s = 0 to t.k - 1 do
          consider s
        done
      else begin
        incr epoch;
        Array.iter
          (fun a ->
            List.iter
              (fun s ->
                if stamp.(s) <> !epoch then begin
                  stamp.(s) <- !epoch;
                  consider s
                end)
              dirty.(a))
          (Graph.neighbors_arr g i)
      end;
      if !row_changed then round_changed := i :: !round_changed
    done;
    List.iter (fun (i, s, v) -> apply i s v) !updates;
    (* Per-round dirty-set telemetry: how many nodes changed and how
       many (node, slot) pairs they re-announced. *)
    if Obs.enabled t.obs then begin
      Obs.sample t.obs
        (Printf.sprintf "sparse.%s.dirty_nodes" stage)
        (float_of_int (List.length !round_changed));
      Obs.sample t.obs
        (Printf.sprintf "sparse.%s.dirty_pairs" stage)
        (float_of_int (List.length !updates))
    end;
    Array.blit next_dirty 0 dirty 0 n;
    changed_nodes := !round_changed;
    first := false
  done;
  max 0 (!rounds - 1)

let routing ?offsets t =
  let off i = match offsets with None -> 0. | Some o -> o.(i) in
  Array.iteri
    (fun s j ->
      let ix = idx t j s in
      t.dist.(ix) <- 0.;
      t.hops.(ix) <- 1;
      t.next.(ix) <- j)
    t.dests;
  let recompute i s =
    let d, h, a = recompute_routing t i s in
    if a >= 0 then (d +. off i, h, a) else (d, h, a)
  in
  let changed i s (d, h, a) =
    let ix = idx t i s in
    not (Float.equal d t.dist.(ix)) || h <> t.hops.(ix) || a <> t.next.(ix)
  in
  let apply i s (d, h, a) =
    let ix = idx t i s in
    t.dist.(ix) <- d;
    t.hops.(ix) <- h;
    t.next.(ix) <- a
  in
  let r0 = t.recomputes in
  t.rounds_routing <-
    Obs.span t.obs ~cat:"fpss" "sparse.routing" (fun () ->
        fixpoint ~stage:"routing" ~changed ~recompute ~apply t);
  if Obs.enabled t.obs then
    Obs.instant t.obs ~cat:"fpss"
      ~args:
        [
          ("rounds", Damd_util.Json.Int t.rounds_routing);
          ("recomputes", Damd_util.Json.Int (t.recomputes - r0));
        ]
      "sparse.routing.done"

(* DATA3: the pricing recurrence (DESIGN.md §5, "Distributed pricing
   recurrence") on announced sparse routing state. Runs only after routing
   converged, so next-hop chains are stable and loop-free and [chain_mem]
   is an exact stand-in for [List.mem k path] on the dense tables. *)
let recompute_pricing t i s =
  let j = t.dests.(s) in
  if t.next.(idx t i s) < 0 then []
  else begin
    let transits =
      (* Interior of i's announced path: next-hop chain minus endpoints. *)
      let rec go v acc =
        if v = j then acc
        else
          let nx = t.next.(idx t v s) in
          if nx < 0 then acc else go nx (v :: acc)
      in
      go t.next.(idx t i s) []
    in
    let d_ij = t.dist.(idx t i s) in
    let price_for k =
      (* d(-k)(i,j) via each neighbor a <> k. *)
      let via a =
        if a = k then infinity
        else begin
          let step = if a = j then 0. else Graph.cost t.g a in
          let d_mk_a =
            if a = j then 0.
            else if not (chain_mem t ~from:a ~s ~node:k) then t.dist.(idx t a s)
            else
              match List.assoc_opt k t.prices.(idx t a s) with
              | Some p -> p -. Graph.cost t.g k +. t.dist.(idx t a s)
              | None -> infinity
          in
          step +. d_mk_a
        end
      in
      let d_mk =
        Array.fold_left
          (fun acc a -> Float.min acc (via a))
          infinity
          (Graph.neighbors_arr t.g i)
      in
      if Float.is_finite d_mk then Some (k, Graph.cost t.g k +. d_mk -. d_ij)
      else None
    in
    List.filter_map price_for transits |> List.sort by_transit
  end

let pricing ?offsets t =
  let recompute i s =
    match offsets with
    | None -> recompute_pricing t i s
    | Some o ->
        if o.(i) = 0. then recompute_pricing t i s
        else List.map (fun (k, p) -> (k, p +. o.(i))) (recompute_pricing t i s)
  in
  let changed i s v = v <> t.prices.(idx t i s) in
  let apply i s v = t.prices.(idx t i s) <- v in
  let r0 = t.recomputes in
  t.rounds_pricing <-
    Obs.span t.obs ~cat:"fpss" "sparse.pricing" (fun () ->
        fixpoint ~stage:"pricing" ~changed ~recompute ~apply t);
  if Obs.enabled t.obs then
    Obs.instant t.obs ~cat:"fpss"
      ~args:
        [
          ("rounds", Damd_util.Json.Int t.rounds_pricing);
          ("recomputes", Damd_util.Json.Int (t.recomputes - r0));
        ]
      "sparse.pricing.done"

let run ?routing_offsets ?pricing_offsets t =
  flood t;
  routing ?offsets:routing_offsets t;
  pricing ?offsets:pricing_offsets t

(* --- Warm restarts ---

   After a transit-cost change the old announced state is a valid Jacobi
   starting point: the fixpoint's first round recomputes every (node,
   slot) pair against the new costs, and iteration descends (decrease) or
   inflates stale loop-carried candidates until the true alternative wins
   (increase — the count-to-infinity walk is bounded because every loop
   traversal adds at least the minimum positive transit cost, so it dies
   within the default round budget). The fixpoint itself is unique
   independent of the starting point: distances are the unique shortest
   values, next hops the smallest neighbor attaining them, and the
   pricing recurrence's cross-node dependencies follow announced chains
   toward the destination (strictly decreasing hop counts), so stale
   price entries cannot sustain a self-consistent wrong cycle. Hence a
   warm rerun lands on byte-identical state to a cold run — the property
   the differential tests pin against the centralized tables and against
   the full-sweep reference's warm start, which cuts stale loops with a
   path-vector loop check and so may take a different number of
   rounds. *)

let update_cost t i c =
  if i < 0 || i >= Graph.n t.g then invalid_arg "Sparse.update_cost: node";
  if c < 0. || not (Float.is_finite c) then
    invalid_arg "Sparse.update_cost: bad cost";
  t.g <- Graph.with_cost t.g i c

let rerun t =
  (* No flood: the [k] destination identities are already common
     knowledge, and changed transit costs ride inside the routing
     announcements themselves. *)
  routing t;
  pricing t

(* --- Mirror checkpoints ---

   A checker holds the announced rows of a node's neighbors (it receives
   the same announcements), so it can apply one honest recomputation step
   F to them and compare the result with what the node itself announced.
   Because the fixpoint above runs over *announced* rows, an honest
   node's announcement IS F(announced neighbors) and the residual is 0;
   a node distorting by delta shows residual |delta|. Structural lies
   (wrong next hop / wrong transit set) surface as an infinite
   residual. *)

let routing_deviation t i =
  let dev = ref 0. in
  for s = 0 to t.k - 1 do
    if t.dests.(s) <> i then begin
      let d, h, a = recompute_routing t i s in
      let ix = idx t i s in
      if h <> t.hops.(ix) || a <> t.next.(ix) then dev := infinity
      else if Float.is_finite d || Float.is_finite t.dist.(ix) then begin
        let delta = Float.abs (t.dist.(ix) -. d) in
        if delta > !dev then dev := delta
      end
    end
  done;
  !dev

let pricing_deviation t i =
  let dev = ref 0. in
  for s = 0 to t.k - 1 do
    if t.dests.(s) <> i then begin
      let honest = recompute_pricing t i s in
      let stored = t.prices.(idx t i s) in
      if List.compare_lengths honest stored <> 0 then dev := infinity
      else
        List.iter2
          (fun (k1, p1) (k2, p2) ->
            if k1 <> k2 then dev := infinity
            else begin
              let delta = Float.abs (p1 -. p2) in
              if delta > !dev then dev := delta
            end)
          honest stored
    end
  done;
  !dev

(* --- Dense oracle bridge --- *)

let to_tables t =
  let n = Graph.n t.g in
  if t.k <> n then invalid_arg "Sparse.to_tables: needs the full destination set";
  let routing =
    Array.init n (fun i ->
        Array.init n (fun j ->
            let s = t.dest_of.(j) in
            match path t i ~dest:j with
            | None -> None
            | Some p -> Some { Dijkstra.cost = t.dist.(idx t i s); path = p }))
  in
  let prices =
    Array.init n (fun i ->
        Array.init n (fun j -> t.prices.(idx t i (t.dest_of.(j)))))
  in
  { Tables.routing; prices }

(* Rough live-heap footprint of the state arrays, in words — used by the
   scaling bench to show O(n*k) memory. *)
let state_words t =
  let nk = Array.length t.dist in
  let price_words =
    Array.fold_left
      (fun acc l -> acc + (List.length l * 5) (* cons + boxed pair *))
      0 t.prices
  in
  (* dist (boxed float array = 1 word/elt) + hops + next + prices slots *)
  (4 * nk) + price_words
