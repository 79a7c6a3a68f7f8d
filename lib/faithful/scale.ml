module Graph = Damd_graph.Graph
module Sparse = Damd_fpss.Sparse

type deviation = Honest | Distort_routing of float | Distort_pricing of float

type detection = {
  culprit : int;
  phase : [ `Routing | `Pricing ];
  residual : float;
}

type report = {
  n : int;
  k : int;
  rounds_flood : int;
  rounds_routing : int;
  rounds_pricing : int;
  construction_messages : int;
  checkpoint_messages : int;
  detections : detection list;
  completed : bool;
  delivered : int;
  total_payments : float;
  total_true_cost : float;
  utilities : float array;
}

(* A source's value per delivered unit of its own traffic, and the
   residual a checker tolerates before it flags a node. *)
let value_per_packet = 100.
let tolerance = 1e-9

(* One checkpoint per construction phase: every node's announced row is
   already held by each of its neighbors (they received the
   announcements), so a checkpoint costs one honest recomputation per
   checker plus a digest exchange across every edge — 2E messages per
   phase. The recomputation itself is [Sparse.routing_deviation] /
   [pricing_deviation]; checkers holding identical announced inputs are
   unanimous, so one residual per node stands in for all deg(i) mirror
   copies (the dense [Runner] plays the per-checker version out message
   by message; at n=10k that fidelity is exactly the O(n^2) traffic this
   layer exists to avoid). *)
let checkpoint ~phase ~residual_of g detections =
  let n = Graph.n g in
  for i = 0 to n - 1 do
    let r = residual_of i in
    if r > tolerance then detections := { culprit = i; phase; residual = r } :: !detections
  done;
  2 * Graph.num_edges g

(* Execution and settlement over the announced tables: unit demand from
   every node to every destination. Senders pay the announced VCG premia;
   transits carry at their true cost. Utilities are the quasilinear form
   of DESIGN.md §5 restricted to what exists at scale: value of own
   delivered traffic minus outlays, plus transit income minus true
   carriage cost. *)
let settle g sp utilities =
  let n = Graph.n g in
  let delivered = ref 0 in
  let total_payments = ref 0. in
  let total_true_cost = ref 0. in
  Array.iter
    (fun dest ->
      for src = 0 to n - 1 do
        if src <> dest then
          match Sparse.path sp src ~dest with
          | None -> ()
          | Some path ->
              incr delivered;
              utilities.(src) <- utilities.(src) +. value_per_packet;
              List.iter
                (fun v ->
                  if v <> src && v <> dest then begin
                    let c = Graph.cost g v in
                    utilities.(v) <- utilities.(v) -. c;
                    total_true_cost := !total_true_cost +. c
                  end)
                path;
              List.iter
                (fun (k, p) ->
                  utilities.(src) <- utilities.(src) -. p;
                  utilities.(k) <- utilities.(k) +. p;
                  total_payments := !total_payments +. p)
                (Sparse.prices sp src ~dest)
      done)
    (Sparse.dests sp);
  (!delivered, !total_payments, !total_true_cost)

let run ?dests ?(deviations = fun _ -> Honest) ?obs g =
  let n = Graph.n g in
  let routing_offsets = Array.make n 0. in
  let pricing_offsets = Array.make n 0. in
  let any_routing = ref false and any_pricing = ref false in
  for i = 0 to n - 1 do
    match deviations i with
    | Honest -> ()
    | Distort_routing d ->
        routing_offsets.(i) <- d;
        any_routing := true
    | Distort_pricing d ->
        pricing_offsets.(i) <- d;
        any_pricing := true
  done;
  let sp = Sparse.create ?dests g in
  Option.iter (Sparse.set_obs sp) obs;
  Sparse.run
    ?routing_offsets:(if !any_routing then Some routing_offsets else None)
    ?pricing_offsets:(if !any_pricing then Some pricing_offsets else None)
    sp;
  let detections = ref [] in
  let chk_r =
    checkpoint ~phase:`Routing
      ~residual_of:(Sparse.routing_deviation sp)
      g detections
  in
  let chk_p =
    checkpoint ~phase:`Pricing
      ~residual_of:(Sparse.pricing_deviation sp)
      g detections
  in
  let detections = List.rev !detections in
  let completed = detections = [] in
  let utilities = Array.make n 0. in
  let delivered = ref 0 in
  let total_payments = ref 0. in
  let total_true_cost = ref 0. in
  (* Execution proceeds only on a clean checkpoint — on detection the
     mechanism halts and punishes instead of clearing traffic over known
     bad tables (the scale analogue of the bank refusing to certify). *)
  if completed then begin
    let d, tp, tc = settle g sp utilities in
    delivered := d;
    total_payments := tp;
    total_true_cost := tc
  end;
  ( {
      n;
      k = Array.length (Sparse.dests sp);
      rounds_flood = Sparse.rounds_flood sp;
      rounds_routing = Sparse.rounds_routing sp;
      rounds_pricing = Sparse.rounds_pricing sp;
      construction_messages = Sparse.messages sp;
      checkpoint_messages = chk_r + chk_p;
      detections;
      completed;
      delivered = !delivered;
      total_payments = !total_payments;
      total_true_cost = !total_true_cost;
      utilities;
    },
    sp )
