(* Workload [scale]: the faithful pass at n = 10 000, then a stream of
   warm single-node cost updates on the converged state.

   Set-up generates [as:10000:2] from a fixed graph seed with 8 spread
   destinations; the workload seed draws the update stream. One cold
   [Scale.run] is timed on its own; each op is [Sparse.update_cost] +
   [Sparse.rerun]. After the stream the warm state must equal a cold
   [Sparse.run] on the updated graph, cell for cell.

   Why a fixed graph: a warm update's cost depends on the graph, and a
   graph drawn per seed moved the median op by up to 25% between seeds
   (the same two seeds kept their order when run again). A fixed graph
   leaves the update stream and timing noise between seeds. *)

open Measure
module Gen = Damd_graph.Gen
module Graph = Damd_graph.Graph
module Rng = Damd_util.Rng
module Sparse = Damd_fpss.Sparse
module Scale = Damd_faithful.Scale

let n = 10_000
let value_per_packet = 100.

let graph_seed = 42

let fixture () =
  let rng = Rng.create graph_seed in
  let g, _relations = Gen.as_like rng ~n ~m:2 (Gen.Uniform_int (1, 10)) in
  (g, Array.init 8 (fun i -> i * n / 8))

(* Σu = value·delivered − true cost: payments are transfers between
   nodes, so they cancel out of the total. *)
let welfare_ok (r : Scale.report) =
  let total = Array.fold_left ( +. ) 0. r.Scale.utilities in
  let expected =
    (value_per_packet *. float_of_int r.Scale.delivered) -. r.Scale.total_true_cost
  in
  Float.abs (total -. expected) <= 1e-6 *. Float.max 1. (Float.abs expected)

let cold_ok (r : Scale.report) =
  r.Scale.completed && r.Scale.detections = [] && welfare_ok r

(* Every announced cell of [a] equals the one of [b], bit for bit. *)
let same_state a b =
  let dests = Sparse.dests a in
  let ok = ref (dests = Sparse.dests b) in
  Array.iter
    (fun dest ->
      for i = 0 to n - 1 do
        if
          Int64.bits_of_float (Sparse.dist a i ~dest)
          <> Int64.bits_of_float (Sparse.dist b i ~dest)
          || Sparse.hop_count a i ~dest <> Sparse.hop_count b i ~dest
          || Sparse.next_hop a i ~dest <> Sparse.next_hop b i ~dest
          || List.map (fun (k, p) -> (k, Int64.bits_of_float p)) (Sparse.prices a i ~dest)
             <> List.map (fun (k, p) -> (k, Int64.bits_of_float p)) (Sparse.prices b i ~dest)
        then ok := false
      done)
    dests;
  !ok

(* The mirror checkpoints Scale.run applies to every node, timed from
   here ([Scale.run] does not span them). *)
let checkpoint_ms sp =
  snd
    (timed (fun () ->
         for i = 0 to n - 1 do
           ignore (Sys.opaque_identity (Sparse.routing_deviation sp i));
           ignore (Sys.opaque_identity (Sparse.pricing_deviation sp i))
         done))

let run ~seed ~seconds ~trace =
  let (g, dests), setup = setup fixture in
  let attempted = ref 1 and failed = ref 0 in
  let (report, sp), cold_ms = timed (fun () -> Scale.run ~dests g) in
  if not (cold_ok report) then incr failed;
  let costs = Array.copy (Graph.costs g) in
  let rng = Rng.create (seed lxor 0x5ca1e) in
  let lat = ref [] and recomputes = ref 0 and rounds = ref 0 in
  let fixpoint_ms = ref 0. in
  let obs = if trace then sink () else Obs.noop in
  Sparse.set_obs sp obs;
  let gc0 = gc_mark () in
  let stop = deadline seconds in
  while before stop do
    if not trace then setup_again setup;
    incr attempted;
    let v = Rng.int rng n in
    let c = float_of_int (Rng.int_in rng 1 10) in
    let r0 = Sparse.recomputes sp in
    match
      timed (fun () ->
          Sparse.update_cost sp v c;
          Sparse.rerun sp)
    with
    | (), ms ->
        costs.(v) <- c;
        lat := op setup !attempted ms :: !lat;
        recomputes := !recomputes + (Sparse.recomputes sp - r0);
        rounds := !rounds + Sparse.rounds_routing sp + Sparse.rounds_pricing sp;
        if trace then begin
          fixpoint_ms := !fixpoint_ms +. span_ms (fun _ -> true) (spans obs);
          Obs.reset obs
        end
    | exception _ -> incr failed
  done;
  let minor, majors = gc_delta gc0 in
  let ops = List.length !lat in
  (* Outside the timed region: warm state == cold state on the new graph. *)
  let cold = Sparse.create ~dests (Graph.with_costs g costs) in
  Sparse.run cold;
  if not (same_state sp cold) then failed := !attempted;
  let info =
    count_info ~setup !lat
    @ [ ("graph_seed", Json.Int graph_seed); ("cold_run_s", Json.Float (cold_ms /. 1e3)) ]
  in
  if not trace then
    {
      attempted = !attempted;
      failed = !failed;
      metrics = end_to_end ~setup !lat;
      info;
    }
  else begin
    (* A second cold pass of the same graph under a sink: the stage
       spans, and the tracing overhead against the untraced pass. *)
    let sink = sink () in
    let (report2, sp2), traced_cold_ms = timed (fun () -> Scale.run ~obs:sink ~dests g) in
    incr attempted;
    if not (cold_ok report2) then incr failed;
    if Obs.dropped sink > 0 then failwith "trace ring buffer wrapped";
    let ss = spans sink in
    let routing = span_ms (fun s -> String.equal s.sname "sparse.routing") ss in
    let pricing = span_ms (fun s -> String.equal s.sname "sparse.pricing") ss in
    let cp = checkpoint_ms sp2 in
    let nf = float_of_int (max 1 ops) in
    let op_ms = sum (wall !lat) /. nf in
    let gen_s = snd (timed (fun () -> ignore (fixture ()))) /. 1e3 in
    {
      attempted = !attempted;
      failed = !failed;
      metrics =
        [
          metric "scale.cold_run_s" "s" (cold_ms /. 1e3);
          metric "sparse.routing_ms" "ms" routing;
          metric "sparse.pricing_ms" "ms" pricing;
          metric "sparse.recomputes" "count" (float_of_int (Sparse.recomputes sp2));
          metric "sparse.rounds_routing" "count" (float_of_int (Sparse.rounds_routing sp2));
          metric "sparse.rounds_pricing" "count" (float_of_int (Sparse.rounds_pricing sp2));
          metric "sparse.messages" "count" (float_of_int (Sparse.messages sp2));
          metric "sparse.state_words" "words" (float_of_int (Sparse.state_words sp2));
          metric "scale.checkpoint_ms" "ms" cp;
          metric "update.recomputes" "count" (float_of_int !recomputes /. nf);
          metric "update.rounds" "count" (float_of_int !rounds /. nf);
          metric "update.fixpoint_ms" "ms" (!fixpoint_ms /. nf);
          metric "gen.as_like_s" "s" gen_s;
          metric "gc.minor_words_per_op" "words" (minor /. nf);
          metric "gc.major_collections" "count" (float_of_int majors);
          metric "obs.overhead_frac" "fraction" ((traced_cold_ms /. cold_ms) -. 1.);
          metric "attributed.share" "fraction"
            (if op_ms > 0. then !fixpoint_ms /. nf /. op_ms else 0.);
        ];
      info =
        info
        @ [
            ("traced_cold_share", Json.Float ((routing +. pricing +. cp) /. traced_cold_ms));
            ( "unattributed",
              Json.String
                "cold pass: Sparse.flood and Scale's execution/settlement; warm \
                 op: Sparse.update_cost and the dirty-set seeding before the \
                 fixpoint spans" );
          ];
    }
  end
