(* Workload [modelcheck]: [damd_cli verify]-equivalent requests.

   Each op is [Flow.observations] plus [Verify.run] over the full
   adversary vocabulary (POR on, default [Pool] width) on one torus of a
   rotation 3x3, 3x4, 4x4 .. 8x8 whose transit costs come from the
   workload seed. The two smallest keys pack into an int, the rest take
   Statepack's bytes path. Seven tori, not six: with an odd count the
   median op falls inside the 5x5 mode instead of on the gap between two
   modes, where it would flip from run to run. *)

open Measure
module Gen = Damd_graph.Gen
module Graph = Damd_graph.Graph
module Rng = Damd_util.Rng
module Speccheck = Damd_speccheck
module Verify = Speccheck.Verify
module Explore = Speccheck.Explore
module Statepack = Speccheck.Statepack
module Adversary = Damd_faithful.Adversary

let ir = Speccheck.Fpss_spec.ir
let tori = [ (3, 3); (3, 4); (4, 4); (5, 5); (6, 6); (7, 7); (8, 8) ]
let bound = 2_000_000
let tag (rows, cols) = Printf.sprintf "t%dx%d" rows cols

let fixtures ~seed =
  Array.of_list
    (List.mapi
       (fun i ((rows, cols) as t) ->
         let rng = Rng.fork (Rng.create seed) i in
         let costs = Gen.draw_costs rng (Gen.Uniform_int (1, 10)) (rows * cols) in
         (t, Gen.torus ~rows ~cols ~costs))
       tori)

let topology (rows, cols) = Printf.sprintf "torus:%d:%d" rows cols

let verify ?(obs = Obs.noop) ?(por = true) ?observed (dims, g) =
  let observed =
    match observed with Some o -> o | None -> Damd_faithful.Flow.observations ()
  in
  Verify.run ~adversary:Adversary.all_labels ~bound ~obs ~por ~observed ~graph:g
    ~topology:(topology dims) ir

let sound r =
  Verify.detection_complete r && Verify.no_false_accusation r && Verify.error_count r = 0

let verdicts_digest r =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (List.map
             (fun (d, v) ->
               Speccheck.Dev.to_string d ^ "="
               ^
               match v with
               | Explore.Detected { depth; certifier } ->
                   Printf.sprintf "detected:%d:%s" depth
                     (Option.value ~default:"-" certifier)
               | Explore.Undetected _ -> "undetected"
               | Explore.Exempt _ -> "exempt"
               | Explore.Truncated -> "truncated")
             r.Verify.verdicts)))

(* [pack_int]/[pack_string] on random well-formed states of one torus's
   codec: the key-encoding cost Explore pays per visited state. *)
let statepack_ns ~seed (rows, cols) =
  let ns = List.length ir.Speccheck.Ir.states in
  let nphases = List.length ir.Speccheck.Ir.phases in
  let n = rows * cols in
  let codec = Statepack.make ~ns ~n ~nphases in
  let rng = Rng.create (seed + n) in
  let states =
    Array.init 4096 (fun _ ->
        let dev = Rng.int rng (ns + 1) - 1 in
        let cnt = Array.make ns 0 in
        for _ = 1 to (if dev >= 0 then n - 1 else n) do
          let j = Rng.int rng ns in
          cnt.(j) <- cnt.(j) + 1
        done;
        {
          Statepack.dev;
          cnt;
          ph = Rng.int rng (nphases + 1);
          acted = Rng.int rng (1 lsl nphases);
          evid = Rng.int rng (1 lsl nphases);
        })
  in
  let per_state f =
    let reps = 16 in
    let t0 = now () in
    for _ = 1 to reps do
      Array.iter (fun s -> ignore (Sys.opaque_identity (f codec s))) states
    done;
    ns_since t0 /. float_of_int (reps * Array.length states)
  in
  let fits = Statepack.fits_int codec in
  ( fits,
    (if fits then per_state Statepack.pack_int else 0.),
    per_state Statepack.pack_string )

let analyze_us fx =
  List.concat_map
    (fun (dims, g) ->
      List.init 20 (fun _ ->
          snd
            (timed (fun () ->
                 ignore
                   (Speccheck.Analyze.run ~adversary:Adversary.all_labels ~graph:g
                      ~topology:(topology dims) ir)))
          *. 1e3))
    (Array.to_list fx)

let run ~seed ~seconds ~trace =
  let fx, setup = setup (fun () -> fixtures ~seed) in
  let k = Array.length fx in
  let attempted = ref 0 and failed = ref 0 in
  let lat = ref [] in
  let por4 = ref None in
  let gc0 = gc_mark () in
  let stop = deadline (if trace then seconds /. 2. else seconds) in
  while before stop do
    if not trace then setup_again setup;
    let idx = !attempted mod k in
    incr attempted;
    match timed (fun () -> verify fx.(idx)) with
    | r, ms ->
        if not (sound r) then incr failed;
        if fst fx.(idx) = (4, 4) && !por4 = None then por4 := Some r;
        lat := op setup idx ms :: !lat
    | exception _ -> incr failed
  done;
  let minor, majors = gc_delta gc0 in
  let ops = !attempted in
  (* Outside the op loop: POR off on 4x4 must reach the same verdicts. *)
  let t4 = fx.(2) in
  let nopor, nopor_ms = timed (fun () -> verify ~por:false t4) in
  let por_on = match !por4 with Some r -> r | None -> verify t4 in
  incr attempted;
  if not (sound nopor && String.equal (verdicts_digest nopor) (verdicts_digest por_on))
  then incr failed;
  let analyze = analyze_us fx in
  let info =
    count_info ~setup !lat
    @ [
      ("tori", Json.List (List.map (fun t -> Json.String (tag t)) tori));
      ("verdicts_4x4", Json.String (verdicts_digest por_on));
      ("nopor_s", Json.Float (nopor_ms /. 1e3));
      ("analyze_p50_us", Json.Float (median analyze));
    ]
  in
  if not trace then
    {
      attempted = !attempted;
      failed = !failed;
      metrics = end_to_end ~setup !lat;
      info;
    }
  else begin
    let untraced_ms = sum (wall !lat) in
    let observed_ms = ref 0. and explore_ms = ref 0. and traced_ms = ref 0. in
    let states = ref 0 and elapsed = ref 0. and frontier = ref 0 and scen = ref 0 in
    let domains = ref 0 in
    let by_topo = Hashtbl.create k in
    for i = 0 to ops - 1 do
      let ((dims, _) as t) = fx.(i mod k) in
      let sink = sink () in
      match
        timed (fun () ->
            let observed, fms = timed Damd_faithful.Flow.observations in
            observed_ms := !observed_ms +. fms;
            verify ~obs:sink ~observed t)
      with
      | r, ms ->
          if Obs.dropped sink > 0 then failwith "trace ring buffer wrapped";
          if not (sound r) then incr failed;
          traced_ms := !traced_ms +. ms;
          explore_ms :=
            !explore_ms
            +. span_ms (fun s -> String.equal s.sname "explore.scenario") (spans sink);
          let st = r.Verify.stats in
          states := !states + st.Explore.states_explored;
          elapsed := !elapsed +. st.Explore.elapsed_s;
          frontier := max !frontier st.Explore.frontier_peak;
          scen := !scen + st.Explore.scenarios;
          if not (Hashtbl.mem by_topo dims) then begin
            (* states/sec at the default fan-out width, untraced: an
               enabled sink pins Explore to one domain *)
            let st = (verify t).Verify.stats in
            domains := max !domains st.Explore.domains;
            Hashtbl.add by_topo dims
              (float_of_int st.Explore.states_explored /. st.Explore.elapsed_s)
          end
      | exception _ -> incr failed
    done;
    (* The static layers, timed from here on every topology. *)
    let lint_ms =
      List.map
        (fun (dims, g) ->
          snd
            (timed (fun () ->
                 ignore
                   (Speccheck.Lint.run ~adversary:Adversary.all_labels ~graph:g
                      ~topology:(topology dims) ir))))
        (Array.to_list fx)
    in
    let flow_us =
      List.map
        (fun (dims, g) ->
          let sink = sink () in
          ignore
            (Speccheck.Analyze.run ~adversary:Adversary.all_labels ~obs:sink ~graph:g
               ~topology:(topology dims) ir);
          span_ms (fun s -> String.equal s.sname "absint.flow") (spans sink) *. 1e3)
        (Array.to_list fx)
    in
    let pack = List.map (fun t -> (t, statepack_ns ~seed t)) tori in
    let n = float_of_int (max 1 ops) in
    let per_op_lint = mean lint_ms in
    let attributed = (!observed_ms +. !explore_ms) /. n +. per_op_lint in
    let op_ms = !traced_ms /. n in
    let nopor_states = nopor.Verify.stats.Explore.states_explored in
    {
      attempted = !attempted + ops;
      failed = !failed;
      metrics =
        [
          metric "modelcheck.nopor_s" "s" (nopor_ms /. 1e3);
          metric "modelcheck.analyze_p50_us" "us" (median analyze);
          metric "explore.states" "count" (float_of_int !states /. n);
          metric "explore.states_per_s" "1/s"
            (if !elapsed > 0. then float_of_int !states /. !elapsed else 0.);
          metric "explore.states_per_s.nopor" "1/s"
            (float_of_int nopor_states /. nopor.Verify.stats.Explore.elapsed_s);
          metric "explore.frontier_peak" "count" (float_of_int !frontier);
          metric "explore.scenarios" "count" (float_of_int !scen /. n);
          metric "explore.domains" "count" (float_of_int !domains);
          metric "statepack.int_ns" "ns"
            (mean (List.filter_map (fun (_, (f, i, _)) -> if f then Some i else None) pack));
          metric "statepack.bytes_ns" "ns" (mean (List.map (fun (_, (_, _, b)) -> b) pack));
          metric "por.reduction" "ratio"
            (float_of_int nopor_states
            /. float_of_int por_on.Verify.stats.Explore.states_explored);
          metric "absint.flow_us" "us" (mean flow_us);
          metric "verify.lint_ms" "ms" per_op_lint;
          metric "verify.flow_ms" "ms" (!observed_ms /. n);
          metric "verify.explore_ms" "ms" (!explore_ms /. n);
          metric "gc.minor_words_per_op" "words" (minor /. n);
          metric "gc.major_collections" "count" (float_of_int majors);
          metric "obs.overhead_frac" "fraction"
            (if untraced_ms > 0. then (!traced_ms /. untraced_ms) -. 1. else 0.);
          metric "attributed.share" "fraction" (if op_ms > 0. then attributed /. op_ms else 0.);
        ]
        @ List.concat_map
            (fun (dims, (fits, _, _)) ->
              [
                metric
                  (Printf.sprintf "statepack.fits_int.%s" (tag dims))
                  "bool"
                  (if fits then 1. else 0.);
                metric
                  (Printf.sprintf "explore.states_per_s.%s" (tag dims))
                  "1/s"
                  (Option.value ~default:0. (Hashtbl.find_opt by_topo dims));
              ])
            pack;
      info =
        info
        @ [
            ( "unattributed",
              Json.String
                "Verify.run outside the scenario spans: Explore's machine build \
                 and verdict merge, Taint.check, report assembly" );
          ];
    }
  end
