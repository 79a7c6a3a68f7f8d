(* Bechamel benchmarks — one Test.make per experiment (matching the
   experiment index in DESIGN.md) plus a microbenchmark group for the substrates.

     dune exec bench/main.exe -- [--json FILE] [--quota SECONDS] [--limit N]

   Prints one row per benchmark with the OLS-estimated time per run.
   [--json FILE] additionally writes the estimates as a BENCH_*.json
   trajectory file (schema documented in DESIGN.md §9); [--quota]/[--limit]
   shrink the per-benchmark measurement budget, which the test suite uses
   to smoke-test the JSON path cheaply. *)

open Bechamel
open Toolkit

module Rng = Damd_util.Rng
module Graph = Damd_graph.Graph
module Gen = Damd_graph.Gen
module Dijkstra = Damd_graph.Dijkstra
module Sha256 = Damd_crypto.Sha256
module Hmac = Damd_crypto.Hmac
module Strategyproof = Damd_mech.Strategyproof
module Leader = Damd_mech.Leader_election
module Mechanism = Damd_mech.Mechanism
module Traffic = Damd_fpss.Traffic
module Pricing = Damd_fpss.Pricing
module Game = Damd_fpss.Game
module Distributed = Damd_fpss.Distributed
module Adversary = Damd_faithful.Adversary
module Runner = Damd_faithful.Runner
module Replication = Damd_faithful.Replication
module Scale = Damd_faithful.Scale
module Obs = Damd_obs.Obs

(* Shared fixtures, built once. *)
let fig1, _names = Gen.figure1 ()
let fig1_traffic = Traffic.uniform ~n:6 ~rate:1.

let graph16 = Gen.chordal_ring (Rng.create 1) ~n:16 ~chords:4 (Gen.Uniform_int (1, 10))
let graph8 = Gen.chordal_ring (Rng.create 2) ~n:8 ~chords:2 (Gen.Uniform_int (1, 10))
let traffic8 = Traffic.uniform ~n:8 ~rate:1.
let graph64 = Gen.erdos_renyi (Rng.create 3) ~n:64 ~p:0.1 (Gen.Uniform_int (1, 10))
let payload_64k = String.make 65536 'x'

(* Fixture for the trace-overhead pair: the n=64 sparse faithful pass
   (the Runner plays n=64 in ~10 s — unsampleable; the scale path runs it
   in milliseconds and exercises the same obs span/sample machinery). *)
let graph64_as = fst (Gen.as_like (Rng.create 7) ~n:64 ~m:2 (Gen.Uniform_int (1, 10)))
let dests64 = Array.init 8 (fun i -> i * 64 / 8)

let experiment_tests =
  Test.make_grouped ~name:"experiments"
    [
      Test.make ~name:"e1_figure1_vcg_tables"
        (Staged.stage (fun () -> ignore (Pricing.compute fig1)));
      Test.make ~name:"e2_example1_utility_sweep"
        (Staged.stage (fun () ->
             let true_costs = Graph.costs fig1 in
             let declared = Array.copy true_costs in
             declared.(2) <- 5.;
             ignore
               (Game.utilities Game.Naive_cost ~base:fig1 ~true_costs ~declared
                  ~traffic:fig1_traffic)));
      Test.make ~name:"e3_strategyproof_profile"
        (Staged.stage (fun () ->
             let rng = Rng.create 11 in
             let m = Game.mechanism Game.Vcg ~base:graph8 ~traffic:traffic8 in
             ignore
               (Strategyproof.check ~rng ~profiles:1 ~lies_per_agent:1
                  ~sample_profile:(fun rng -> Game.sample_costs rng ~n:8)
                  ~sample_lie:Game.sample_lie m)));
      Test.make ~name:"e4_catch_one_deviation"
        (Staged.stage (fun () ->
             let deviations = Array.make 6 Adversary.Faithful in
             deviations.(2) <- Adversary.Miscompute_routing 2.;
             ignore (Runner.run ~graph:fig1 ~traffic:fig1_traffic ~deviations ())));
      Test.make ~name:"e5_distributed_convergence_n16"
        (Staged.stage (fun () -> ignore (Distributed.run graph16)));
      Test.make ~name:"e6_plain_fpss_n8"
        (Staged.stage (fun () ->
             let params = { Runner.default_params with Runner.bank = Runner.Plain } in
             ignore (Runner.run_faithful ~params ~graph:graph8 ~traffic:traffic8 ())));
      Test.make ~name:"e6_faithful_n8"
        (Staged.stage (fun () ->
             ignore (Runner.run_faithful ~graph:graph8 ~traffic:traffic8 ())));
      Test.make ~name:"e6_full_replication_n8"
        (Staged.stage (fun () -> ignore (Replication.run graph8)));
      Test.make ~name:"e7_deviation_gain"
        (Staged.stage (fun () ->
             ignore
               (Runner.utility_gain ~graph:fig1 ~traffic:fig1_traffic ~node:2
                  ~deviation:(Adversary.Underreport_payments 0.5) ())));
      Test.make ~name:"e8_deferred_certification"
        (Staged.stage (fun () ->
             let params = { Runner.default_params with Runner.bank = Runner.Deferred } in
             let deviations = Array.make 6 Adversary.Faithful in
             deviations.(2) <- Adversary.Inconsistent_cost (1., 8.);
             ignore (Runner.run ~params ~graph:fig1 ~traffic:fig1_traffic ~deviations ())));
      Test.make ~name:"e9_leader_elections_x100"
        (Staged.stage (fun () ->
             let rng = Rng.create 12 in
             let m = Leader.second_score ~n:8 ~benefit:2. in
             for _ = 1 to 100 do
               ignore (m.Mechanism.run (Leader.sample_profile ~n:8 rng))
             done));
      Test.make ~name:"e11_async_faithful_n8"
        (Staged.stage (fun () ->
             let params =
               {
                 Runner.default_params with
                 Runner.perturbation =
                   { Runner.no_perturbation with Runner.jitter = 0.5; perturb_seed = 5 };
               }
             in
             ignore (Runner.run_faithful ~params ~graph:graph8 ~traffic:traffic8 ())));
      Test.make ~name:"e16_faithful_election_n8"
        (Staged.stage
           (let module Election = Damd_faithful.Election in
            let profile = Leader.sample_profile ~n:8 (Rng.create 13) in
            fun () ->
              ignore
                (Election.run ~graph:graph8 ~profile
                   ~deviations:(Array.make 8 Election.Honest) ())));
    ]

let micro_tests =
  Test.make_grouped ~name:"micro"
    [
      Test.make ~name:"sha256_64KiB"
        (Staged.stage (fun () -> ignore (Sha256.digest payload_64k)));
      Test.make ~name:"hmac_sha256_1KiB"
        (Staged.stage (fun () ->
             ignore (Hmac.mac ~key:"key" (String.sub payload_64k 0 1024))));
      Test.make ~name:"dijkstra_all_pairs_n64"
        (Staged.stage (fun () -> ignore (Dijkstra.all_to_dest graph64)));
      Test.make ~name:"vcg_pricing_n16"
        (Staged.stage (fun () -> ignore (Pricing.compute graph16)));
      Test.make ~name:"biconnectivity_n64"
        (Staged.stage (fun () ->
             ignore (Damd_graph.Biconnect.articulation_points graph64)));
      Test.make ~name:"graph_gen_er_n64"
        (Staged.stage (fun () ->
             ignore (Gen.erdos_renyi (Rng.create 4) ~n:64 ~p:0.1 (Gen.Uniform_int (1, 10)))));
      (* The instrumentation-overhead pair: the same n=64 faithful pass
         with the noop sink (every obs call is a tag test that must stay
         within noise of the uninstrumented baseline) and with a live
         in-memory ring (what a `damd trace`-style capture costs). *)
      Test.make ~name:"trace_overhead_n64_noop"
        (Staged.stage (fun () ->
             ignore (Scale.run ~dests:dests64 ~obs:Obs.noop graph64_as)));
      Test.make ~name:"trace_overhead_n64_memory"
        (Staged.stage (fun () ->
             ignore (Scale.run ~dests:dests64 ~obs:(Obs.memory ()) graph64_as)));
    ]

let run_and_report ~quota ~limit tests =
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit ~quota:(Time.second quota) ~kde:None () in
  let raw = Benchmark.all cfg instances tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let estimate =
          match Analyze.OLS.estimates ols with Some (t :: _) -> t | _ -> nan
        in
        (name, estimate) :: acc)
      results []
    |> List.sort compare
  in
  let t = Damd_util.Table.create [ "benchmark"; "time/run" ] in
  List.iter
    (fun (name, ns) ->
      let human =
        if Float.is_nan ns then "n/a"
        else if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
        else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
        else Printf.sprintf "%.0f ns" ns
      in
      Damd_util.Table.add_row t [ name; human ])
    rows;
  Damd_util.Table.print t;
  rows

(* The BENCH_*.json trajectory format (DESIGN.md §9): one object per
   benchmark with the raw OLS nanosecond estimate, so successive PRs can be
   diffed mechanically. *)
let json_of_rows ~quota ~limit rows =
  let module Json = Damd_util.Json in
  Json.Obj
    [
      ("schema", Json.String "damd-bench/1");
      ("unit", Json.String "ns_per_run");
      ("quota_s", Json.Float quota);
      ("limit", Json.Int limit);
      ( "results",
        Json.List
          (List.map
             (fun (name, ns) ->
               Json.Obj
                 [ ("name", Json.String name); ("time_per_run_ns", Json.Float ns) ])
             rows) );
    ]

let usage = "usage: main.exe [--json FILE] [--quota SECONDS] [--limit N]"

let () =
  let json_path = ref None in
  let quota = ref 0.5 in
  let limit = ref 300 in
  let spec =
    [
      ("--json", Arg.String (fun f -> json_path := Some f),
       "FILE  also write estimates as a BENCH_*.json trajectory file");
      ("--quota", Arg.Set_float quota,
       "SECONDS  per-benchmark time budget (default 0.5)");
      ("--limit", Arg.Set_int limit,
       "N  max samples per benchmark (default 300)");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  print_endline "== damd benchmarks (Bechamel, OLS time-per-run estimates) ==";
  print_newline ();
  let rows = run_and_report ~quota:!quota ~limit:!limit experiment_tests in
  print_newline ();
  let micro_rows = run_and_report ~quota:!quota ~limit:!limit micro_tests in
  match !json_path with
  | None -> ()
  | Some path ->
      Damd_util.Json.to_file path
        (json_of_rows ~quota:!quota ~limit:!limit (rows @ micro_rows))
