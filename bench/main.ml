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
module Node = Damd_faithful.Node
module Bank = Damd_faithful.Bank
module Runner = Damd_faithful.Runner
module Replication = Damd_faithful.Replication
module Campaign = Damd_gauntlet.Campaign
module Scale = Damd_faithful.Scale
module Sparse = Damd_fpss.Sparse
module Obs = Damd_obs.Obs
module Clock = Damd_obs.Clock

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

(* Nodes with converged state for the bank-checkpoint benchmark: drive the
   construction synchronously once and keep the node array. *)
let converged_nodes =
  let g = graph8 in
  let n = Graph.n g in
  let neighbor_sets = Array.init n (Graph.neighbors g) in
  let nodes =
    Array.init n (fun id ->
        Node.create ~id ~n ~neighbor_sets ~true_cost:(Graph.cost g id)
          ~deviation:Adversary.Faithful ())
  in
  let inbox = Queue.create () in
  let send_of i ~dst msg = Queue.push (i, dst, msg) inbox in
  let drain handler =
    while not (Queue.is_empty inbox) do
      let src, dst, msg = Queue.pop inbox in
      handler dst ~sender:src msg
    done
  in
  Array.iteri (fun i node -> Node.announce_cost node (send_of i)) nodes;
  drain (fun dst ~sender msg ->
      match msg with
      | Damd_faithful.Protocol.Update u ->
          Node.on_cost_msg nodes.(dst) (send_of dst) ~sender u
      | _ -> ());
  Array.iter (fun node -> ignore (Node.finalize_costs node)) nodes;
  Array.iteri (fun i node -> Node.start_routing node (send_of i)) nodes;
  drain (fun dst ~sender msg -> Node.on_routing_msg nodes.(dst) (send_of dst) ~sender msg);
  Array.iteri (fun i node -> Node.start_pricing node (send_of i)) nodes;
  drain (fun dst ~sender msg -> Node.on_pricing_msg nodes.(dst) (send_of dst) ~sender msg);
  nodes

(* A fixed n=16 campaign (4x4 mesh, a two-node coalition, jittered and
   duplicating schedule) so the gauntlet's grading cost — the full run
   plus one unilateral baseline per deviant — is tracked across PRs. *)
let gauntlet_descr16 =
  {
    Campaign.seed = 0;
    topology = Campaign.Mesh (4, 4);
    graph_seed = 1234;
    traffic_rate = 1.;
    deviants =
      [ (5, Adversary.Miscompute_routing 2.); (6, Adversary.Collude_with 5) ];
    perturb =
      {
        Runner.jitter = 0.2;
        dup_p = 0.05;
        drop_p = 0.;
        drop_budget = 0;
        perturb_seed = 99;
      };
    fault = None;
  }

(* The same campaign under a mixed-failure schedule (loss + a routing-phase
   crash with handoff): tracks the fault-tolerant checkpoint and recovery
   overhead relative to [gauntlet_descr16]. *)
let gauntlet_descr16_faults =
  {
    gauntlet_descr16 with
    Campaign.fault =
      Some
        {
          Damd_sim.Fault.seed = 4242;
          link =
            Some
              { Damd_sim.Fault.loss_p = 0.02; reorder_p = 0.1; reorder_delay = 1.5 };
          partition = None;
          crash =
            Some
              {
                Damd_sim.Fault.node = 9;
                crash_phase = `Routing;
                at = 1.0;
                recovers_at = 3.0;
              };
        };
  }

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
             let params =
               { Runner.default_params with Runner.checking = false; copies = false }
             in
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
             let params =
               { Runner.default_params with Runner.deferred_certification = true }
             in
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
      Test.make ~name:"e10_bank_checkpoint_n8"
        (Staged.stage (fun () ->
             ignore (Bank.checkpoint_routing converged_nodes);
             ignore (Bank.checkpoint_pricing converged_nodes)));
      Test.make ~name:"e11_async_faithful_n8"
        (Staged.stage (fun () ->
             let params = { Runner.default_params with Runner.latency_seed = Some 5 } in
             ignore (Runner.run_faithful ~params ~graph:graph8 ~traffic:traffic8 ())));
      Test.make ~name:"e15_warm_start_n16"
        (Staged.stage
           (* One warm restart per run: node 3's cost alternates between
              9 and its original value, so every run reconverges from the
              previous run's fixpoint after a single cost change. *)
           (let sp = Sparse.create graph16 in
            Sparse.run sp;
            let costs = [| 9.; Graph.cost graph16 3 |] in
            let turn = ref 0 in
            fun () ->
              Sparse.update_cost sp 3 costs.(!turn);
              turn := 1 - !turn;
              Sparse.rerun sp));
      Test.make ~name:"e16_faithful_election_n8"
        (Staged.stage
           (let module Election = Damd_faithful.Election in
            let profile = Leader.sample_profile ~n:8 (Rng.create 13) in
            fun () ->
              ignore
                (Election.run ~graph:graph8 ~profile
                   ~deviations:(Array.make 8 Election.Honest) ())));
      Test.make ~name:"gauntlet_campaigns_n16"
        (Staged.stage (fun () -> ignore (Campaign.grade gauntlet_descr16)));
      Test.make ~name:"gauntlet_campaigns_n16_faults"
        (Staged.stage (fun () -> ignore (Campaign.grade gauntlet_descr16_faults)));
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
let json_of_rows ~quota ~limit ?scaling rows =
  let module Json = Damd_util.Json in
  Json.Obj
    ([
       ("schema", Json.String "damd-bench/1");
       ("unit", Json.String "ns_per_run");
       ("quota_s", Json.Float quota);
       ("limit", Json.Int limit);
       ( "results",
         Json.List
           (List.map
              (fun (name, ns) ->
                Json.Obj
                  [
                    ("name", Json.String name);
                    ("time_per_run_ns", Json.Float ns);
                  ])
              rows) );
     ]
    @ match scaling with None -> [] | Some s -> [ ("scaling", s) ])

(* --- the n=10k scaling sweep (--scale) ---

   One-shot timed runs, not Bechamel: a 2 s faithful run at n=10k cannot
   be OLS-sampled inside a sane quota, and the question here is the growth
   *curve*, not nanosecond precision. Per size: generate an AS-like
   power-law graph (m=2), run the full sparse faithful pass (flood,
   routing + pricing fixpoints, both mirror checkpoints, settlement) over
   8 spread destinations, and record wall time plus memory — [live_words]
   is measured after [Gc.compact] with the sparse state still live, so it
   is the actual resident word count of graph + protocol state; the
   per-row tuple keeps only scalars so earlier sizes don't stay live and
   inflate later measurements. Sizes run ascending, so the monotone
   [top_heap_words] is dominated by the size just run. *)

type scaling_row = {
  sc_n : int;
  sc_edges : int;
  sc_gen_s : float;
  sc_run_s : float;
  sc_rounds_flood : int;
  sc_rounds_routing : int;
  sc_rounds_pricing : int;
  sc_messages : int;
  sc_checkpoint_messages : int;
  sc_delivered : int;
  sc_state_words : int;
  sc_live_words : int;
  sc_top_heap_words : int;
}

let scaling_sizes = [ 16; 64; 256; 1000; 10000 ]

let run_scaling_sweep () =
  let module Json = Damd_util.Json in
  let rows =
    List.map
      (fun n ->
        let rng = Rng.create (1000 + n) in
        (* Monotonic clock (same one the obs spans use): wall-clock via
           [Unix.gettimeofday] can step backwards under NTP and produce
           negative sweep timings. *)
        let t0 = Clock.now_ns () in
        let g, _relations = Gen.as_like rng ~n ~m:2 (Gen.Uniform_int (1, 10)) in
        let gen_s = Clock.s_since t0 in
        let dests = Array.init 8 (fun i -> i * n / 8) in
        let t1 = Clock.now_ns () in
        let report, sp = Scale.run ~dests g in
        let run_s = Clock.s_since t1 in
        if not report.Scale.completed then
          failwith (Printf.sprintf "scaling sweep: n=%d halted at a checkpoint" n);
        Gc.compact ();
        let st = Gc.stat () in
        {
          sc_n = n;
          sc_edges = Graph.num_edges g;
          sc_gen_s = gen_s;
          sc_run_s = run_s;
          sc_rounds_flood = report.Scale.rounds_flood;
          sc_rounds_routing = report.Scale.rounds_routing;
          sc_rounds_pricing = report.Scale.rounds_pricing;
          sc_messages = report.Scale.construction_messages;
          sc_checkpoint_messages = report.Scale.checkpoint_messages;
          sc_delivered = report.Scale.delivered;
          sc_state_words = Sparse.state_words sp;
          sc_live_words = st.Gc.live_words;
          sc_top_heap_words = st.Gc.top_heap_words;
        })
      scaling_sizes
  in
  let t =
    Damd_util.Table.create
      [
        "n"; "edges"; "gen"; "run"; "rounds f/r/p"; "messages"; "state words";
        "live words";
      ]
  in
  List.iter
    (fun r ->
      Damd_util.Table.add_row t
        [
          string_of_int r.sc_n;
          string_of_int r.sc_edges;
          Printf.sprintf "%.3f s" r.sc_gen_s;
          Printf.sprintf "%.3f s" r.sc_run_s;
          Printf.sprintf "%d/%d/%d" r.sc_rounds_flood r.sc_rounds_routing
            r.sc_rounds_pricing;
          string_of_int (r.sc_messages + r.sc_checkpoint_messages);
          string_of_int r.sc_state_words;
          string_of_int r.sc_live_words;
        ])
    rows;
  Damd_util.Table.print t;
  Json.Obj
    [
      ("topology", Json.String "as:N:2");
      ("dests", Json.Int 8);
      ( "rows",
        Json.List
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("n", Json.Int r.sc_n);
                   ("edges", Json.Int r.sc_edges);
                   ("gen_s", Json.Float r.sc_gen_s);
                   ("run_s", Json.Float r.sc_run_s);
                   ("rounds_flood", Json.Int r.sc_rounds_flood);
                   ("rounds_routing", Json.Int r.sc_rounds_routing);
                   ("rounds_pricing", Json.Int r.sc_rounds_pricing);
                   ("construction_messages", Json.Int r.sc_messages);
                   ("checkpoint_messages", Json.Int r.sc_checkpoint_messages);
                   ("delivered", Json.Int r.sc_delivered);
                   ("state_words", Json.Int r.sc_state_words);
                   ("live_words", Json.Int r.sc_live_words);
                   ("top_heap_words", Json.Int r.sc_top_heap_words);
                 ])
             rows) );
    ]

let usage =
  "usage: main.exe [--json FILE] [--quota SECONDS] [--limit N] [--scale]"

let () =
  let json_path = ref None in
  let quota = ref 0.5 in
  let limit = ref 300 in
  let scale = ref false in
  let spec =
    [
      ("--json", Arg.String (fun f -> json_path := Some f),
       "FILE  also write estimates as a BENCH_*.json trajectory file");
      ("--quota", Arg.Set_float quota,
       "SECONDS  per-benchmark time budget (default 0.5)");
      ("--limit", Arg.Set_int limit,
       "N  max samples per benchmark (default 300)");
      ("--scale", Arg.Set scale,
       "  also run the faithful scaling sweep (as:N:2 up to n=10000)");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  print_endline "== damd benchmarks (Bechamel, OLS time-per-run estimates) ==";
  print_newline ();
  let rows = run_and_report ~quota:!quota ~limit:!limit experiment_tests in
  print_newline ();
  let micro_rows = run_and_report ~quota:!quota ~limit:!limit micro_tests in
  let scaling =
    if !scale then begin
      print_newline ();
      print_endline
        "== faithful protocol at scale (as:N:2, 8 dests, one-shot wall time) ==";
      Some (run_scaling_sweep ())
    end
    else None
  in
  match !json_path with
  | None -> ()
  | Some path ->
      Damd_util.Json.to_file path
        (json_of_rows ~quota:!quota ~limit:!limit ?scaling (rows @ micro_rows))
