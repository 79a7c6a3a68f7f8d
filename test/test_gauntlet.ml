(* Tests for Damd_gauntlet.Campaign: seed-determinism of sampling and
   grading, Theorem 1 on small stock batches, the weakened-bank violation
   oracle, and the greedy shrinker's contract. *)

module Json = Damd_util.Json
module Adversary = Damd_faithful.Adversary
module Biconnect = Damd_graph.Biconnect
module Campaign = Damd_gauntlet.Campaign

let check = Alcotest.check

let test_of_seed_deterministic () =
  (* Sampling is a pure function of the seed — byte-identical descr. *)
  List.iter
    (fun seed ->
      check Alcotest.bool "same descr" true
        (Campaign.of_seed seed = Campaign.of_seed seed))
    [ 0; 1; 42; 123456789; max_int ]

let test_grade_replays_byte_identical () =
  (* The replay guarantee: grading twice yields byte-identical JSON. *)
  let d = Campaign.of_seed 42 in
  let j () = Json.to_string ~indent:2 (Campaign.json_of_graded (Campaign.grade d)) in
  check Alcotest.string "byte-identical replay" (j ()) (j ())

let test_sampled_graphs_biconnected_and_scoped () =
  (* Every sampled campaign: biconnected topology, 1..3 deviants seated
     in range, and no full-neighborhood coalition (every checker-caught
     deviant stays detectable under the topology-aware refinement). *)
  for i = 0 to 19 do
    let d = Campaign.of_seed (Campaign.campaign_seed ~master:7 i) in
    let g = Campaign.graph_of d in
    check Alcotest.bool "biconnected" true (Biconnect.is_biconnected g);
    let n = Damd_graph.Graph.n g in
    let k = List.length d.Campaign.deviants in
    check Alcotest.bool "1..3 deviants" true (k >= 1 && k <= 3);
    let profile = Array.make n Adversary.Faithful in
    List.iter
      (fun (i, dev) ->
        check Alcotest.bool "deviant in range" true (i >= 0 && i < n);
        profile.(i) <- dev)
      d.Campaign.deviants;
    List.iter
      (fun (i, dev) ->
        if Adversary.detectable dev then
          check Alcotest.bool "still detectable in profile" true
            (Adversary.detectable_in
               ~neighbors:(Damd_graph.Graph.neighbors g)
               ~profile i))
      d.Campaign.deviants
  done

let test_stock_batch_no_violation () =
  (* Theorem 1 on a small batch: the stock mechanism never lets a
     sampled deviation both escape and profit (or corrupt the tables). *)
  let graded = Campaign.run_batch ~campaigns:10 ~seed:42 () in
  check Alcotest.int "batch size" 10 (List.length graded);
  List.iter
    (fun gr ->
      check Alcotest.bool "no violation" true
        (gr.Campaign.verdict <> Campaign.Violation))
    graded

let test_weakened_bank_violates () =
  (* The oracle has teeth: with verified clearing disabled, some sampled
     execution deviation must profit undetected. The first ten campaigns
     of master seed 42 are known to contain one. *)
  let graded =
    Campaign.run_batch ~weaken:Campaign.Weaken_settlement ~campaigns:10 ~seed:42 ()
  in
  let violations =
    List.filter (fun gr -> gr.Campaign.verdict = Campaign.Violation) graded
  in
  check Alcotest.bool "at least one violation" true (violations <> []);
  List.iter
    (fun gr ->
      check (Alcotest.option Alcotest.string) "profit kind" (Some "profit")
        gr.Campaign.violation_kind)
    violations;
  (* Shrinking preserves the violation and never grows the campaign. *)
  let gr = List.hd violations in
  let s = Campaign.shrink ~weaken:Campaign.Weaken_settlement gr in
  check Alcotest.bool "shrunk still violates" true
    (s.Campaign.verdict = Campaign.Violation);
  check Alcotest.bool "no more deviants than before" true
    (List.length s.Campaign.descr.Campaign.deviants
    <= List.length gr.Campaign.descr.Campaign.deviants);
  check Alcotest.bool "topology no larger" true
    (Campaign.topology_n s.Campaign.descr.Campaign.topology
    <= Campaign.topology_n gr.Campaign.descr.Campaign.topology)

let test_shrink_identity_on_non_violation () =
  let d = Campaign.of_seed 42 in
  let gr = Campaign.grade d in
  check Alcotest.bool "no violation at seed 42" true
    (gr.Campaign.verdict <> Campaign.Violation);
  check Alcotest.bool "shrink is identity" true (Campaign.shrink gr = gr)

let test_weaken_of_string_roundtrip () =
  List.iter
    (fun w ->
      check Alcotest.bool "round-trips" true
        (Campaign.weaken_of_string (Campaign.weaken_name w) = Some w))
    [
      Campaign.No_weaken;
      Campaign.Weaken_pricing;
      Campaign.Weaken_settlement;
      Campaign.Weaken_all;
    ];
  check Alcotest.bool "unknown rejected" true
    (Campaign.weaken_of_string "bogus" = None)

let test_campaign_seeds_distinct () =
  (* Fork-derived per-index seeds are pairwise distinct and independent
     of batch position. *)
  let seeds = List.init 50 (Campaign.campaign_seed ~master:42) in
  check Alcotest.int "distinct" 50 (List.length (List.sort_uniq compare seeds));
  check Alcotest.int "index stable" (Campaign.campaign_seed ~master:42 7)
    (List.nth seeds 7)

(* --- Mixed-failure mode: faults, epsilon agents, blame correctness --- *)

module Fault = Damd_sim.Fault

let mixed = { Campaign.faults = true; epsilon = None }

let quiet_perturb =
  { Damd_faithful.Runner.jitter = 0.; dup_p = 0.; drop_p = 0.; drop_budget = 0; perturb_seed = 0 }

let test_mixed_of_seed_deterministic () =
  List.iter
    (fun seed ->
      let a = Campaign.of_seed ~mix:mixed seed in
      check Alcotest.bool "same descr" true (a = Campaign.of_seed ~mix:mixed seed);
      check Alcotest.bool "carries a fault schedule" true (a.Campaign.fault <> None);
      check Alcotest.bool "stock sampling unchanged by the mix draws" true
        ({ a with Campaign.fault = None } = Campaign.of_seed seed
        || a.Campaign.deviants <> (Campaign.of_seed seed).Campaign.deviants))
    [ 0; 1; 42; 123456789 ]

let test_mixed_grade_replays_byte_identical () =
  (* The replay guarantee extends to fault campaigns: the schedule is
     pure data under the seed, so grading twice is byte-identical. *)
  let d = Campaign.of_seed ~mix:mixed 42 in
  let j () =
    Json.to_string ~indent:2 (Campaign.json_of_graded (Campaign.grade d))
  in
  check Alcotest.string "byte-identical replay" (j ()) (j ())

let test_mixed_batch_no_false_accusation () =
  (* The acceptance gate: 100 seeded mixed-failure campaigns, zero
     violations — in particular zero "false-accusation" verdicts, i.e.
     no injected fault ever gets pinned on an honest node. *)
  let graded = Campaign.run_batch ~mix:mixed ~campaigns:100 ~seed:42 () in
  check Alcotest.int "batch size" 100 (List.length graded);
  List.iter
    (fun gr ->
      check Alcotest.bool "no violation under mixed failures" true
        (gr.Campaign.verdict <> Campaign.Violation))
    graded

let knob_descr ~seed fault =
  {
    Campaign.seed;
    topology = Campaign.Mesh (3, 3);
    graph_seed = seed;
    traffic_rate = 1.;
    deviants = [];
    perturb = { quiet_perturb with Damd_faithful.Runner.perturb_seed = seed };
    fault = Some fault;
  }

let check_knob_blameless fault_of_seed =
  List.iter
    (fun seed ->
      let gr = Campaign.grade (knob_descr ~seed (fault_of_seed seed)) in
      check Alcotest.bool "fault alone never a violation" true
        (gr.Campaign.verdict <> Campaign.Violation);
      List.iter
        (fun (_rule, culprit) ->
          check (Alcotest.option Alcotest.int) "no node accused" None culprit)
        gr.Campaign.detections)
    [ 1; 2; 3; 5; 8; 13 ]

let test_loss_knob_accuses_nobody () =
  check_knob_blameless (fun seed ->
      {
        Fault.seed;
        link = Some { Fault.loss_p = 0.05; reorder_p = 0.2; reorder_delay = 1.5 };
        partition = None;
        crash = None;
      })

let test_partition_knob_accuses_nobody () =
  check_knob_blameless (fun seed ->
      {
        Fault.seed;
        link = None;
        partition =
          Some
            {
              Fault.island = [ 0; 1; 3 ];
              part_phase = (if seed mod 2 = 0 then `Costs else `Routing);
              at = 0.5;
              heals_at = 3.0;
            };
        crash = None;
      })

let test_crash_knob_accuses_nobody () =
  check_knob_blameless (fun seed ->
      {
        Fault.seed;
        link = None;
        partition = None;
        crash =
          Some
            {
              Fault.node = seed mod 9;
              crash_phase = (if seed mod 2 = 0 then `Routing else `Pricing);
              at = 1.0;
              recovers_at = 3.0;
            };
      })

let test_epsilon_agents_inactive_on_stock () =
  (* Theorem 1 keeps every unilateral gain <= 0 on the stock bank, so an
     epsilon-rational wrapper (any positive threshold) never activates:
     the campaign grades exactly like an all-faithful run of itself. *)
  let mix = { Campaign.faults = false; epsilon = Some 0.05 } in
  List.iter
    (fun seed ->
      let gr = Campaign.grade (Campaign.of_seed ~mix seed) in
      check Alcotest.bool "has epsilon wrappers" true
        (gr.Campaign.epsilon_active <> []);
      List.iter
        (fun (_i, active) ->
          check Alcotest.bool "inactive on stock" false active)
        gr.Campaign.epsilon_active;
      check Alcotest.bool "no violation" true
        (gr.Campaign.verdict <> Campaign.Violation))
    [ 3; 12; 27 ]

(* Replay 4285784464683832136 under --faults seats node 7 as a Byzantine
   node whose only drawn component is the cost pair (1, 1): one cost told
   to every neighbour. Read as that consistent declaration, the plan
   takes the fallback routing distortion, which BANK1 pins on node 7.
   The same pair seated alone, as [Inconsistent_cost (1, 1)] on the
   faults-free campaign, certifies, and the oracle prices the declared
   cost, so the tables match. Both graded as an integrity violation while
   the pair was read as a [Split] and the oracle honoured only
   [Misreport_cost]. *)
let equal_pair_seed = 4285784464683832136

let test_equal_cost_pair_is_a_declaration () =
  let d = Campaign.of_seed ~mix:mixed equal_pair_seed in
  let gr = Campaign.grade d in
  check Alcotest.bool "replay: no violation" true
    (gr.Campaign.verdict <> Campaign.Violation);
  check Alcotest.bool "replay: BANK1 names node 7" true
    (List.mem ("BANK1", Some 7) gr.Campaign.detections);
  let alone =
    Campaign.grade
      {
        d with
        Campaign.deviants = [ (7, Adversary.Inconsistent_cost (1., 1.)) ];
        fault = None;
      }
  in
  check (Alcotest.option Alcotest.bool) "declared cost priced" (Some true)
    alone.Campaign.tables_match;
  check Alcotest.bool "alone: no violation" true
    (alone.Campaign.verdict <> Campaign.Violation)

(* Campaign 8 of master seed 42 (replay seed 585031616423906090) is the
   known settlement-weakening escape: three execution deviants profit
   once verified clearing is off. *)
let violating_seed = 585031616423906090

let test_weakened_violation_replays_and_shrinks () =
  let weaken = Campaign.Weaken_settlement in
  let gr = Campaign.grade ~weaken (Campaign.of_seed violating_seed) in
  check Alcotest.bool "violation found" true
    (gr.Campaign.verdict = Campaign.Violation);
  check (Alcotest.option Alcotest.string) "profit kind" (Some "profit")
    gr.Campaign.violation_kind;
  (* --replay byte-identity of the violating campaign *)
  let j () = Json.to_string ~indent:2 (Campaign.json_of_graded gr) in
  let j2 =
    Json.to_string ~indent:2
      (Campaign.json_of_graded
         (Campaign.grade ~weaken (Campaign.of_seed violating_seed)))
  in
  check Alcotest.string "replay byte-identical" (j ()) j2;
  (* shrinker soundness: the minimized campaign re-grades to the same
     verdict class from its descr alone *)
  let s = Campaign.shrink ~weaken gr in
  check Alcotest.bool "shrunk still violates" true
    (s.Campaign.verdict = Campaign.Violation);
  let regraded = Campaign.grade ~weaken s.Campaign.descr in
  check Alcotest.bool "shrunk descr reproduces the violation" true
    (regraded.Campaign.verdict = Campaign.Violation);
  check (Alcotest.option Alcotest.string) "same kind" gr.Campaign.violation_kind
    regraded.Campaign.violation_kind

let test_epsilon_agents_activate_on_weakened_bank () =
  (* Same campaign, deviants wrapped epsilon-rational: the weakened bank
     lets the inner deviations clear their gain threshold, so the
     wrappers activate and the violation reappears. *)
  let mix = { Campaign.faults = false; epsilon = Some 0.05 } in
  let gr =
    Campaign.grade ~weaken:Campaign.Weaken_settlement
      (Campaign.of_seed ~mix violating_seed)
  in
  check Alcotest.bool "violation with epsilon agents" true
    (gr.Campaign.verdict = Campaign.Violation);
  check Alcotest.bool "some wrapper activated" true
    (List.exists snd gr.Campaign.epsilon_active)

(* Cross-commit replay golden: the digest of every graded campaign's JSON
   for the first 8 campaigns of master seed 42, in four modes. The replay
   tests above compare two grades made by one build; this list pins the
   bytes across builds. A deliberate change to grading or to the protocol
   replaces the list (the failure prints the actual one) and names the
   moved campaigns in the change log. *)
let golden_modes =
  [
    ("stock", Campaign.No_weaken, Campaign.stock);
    ("faults", Campaign.No_weaken, mixed);
    ("weaken-settlement", Campaign.Weaken_settlement, Campaign.stock);
    ("weaken-pricing", Campaign.Weaken_pricing, Campaign.stock);
  ]

let replay_golden =
  [
    ("stock", 0, "d21512f9b7f10e16dfb22670a243a9f7");
    ("stock", 1, "d315997f2044a008d22fbb36fe0f2438");
    ("stock", 2, "694e5d2fa8c00f15c5dddb073262f7ac");
    ("stock", 3, "8ed3528b82c159be82741fa90bc53d92");
    ("stock", 4, "019b422d2655fbac6d8ba89ef05fab09");
    ("stock", 5, "3af2579d8f2779be82d8f730d6af2f13");
    ("stock", 6, "b7743d6fe9be1973ad2850b128b249e2");
    ("stock", 7, "5f179d79cf22dbe0c3e52a5faef1f3c9");
    ("faults", 0, "f3ee06806008585cfd47a1852899e8f7");
    ("faults", 1, "3b1136c133af1eda443d171547f43768");
    ("faults", 2, "2a97df8ff544fc87a7871d1081663990");
    ("faults", 3, "1a72d2aa31da52108a4492df18aefa09");
    ("faults", 4, "201ce0f66645c0ffa94ae4254dc3ef2a");
    ("faults", 5, "be7dda8d176aecff007c5c9512fc907d");
    ("faults", 6, "341a7d20763101c81c8555e177d739ff");
    ("faults", 7, "1abf996506f4a57ea495051808628b08");
    ("weaken-settlement", 0, "d21512f9b7f10e16dfb22670a243a9f7");
    ("weaken-settlement", 1, "d315997f2044a008d22fbb36fe0f2438");
    ("weaken-settlement", 2, "694e5d2fa8c00f15c5dddb073262f7ac");
    ("weaken-settlement", 3, "8ed3528b82c159be82741fa90bc53d92");
    ("weaken-settlement", 4, "019b422d2655fbac6d8ba89ef05fab09");
    ("weaken-settlement", 5, "3e231f519607385d2c9dd62962a43f65");
    ("weaken-settlement", 6, "b7743d6fe9be1973ad2850b128b249e2");
    ("weaken-settlement", 7, "5f179d79cf22dbe0c3e52a5faef1f3c9");
    ("weaken-pricing", 0, "d21512f9b7f10e16dfb22670a243a9f7");
    ("weaken-pricing", 1, "d315997f2044a008d22fbb36fe0f2438");
    ("weaken-pricing", 2, "694e5d2fa8c00f15c5dddb073262f7ac");
    ("weaken-pricing", 3, "8ed3528b82c159be82741fa90bc53d92");
    ("weaken-pricing", 4, "019b422d2655fbac6d8ba89ef05fab09");
    ("weaken-pricing", 5, "3af2579d8f2779be82d8f730d6af2f13");
    ("weaken-pricing", 6, "19d5548ad6339f4ea9bcabe68d5636c1");
    ("weaken-pricing", 7, "5f179d79cf22dbe0c3e52a5faef1f3c9");
  ]

let test_replay_golden () =
  let actual =
    List.concat_map
      (fun (mode, weaken, mix) ->
        List.init 8 (fun i ->
            let d = Campaign.of_seed ~mix (Campaign.campaign_seed ~master:42 i) in
            let g = Campaign.grade ~weaken d in
            ( mode,
              i,
              Digest.to_hex
                (Digest.string (Json.to_string (Campaign.json_of_graded g))) )))
      golden_modes
  in
  if actual <> replay_golden then begin
    let golden = Array.of_list replay_golden in
    List.iteri
      (fun k (mode, i, hex) ->
        if k >= Array.length golden || golden.(k) <> (mode, i, hex) then
          Printf.printf "replay golden mismatch: mode %s, campaign %d\n" mode i)
      actual;
    print_endline "actual list:";
    List.iter
      (fun (mode, i, hex) -> Printf.printf "    (%S, %d, %S);\n" mode i hex)
      actual;
    Alcotest.fail "replay golden digests moved"
  end

let suites =
  [
    ( "gauntlet.campaign",
      [
        Alcotest.test_case "of_seed deterministic" `Quick test_of_seed_deterministic;
        Alcotest.test_case "grade replays byte-identical" `Quick
          test_grade_replays_byte_identical;
        Alcotest.test_case "sampled campaigns well-formed" `Quick
          test_sampled_graphs_biconnected_and_scoped;
        Alcotest.test_case "stock batch: no violation" `Slow
          test_stock_batch_no_violation;
        Alcotest.test_case "weakened bank violates" `Slow test_weakened_bank_violates;
        Alcotest.test_case "shrink identity on non-violation" `Quick
          test_shrink_identity_on_non_violation;
        Alcotest.test_case "weaken_of_string round-trip" `Quick
          test_weaken_of_string_roundtrip;
        Alcotest.test_case "campaign seeds distinct" `Quick test_campaign_seeds_distinct;
        Alcotest.test_case "replay golden: 8 campaigns x 4 modes" `Quick
          test_replay_golden;
      ] );
    ( "gauntlet.mixed",
      [
        Alcotest.test_case "mixed of_seed deterministic" `Quick
          test_mixed_of_seed_deterministic;
        Alcotest.test_case "mixed grade replays byte-identical" `Quick
          test_mixed_grade_replays_byte_identical;
        Alcotest.test_case "100 mixed campaigns: no false accusation" `Slow
          test_mixed_batch_no_false_accusation;
        Alcotest.test_case "loss knob accuses nobody" `Quick
          test_loss_knob_accuses_nobody;
        Alcotest.test_case "partition knob accuses nobody" `Quick
          test_partition_knob_accuses_nobody;
        Alcotest.test_case "crash knob accuses nobody" `Quick
          test_crash_knob_accuses_nobody;
        Alcotest.test_case "equal cost pair is a declaration" `Quick
          test_equal_cost_pair_is_a_declaration;
        Alcotest.test_case "epsilon inactive on stock" `Quick
          test_epsilon_agents_inactive_on_stock;
        Alcotest.test_case "weakened violation replays and shrinks" `Slow
          test_weakened_violation_replays_and_shrinks;
        Alcotest.test_case "epsilon activates on weakened bank" `Slow
          test_epsilon_agents_activate_on_weakened_bank;
      ] );
  ]
