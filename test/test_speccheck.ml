(* Tests for Damd_speccheck: the finite spec IR, the IR->closure compiler
   (including the trace-equivalence property against a hand-written
   machine), the static checker suite with its seeded mutations, the lint
   report driver, and the flow verifier (taint lattice, differential
   dependency inference, bounded product-machine exploration). *)

module Action = Damd_core.Action
module Sm = Damd_core.State_machine
module Phase = Damd_core.Phase
module Gen = Damd_graph.Gen
module Ir = Damd_speccheck.Ir
module Fpss_spec = Damd_speccheck.Fpss_spec
module Check = Damd_speccheck.Check
module Mutate = Damd_speccheck.Mutate
module Lint = Damd_speccheck.Lint
module Taint = Damd_speccheck.Taint
module Dev = Damd_speccheck.Dev
module Explore = Damd_speccheck.Explore
module Scenario = Damd_speccheck.Scenario
module Machine = Damd_speccheck.Machine
module Statepack = Damd_speccheck.Statepack
module Verify = Damd_speccheck.Verify
module Absint = Damd_speccheck.Absint
module Analyze = Damd_speccheck.Analyze
module Adversary = Damd_faithful.Adversary
module Flow = Damd_faithful.Flow

let check = Alcotest.check
let ir = Fpss_spec.ir
let fig1 () = fst (Gen.figure1 ())

let finding_ids fs = List.map (fun f -> f.Check.id) fs

(* --- the stock spec is clean ------------------------------------------ *)

let test_stock_ir_clean () =
  let findings = Check.check_ir ~adversary:Adversary.all_labels ir in
  check (Alcotest.list Alcotest.string) "no findings at any severity" []
    (finding_ids findings)

let test_stock_topology_clean () =
  check (Alcotest.list Alcotest.string) "fig1 is biconnected" []
    (finding_ids (Check.check_topology (fig1 ())))

let test_stock_lint_report () =
  let report =
    Lint.run ~adversary:Adversary.all_labels ~graph:(fig1 ()) ~topology:"fig1" ir
  in
  check Alcotest.int "zero errors" 0 (Lint.error_count report);
  check Alcotest.int "exit 0" 0 (Lint.exit_code report);
  check Alcotest.(option string) "no mutation" None report.Lint.mutation;
  check Alcotest.string "spec name" "extended-fpss" report.Lint.spec

(* --- every seeded mutation fires exactly its expected error ----------- *)

let test_mutations_fire () =
  List.iter
    (fun (name, expected_id) ->
      let report =
        Lint.run ~adversary:Adversary.all_labels ~mutation:name
          ~graph:(fig1 ()) ~topology:"fig1" ir
      in
      let errs = Check.errors report.Lint.findings in
      check Alcotest.int (name ^ ": exactly one error") 1 (List.length errs);
      check Alcotest.string (name ^ ": expected id") expected_id
        (List.hd errs).Check.id;
      check Alcotest.int (name ^ ": exit 1") 1 (Lint.exit_code report))
    Mutate.all

let test_mutation_table_consistent () =
  (* [expected] agrees with [all]; unknown names are rejected everywhere. *)
  List.iter
    (fun (name, id) ->
      check Alcotest.(option string) name (Some id) (Mutate.expected name))
    Mutate.all;
  check Alcotest.(option string) "unknown mutation" None
    (Mutate.expected "no-such-mutation");
  check Alcotest.bool "apply rejects unknown" true
    (Mutate.apply "no-such-mutation" (ir, fig1 ()) = None);
  check Alcotest.bool "lint raises on unknown" true
    (try
       ignore
         (Lint.run ~mutation:"no-such-mutation" ~graph:(fig1 ())
            ~topology:"fig1" ir);
       false
     with Invalid_argument _ -> true)

(* --- the compiled machine --------------------------------------------- *)

let machine = Compile.machine ir

let test_compiled_suggested_trace () =
  let steps = Sm.trace ~max_steps:50 machine in
  check Alcotest.int "eleven steps" 11 (List.length steps);
  check Alcotest.string "halts" "halt" (Sm.final_state ~max_steps:50 machine);
  check (Alcotest.list Alcotest.string) "protocol order"
    (List.map (fun (a : Ir.action) -> a.Ir.id) ir.Ir.actions)
    (Compile.suggested_path ir ~max_steps:50)

let test_compiled_follows_specification () =
  check Alcotest.bool "suggested follows itself" true
    (Sm.follows_specification ~max_steps:50 ~strategy:machine.Sm.suggested
       machine);
  check Alcotest.bool "no deviation point" true
    (Sm.deviation_point ~max_steps:50 ~strategy:machine.Sm.suggested machine
    = None)

let test_compiled_deviation_point () =
  (* Swap the routing-forward step for the computation that should come
     one step later: caught at index 2 with the suggested class there. *)
  let strategy s =
    if s = "routing-forward" then Some "recompute-routing"
    else machine.Sm.suggested s
  in
  check Alcotest.bool "deviant flagged" false
    (Sm.follows_specification ~max_steps:50 ~strategy machine);
  match Sm.deviation_point ~max_steps:50 ~strategy machine with
  | Some (2, Some Action.Message_passing) -> ()
  | Some (i, _) -> Alcotest.failf "deviation at %d, expected 2" i
  | None -> Alcotest.fail "no deviation point"

let test_compiled_early_halt () =
  let strategy s = if s = "pricing-forward" then None else machine.Sm.suggested s in
  match Sm.deviation_point ~max_steps:50 ~strategy machine with
  | Some (5, None) -> ()
  | Some (i, _) -> Alcotest.failf "halt detected at %d, expected 5" i
  | None -> Alcotest.fail "early halt not detected"

let test_compiled_self_loop () =
  (* Undefined (state, action) pairs self-loop instead of raising, so a
     deviating strategy still yields a trace for [deviation_point]. *)
  check Alcotest.string "self loop" "cost-announce"
    (machine.Sm.transition "cost-announce" "forward-packets");
  check Alcotest.bool "unknown action is internal" true
    (machine.Sm.classify "no-such-action" = Action.Internal)

(* --- QCheck: the compiler agrees with a hand-written machine ----------- *)

(* The §4.1 chain written out as literal closures, the way the spec was
   expressed before the IR existed. The property pins the compiler to it:
   any strategy produces identical traces on both. *)
let hand_machine : (string, string) Sm.t =
  let chain =
    [
      ("cost-announce", "declare-cost", "cost-flood");
      ("cost-flood", "flood-costs", "routing-forward");
      ("routing-forward", "forward-routing-copies", "routing-compute");
      ("routing-compute", "recompute-routing", "routing-mirror");
      ("routing-mirror", "mirror-routing", "pricing-forward");
      ("pricing-forward", "forward-pricing-copies", "pricing-compute");
      ("pricing-compute", "recompute-pricing", "pricing-mirror");
      ("pricing-mirror", "mirror-pricing", "digest-report");
      ("digest-report", "report-digests", "exec-forward");
      ("exec-forward", "forward-packets", "exec-settle");
      ("exec-settle", "report-payments", "halt");
    ]
  in
  {
    Sm.initial = "cost-announce";
    transition =
      (fun s a ->
        match
          List.find_opt (fun (src, act, _) -> src = s && act = a) chain
        with
        | Some (_, _, dst) -> dst
        | None -> s);
    suggested =
      (fun s ->
        match List.find_opt (fun (src, _, _) -> src = s) chain with
        | Some (_, act, _) -> Some act
        | None -> None);
    classify =
      (function
      | "declare-cost" -> Action.Information_revelation
      | "flood-costs" | "forward-routing-copies" | "forward-pricing-copies"
      | "forward-packets" ->
          Action.Message_passing
      | "recompute-routing" | "mirror-routing" | "recompute-pricing"
      | "mirror-pricing" | "report-digests" | "report-payments" ->
          Action.Computation
      | _ -> Action.Internal);
  }

let action_ids = List.map (fun (a : Ir.action) -> a.Ir.id) ir.Ir.actions

let prop_compiled_equals_hand_written =
  QCheck.Test.make ~name:"IR-compiled trace = hand-written closure trace"
    ~count:200
    QCheck.(
      list_of_size
        (QCheck.Gen.return (List.length ir.Ir.states))
        (int_bound (List.length action_ids)))
    (fun choices ->
      (* One choice per state: an action id to play there, or halt. *)
      let strategy s =
        match
          List.find_opt (fun (s', _) -> s' = s)
            (List.map2 (fun st c -> (st, c)) ir.Ir.states choices)
        with
        | Some (_, c) when c < List.length action_ids ->
            Some (List.nth action_ids c)
        | _ -> None
      in
      Sm.trace ~strategy ~max_steps:30 machine
      = Sm.trace ~strategy ~max_steps:30 hand_machine
      && Sm.trace ~max_steps:30 machine = Sm.trace ~max_steps:30 hand_machine)

(* --- Phase.execute over IR-derived phases ------------------------------ *)

(* Each IR phase becomes a [Phase.t] that advances the compiled machine
   through the phase's member states under the suggested play. *)
let ir_phase ~certify (p : Ir.phase) =
  let run state =
    let rec go s =
      if List.mem s p.Ir.members then
        match machine.Sm.suggested s with
        | Some a -> go (machine.Sm.transition s a)
        | None -> s
      else s
    in
    go state
  in
  { Phase.name = p.Ir.pname; run; certify }

let test_phase_execute_clean () =
  let phases =
    List.map (ir_phase ~certify:(fun _ -> Ok ())) ir.Ir.phases
  in
  match Phase.execute ir.Ir.initial phases with
  | Phase.Completed p ->
      check Alcotest.string "reaches halt" "halt" p.Phase.state;
      check Alcotest.int "no restarts" 0 (Phase.total_restarts p)
  | Phase.Stuck { phase; _ } -> Alcotest.failf "stuck in %s" phase

let test_phase_execute_restart_accounting () =
  (* construction-2b flakes twice before certifying: the outcome completes
     with exactly those two restarts on record, attributed to the phase. *)
  let attempts = ref 0 in
  let phases =
    List.map
      (fun (p : Ir.phase) ->
        let certify _ =
          if p.Ir.pname = "construction-2b" then begin
            incr attempts;
            if !attempts <= 2 then Error "digest mismatch" else Ok ()
          end
          else Ok ()
        in
        ir_phase ~certify p)
      ir.Ir.phases
  in
  match Phase.execute ir.Ir.initial phases with
  | Phase.Completed p ->
      check Alcotest.string "reaches halt" "halt" p.Phase.state;
      check Alcotest.int "two restarts" 2 (Phase.total_restarts p);
      List.iter
        (fun (phase, reason) ->
          check Alcotest.string "restart phase" "construction-2b" phase;
          check Alcotest.string "restart reason" "digest mismatch" reason)
        p.Phase.restarts
  | Phase.Stuck { phase; _ } -> Alcotest.failf "stuck in %s" phase

let test_phase_execute_stuck () =
  (* A persistently failing execution checkpoint is the paper's penalty of
     no progress: Stuck names the phase from the IR. *)
  let phases =
    List.map
      (fun (p : Ir.phase) ->
        let certify _ =
          if p.Ir.pname = "execution" then Error "settlement mismatch"
          else Ok ()
        in
        ir_phase ~certify p)
      ir.Ir.phases
  in
  match Phase.execute ~max_restarts:2 ir.Ir.initial phases with
  | Phase.Completed _ -> Alcotest.fail "expected Stuck"
  | Phase.Stuck { phase; reason; progress } ->
      check Alcotest.string "stuck phase" "execution" phase;
      check Alcotest.string "stuck reason" "settlement mismatch" reason;
      (* the initial attempt plus each of the max_restarts retries failed *)
      check Alcotest.int "restarts recorded" 3 (Phase.total_restarts progress)

(* --- IR helpers -------------------------------------------------------- *)

let test_ir_phase_lookup () =
  List.iter
    (fun (state, pname) ->
      match Ir.phase_of_state ir state with
      | Some p -> check Alcotest.string state pname p.Ir.pname
      | None -> Alcotest.failf "%s in no phase" state)
    [
      ("cost-flood", "construction-1");
      ("routing-mirror", "construction-2a");
      ("digest-report", "construction-2b");
      ("exec-settle", "execution");
    ];
  check Alcotest.bool "halt is terminal, in no phase" true
    (Ir.phase_of_state ir "halt" = None);
  match Ir.phase_of_action ir "report-digests" with
  | Some p -> check Alcotest.string "action phase" "construction-2b" p.Ir.pname
  | None -> Alcotest.fail "report-digests in no phase"

(* --- multi-phase attribution (the phase_of_action blind spot) ---------- *)

let test_multi_phase_action () =
  (* Stock: report-digests runs in construction-2b only. *)
  check (Alcotest.list Alcotest.string) "stock: single phase"
    [ "construction-2b" ]
    (List.map
       (fun (p : Ir.phase) -> p.Ir.pname)
       (Ir.phases_of_action ir "report-digests"));
  (* An extra transition in the execution phase makes the action span two
     phases: phases_of_action reports both (declaration order),
     phase_of_action keeps the earliest, and the checker warns. *)
  let ir' =
    {
      ir with
      Ir.transitions =
        ir.Ir.transitions
        @ [ { Ir.src = "exec-settle"; act = "report-digests"; dst = "exec-settle" } ];
    }
  in
  check (Alcotest.list Alcotest.string) "spanning: both phases"
    [ "construction-2b"; "execution" ]
    (List.map
       (fun (p : Ir.phase) -> p.Ir.pname)
       (Ir.phases_of_action ir' "report-digests"));
  (match Ir.phase_of_action ir' "report-digests" with
  | Some p -> check Alcotest.string "earliest wins" "construction-2b" p.Ir.pname
  | None -> Alcotest.fail "report-digests in no phase");
  let findings = Check.check_ir ~adversary:Adversary.all_labels ir' in
  check (Alcotest.list Alcotest.string) "exactly the warning"
    [ "multi-phase-action" ] (finding_ids findings);
  check Alcotest.bool "warning, not error" true
    ((List.hd findings).Check.severity = Check.Warning)

(* --- the taint lattice ------------------------------------------------- *)

let test_taint_lattice () =
  let labels = [ Taint.Public; Taint.Received; Taint.Private ] in
  (* the chain, in taint order *)
  check Alcotest.bool "public below received" true
    (Taint.leq Taint.Public Taint.Received);
  check Alcotest.bool "received below private" true
    (Taint.leq Taint.Received Taint.Private);
  check Alcotest.bool "private not below public" false
    (Taint.leq Taint.Private Taint.Public);
  (* join is the lub: commutative, idempotent, an upper bound *)
  List.iter
    (fun a ->
      check Alcotest.bool "idempotent" true (Taint.join a a = a);
      List.iter
        (fun b ->
          check Alcotest.bool "commutative" true
            (Taint.join a b = Taint.join b a);
          check Alcotest.bool "upper bound" true
            (Taint.leq a (Taint.join a b) && Taint.leq b (Taint.join a b)))
        labels)
    labels;
  check Alcotest.string "empty summary is public" "public"
    (Taint.to_string (Taint.summary []));
  check Alcotest.string "private dominates" "private"
    (Taint.to_string
       (Taint.summary [ Ir.Protocol_state; Ir.Private_info ]));
  check Alcotest.string "received without private" "received"
    (Taint.to_string
       (Taint.summary [ Ir.Protocol_state; Ir.Received_messages ]))

(* --- differential flow inference --------------------------------------- *)

let stock_observations = Flow.observations ()

let test_stock_flow_agreement () =
  (* The harness covers the whole catalogue, in catalogue order, and the
     inferred dependency sets match the declarations exactly. *)
  check (Alcotest.list Alcotest.string) "full catalogue coverage"
    (List.map (fun (a : Ir.action) -> a.Ir.id) ir.Ir.actions)
    (List.map (fun (o : Taint.observation) -> o.Taint.action)
       stock_observations);
  check (Alcotest.list Alcotest.string) "declared = observed" []
    (finding_ids (Taint.check ir ~observed:stock_observations))

let test_flow_mismatch () =
  (* An observation with an undeclared dependency is the dangerous
     direction: error. flood-costs declares {received, protocol}; feeding
     it an observed private dependency must trip decl-flow-mismatch (and
     the unexercised protocol declaration rides along as slack). *)
  let observed =
    [ { Taint.action = "flood-costs"; deps = [ Ir.Private_info; Ir.Received_messages ] } ]
  in
  let findings = Taint.check ir ~observed in
  check (Alcotest.list Alcotest.string) "mismatch + slack"
    [ "decl-flow-mismatch"; "decl-flow-slack" ]
    (finding_ids findings);
  let mismatch = List.hd findings in
  check Alcotest.bool "mismatch is an error" true
    (mismatch.Check.severity = Check.Error);
  check Alcotest.string "located at the action" "flood-costs"
    mismatch.Check.location

let test_flow_slack_under_deviation () =
  (* A deviating implementation that ignores a declared input shows up as
     slack: Misroute_packets picks the next hop without consulting the
     routing table, so forward-packets loses its protocol-state flow. *)
  let observed = Flow.observations ~deviation:Adversary.Misroute_packets () in
  match Taint.check ir ~observed with
  | [ f ] ->
      check Alcotest.string "slack id" "decl-flow-slack" f.Check.id;
      check Alcotest.string "at forward-packets" "forward-packets"
        f.Check.location;
      check Alcotest.bool "warning severity" true
        (f.Check.severity = Check.Warning)
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

(* --- bounded product-machine exploration ------------------------------- *)

let stock_outcome = lazy (Explore.run ~graph:(fig1 ()) ir)

let test_explore_stock () =
  let o = Lazy.force stock_outcome in
  check (Alcotest.list Alcotest.string) "no findings" []
    (finding_ids o.Explore.findings);
  check Alcotest.bool "not truncated" false o.Explore.stats.Explore.truncated;
  check Alcotest.int "one verdict per non-faithful label"
    (List.length (List.filter (fun d -> d <> Dev.Faithful) Dev.all))
    (List.length o.Explore.verdicts);
  let exempt, rest =
    List.partition
      (fun (_, v) -> match v with Scenario.Exempt _ -> true | _ -> false)
      o.Explore.verdicts
  in
  check
    (Alcotest.list Alcotest.string)
    "exactly the by-design exemptions"
    [ "lying-checker"; "misreport-cost" ]
    (List.sort String.compare
       (List.map (fun (d, _) -> Dev.to_string d) exempt));
  List.iter
    (fun (d, v) ->
      match v with
      | Scenario.Detected { depth; _ } ->
          check Alcotest.bool (Dev.to_string d ^ ": positive depth") true
            (depth > 0)
      | _ -> Alcotest.failf "%s not detected" (Dev.to_string d))
    rest

let test_explore_covers_suggested_chain () =
  (* Cross-validation against the compiled machine: every state the
     suggested play visits is covered by some explored scenario. *)
  let o = Lazy.force stock_outcome in
  let rec walk s acc =
    match machine.Sm.suggested s with
    | Some a ->
        let s' = machine.Sm.transition s a in
        walk s' (s' :: acc)
    | None -> List.rev acc
  in
  List.iter
    (fun s ->
      check Alcotest.bool ("covers " ^ s) true
        (List.mem s o.Explore.covered_states))
    (walk ir.Ir.initial [ ir.Ir.initial ])

(* A shared generator of randomly edited IRs: extra transitions,
   overridden suggestions, appended states — the adversarial inputs for
   the totality and differential properties below. *)
let edited_ir (i, j, k) =
  let action_arr = Array.of_list action_ids in
  let state_arr = Array.of_list ir.Ir.states in
  let s_at x = state_arr.(x mod Array.length state_arr) in
  let a_at x = action_arr.(x mod Array.length action_arr) in
  {
    ir with
    Ir.states =
      (if i mod 3 = 0 then ir.Ir.states @ [ "limbo" ] else ir.Ir.states);
    transitions =
      { Ir.src = s_at i; act = a_at j; dst = s_at k } :: ir.Ir.transitions;
    suggested =
      (if k mod 2 = 0 then (s_at k, a_at i) :: ir.Ir.suggested
       else ir.Ir.suggested);
  }

(* QCheck: the [Machine] table every checker reads agrees with the
   closure compiler, state by state: suggested action, destination, and
   phase index. [edited_ir] prepends shadowing transitions and
   suggestions, so the first-binding lookups are exercised. The table
   self-loops where a transition leaves the declared states. *)
let phase_index (ir : Ir.t) s =
  match Ir.phase_of_state ir s with
  | None -> -1
  | Some p ->
      let rec go i = function
        | [] -> -1
        | q :: rest -> if q == p then i else go (i + 1) rest
      in
      go 0 ir.Ir.phases

let prop_machine_equals_compiled =
  QCheck.Test.make ~name:"machine table = compiled closures" ~count:200
    QCheck.(triple small_nat small_nat small_nat)
    (fun triple ->
      let edited = edited_ir triple in
      let m = Machine.build edited in
      let c = Compile.machine edited in
      List.for_all
        (fun i ->
          let s = m.Machine.states.(i) in
          let dst =
            match c.Sm.suggested s with
            | None -> s
            | Some a ->
                let d = c.Sm.transition s a in
                if List.mem d edited.Ir.states then d else s
          in
          m.Machine.sugg_id.(i) = c.Sm.suggested s
          && String.equal m.Machine.states.(m.Machine.dst_of.(i)) dst
          && m.Machine.phase_of.(i) = phase_index edited s)
        (List.init (Array.length m.Machine.states) Fun.id))

(* QCheck: exploration is total — randomly edited IRs never raise and
   always terminate within the bound. [audit] keeps the packed-key
   encoding honest on every run: each canonical key is cross-checked
   against the structural (unpacked) key, and any collision raises
   [Statepack.Collision], failing the property. This is the
   packed-equals-structural differential. *)
let prop_explore_total =
  QCheck.Test.make ~name:"exploration of edited IRs is total (keys audited)"
    ~count:15
    QCheck.(triple small_nat small_nat small_nat)
    (fun triple ->
      let o = Explore.run ~bound:1500 ~audit:true ~graph:(fig1 ()) (edited_ir triple) in
      o.Explore.stats.Explore.scenarios > 0
      && o.Explore.stats.Explore.states_explored >= 0)

(* --- POR soundness: the reduced exploration proves the same things ----- *)

(* Witness strings record one concrete interleaving, which the reduction
   legitimately changes; verdicts are compared with witnesses erased.
   Depths are NOT erased: equal-length commuting paths are part of the
   soundness argument (DESIGN.md §16), so POR must preserve the BFS
   detection depth exactly. *)
let normalize_verdict = function
  | Scenario.Undetected _ -> Scenario.Undetected { witness = "" }
  | v -> v

let normalized_verdicts (o : Explore.outcome) =
  List.map (fun (d, v) -> (d, normalize_verdict v)) o.Explore.verdicts

let finding_keys fs =
  List.sort
    (fun (a, b) (c, d) ->
      match String.compare a c with 0 -> String.compare b d | n -> n)
    (List.map (fun f -> (f.Check.id, f.Check.location)) fs)

let prop_por_differential =
  QCheck.Test.make
    ~name:"POR-on = POR-off: identical verdicts and findings" ~count:10
    QCheck.(triple small_nat small_nat small_nat)
    (fun triple ->
      let edited = edited_ir triple in
      let on = Explore.run ~bound:1500 ~por:true ~graph:(fig1 ()) edited in
      let off = Explore.run ~bound:1500 ~por:false ~graph:(fig1 ()) edited in
      (* The soundness claim is about complete explorations: if either
         side hit the bound the verdict sets may legitimately diverge
         (Truncated vs a late detection), so the property degrades to
         totality for that sample. *)
      if on.Explore.stats.Explore.truncated || off.Explore.stats.Explore.truncated
      then true
      else
        normalized_verdicts on = normalized_verdicts off
        && finding_keys on.Explore.findings = finding_keys off.Explore.findings
        && List.sort String.compare on.Explore.covered_states
           = List.sort String.compare off.Explore.covered_states)

(* --- parallel fan-out: domains do not change the outcome --------------- *)

let test_parallel_matches_sequential () =
  (* Scenarios are independent by construction; the merge is deterministic
     in scenario order, so everything except wall-clock must be bit-equal.
     [~domains:4] forces real Domain.spawn even on a single-core runner. *)
  let seq = Explore.run ~domains:1 ~graph:(fig1 ()) ir in
  let par = Explore.run ~domains:4 ~graph:(fig1 ()) ir in
  check Alcotest.bool "verdicts identical (witnesses included)" true
    (seq.Explore.verdicts = par.Explore.verdicts);
  check Alcotest.bool "findings identical" true
    (seq.Explore.findings = par.Explore.findings);
  check (Alcotest.list Alcotest.string) "covered states identical"
    seq.Explore.covered_states par.Explore.covered_states;
  check Alcotest.int "states identical"
    seq.Explore.stats.Explore.states_explored
    par.Explore.stats.Explore.states_explored;
  check Alcotest.int "frontier peak identical"
    seq.Explore.stats.Explore.frontier_peak
    par.Explore.stats.Explore.frontier_peak;
  check Alcotest.bool "neither truncated" false
    (seq.Explore.stats.Explore.truncated
    || par.Explore.stats.Explore.truncated)

(* --- model checking at scale: the 4x4 torus (n = 16) ------------------- *)

let torus_4x4 () =
  let rng = Damd_util.Rng.create 42 in
  Gen.torus ~rows:4 ~cols:4
    ~costs:(Gen.draw_costs rng (Gen.Uniform_int (1, 10)) 16)

let test_explore_torus_scale () =
  (* The full §4.3 catalogue on n=16 — an order of magnitude past the
     seed's fig1 run (16,222 canonical states pre-reduction). POR-off
     pins the raw product size; POR-on must reach the same verdicts
     (same depths, same certifiers) over a far smaller state set. *)
  let on = Explore.run ~bound:1_000_000 ~por:true ~graph:(torus_4x4 ()) ir in
  let off = Explore.run ~bound:1_000_000 ~por:false ~graph:(torus_4x4 ()) ir in
  check Alcotest.bool "POR-off not truncated" false
    off.Explore.stats.Explore.truncated;
  check Alcotest.bool "POR-on not truncated" false
    on.Explore.stats.Explore.truncated;
  check Alcotest.bool "unreduced space is >= 10x the seed's fig1 run" true
    (off.Explore.stats.Explore.states_explored >= 162_220);
  check Alcotest.bool "reduction shrinks the space" true
    (on.Explore.stats.Explore.states_explored
    < off.Explore.stats.Explore.states_explored / 2);
  check Alcotest.bool "POR is actually active at n=16" true
    on.Explore.stats.Explore.por;
  check Alcotest.bool "verdicts agree (witnesses normalized)" true
    (normalized_verdicts on = normalized_verdicts off);
  check (Alcotest.list Alcotest.string) "no findings at n=16" []
    (finding_ids on.Explore.findings);
  List.iter
    (fun (d, v) ->
      match v with
      | Scenario.Detected _ | Scenario.Exempt _ -> ()
      | _ -> Alcotest.failf "%s not detected at n=16" (Dev.to_string d))
    on.Explore.verdicts

(* Jobs of one shape differ only in their label, so one search serves
   them all; jobs of different shapes differ in something a search
   reads. On the stock plan the 19 jobs have 12 shapes. *)
let test_scenario_shapes () =
  let module Scenario = Damd_speccheck.Scenario in
  let m = Machine.build ir in
  List.iter
    (fun (name, graph) ->
      let plan =
        Scenario.make m ir ~graph ~adversary:Adversary.all_labels
      in
      let shapes, of_job = Scenario.distinct plan in
      check Alcotest.int (name ^ ": jobs") 19 (List.length plan.Scenario.jobs);
      check Alcotest.int (name ^ ": shapes") 12 (List.length shapes);
      let same (a : Scenario.job) (b : Scenario.job) =
        a.Scenario.targets = b.Scenario.targets
        && a.Scenario.covered == b.Scenario.covered
        && a.Scenario.stall = b.Scenario.stall
        && a.Scenario.has_deviant = b.Scenario.has_deviant
        && a.Scenario.faithful = b.Scenario.faithful
      in
      let shapes = Array.of_list shapes in
      List.iteri
        (fun j (job : Scenario.job) ->
          Array.iteri
            (fun k r ->
              check Alcotest.bool
                (Printf.sprintf "%s: shape %d" job.Scenario.label k)
                (k = of_job.(j)) (same job r))
            shapes)
        plan.Scenario.jobs)
    [ ("fig1", fig1 ()); ("4x4", torus_4x4 ()) ];
  (* A one-label vocabulary has no two jobs of one shape, so each label's
     verdict from its own run is the unshared search's; the full run,
     where labels share searches, must agree witness for witness — on
     the stock spec and on one with escapes. *)
  List.iter
    (fun (ir, graph) ->
      List.iter
        (fun (d, v) ->
          let own = Explore.run ~adversary:[ d ] ~graph ir in
          check Alcotest.bool (Dev.to_string d ^ ": shared = own search") true
            (own.Explore.verdicts = [ (d, v) ]))
        (Explore.run ~graph ir).Explore.verdicts)
    [
      (ir, fig1 ());
      Option.get (Mutate.apply "drop-checkpoint" (ir, fig1 ()));
    ]

(* --- the packed-key limits ------------------------------------------------ *)

(* The stock spec padded with empty phases to [n] phases. *)
let ir_padded n =
  {
    ir with
    Ir.phases =
      ir.Ir.phases
      @ List.init
          (n - List.length ir.Ir.phases)
          (fun i ->
            {
              Ir.pname = Printf.sprintf "pad-%d" i;
              members = [];
              checkpoint = None;
            });
  }

(* 63 phases, past the 62-bit acted/evidence lanes of a packed key.
   Exploration must not raise: every label that needs a search is
   [Truncated] under one warning that names the limit, so
   detection-completeness fails, and the static pass, which searches on
   the same keys, still reports a frontier row per label. *)
let test_explore_phase_limit () =
  let ir_63_phases = ir_padded 63 in
  let o = Explore.run ~graph:(fig1 ()) ir_63_phases in
  check Alcotest.int "one verdict per label" 20
    (List.length o.Explore.verdicts);
  List.iter
    (fun (d, v) ->
      match v with
      | Scenario.Truncated -> ()
      | Scenario.Exempt _ when List.mem_assoc d Machine.exemptions -> ()
      | _ -> Alcotest.failf "%s: expected truncated" (Dev.to_string d))
    o.Explore.verdicts;
  check
    (Alcotest.list Alcotest.string)
    "one warning" [ "exploration-truncated" ]
    (finding_ids o.Explore.findings);
  check Alcotest.bool "the warning names the 62-phase limit" true
    (List.exists
       (fun f -> Astring.String.is_infix ~affix:"at most 62" f.Check.message)
       o.Explore.findings);
  check Alcotest.bool "stats report truncation" true
    o.Explore.stats.Explore.truncated;
  let r =
    Verify.run ~observed:stock_observations ~graph:(fig1 ()) ~topology:"fig1"
      ir_63_phases
  in
  check Alcotest.bool "verify: detection incomplete" false
    (Verify.detection_complete r);
  let a =
    Analyze.run ~differential:true ~graph:(fig1 ()) ~topology:"fig1"
      ir_63_phases
  in
  check Alcotest.int "static frontier rows" 20
    (List.length a.Analyze.result.Absint.frontier)

(* 18 phases fit a key: the stock spec padded with 14 empty phases
   explores to the stock verdicts, and its two-seat frontier is the stock
   frontier, sound against the n-seat search. *)
let test_explore_18_phases () =
  let ir_18_phases = ir_padded 18 in
  let o = Explore.run ~graph:(fig1 ()) ir_18_phases in
  check Alcotest.bool "explore: the stock verdicts, none truncated" true
    (o.Explore.verdicts = (Lazy.force stock_outcome).Explore.verdicts);
  let a =
    Analyze.run ~differential:true ~graph:(fig1 ()) ~topology:"fig1"
      ir_18_phases
  in
  check Alcotest.bool "analyze: no truncated row" false
    (List.exists
       (fun fr -> fr.Absint.fr_verdict = Scenario.Truncated)
       a.Analyze.result.Absint.frontier);
  check Alcotest.bool "analyze: the stock frontier" true
    (a.Analyze.result.Absint.frontier
    = (Analyze.run ~graph:(fig1 ()) ~topology:"fig1" ir).Analyze.result
        .Absint.frontier);
  check Alcotest.(option bool) "analyze --differential sound" (Some true)
    (Analyze.frontier_sound a)

(* Past 65 535 seats a 16-bit count lane drops the high bits:
   (1, 69 999, 0) and (65 537, 4 463, 0) agree in their low 16 bits lane
   by lane. The key must still tell them apart, and the lanes are sized
   from [bits_for n]: three counts with the 15 bits of dev, phase and
   masks fit one 63-bit word up to 65 535 seats (16-bit lanes, 63 bits)
   and take a second word at 70 000 (17-bit lanes, 66 bits). *)
let test_statepack_wide_counts () =
  let st cnt = { Statepack.dev = -1; cnt; ph = 0; acted = 0; evid = 0 } in
  let a = st [| 1; 69_999; 0 |] and b = st [| 65_537; 4_463; 0 |] in
  let codec = Statepack.make ~ns:3 ~n:70_000 ~nphases:4 in
  check Alcotest.bool "structurally distinct" false
    (String.equal (Statepack.structural a) (Statepack.structural b));
  check Alcotest.bool "packed keys distinct" false
    (String.equal
       (Statepack.pack_string codec a)
       (Statepack.pack_string codec b));
  List.iter
    (fun (n, words) ->
      let codec = Statepack.make ~ns:3 ~n ~nphases:4 in
      check Alcotest.int (Printf.sprintf "words at n = %d" n) words
        (Statepack.words codec);
      check Alcotest.int
        (Printf.sprintf "key length at n = %d" n)
        (8 * words)
        (String.length (Statepack.pack_string codec (st [| n; 0; 0 |]))))
    [ (255, 1); (65_535, 1); (70_000, 2) ]

(* The stock chain is 12 states over 4 phases, so its layouts are the
   ones the tori exercise: 63 bits in one word at n = 9 and 12 (the 3x3
   and 3x4 tori), two words from n = 16, five at n = 70 000 (four words
   of three 17-bit counts, then dev, phase and masks). *)
let stock_codec n =
  Statepack.make ~ns:(List.length ir.Ir.states) ~n
    ~nphases:(List.length ir.Ir.phases)

let test_statepack_stock_layouts () =
  List.iter
    (fun (n, words) ->
      let c = stock_codec n in
      check Alcotest.int (Printf.sprintf "words at n = %d" n) words
        (Statepack.words c);
      check Alcotest.bool
        (Printf.sprintf "fits_int at n = %d" n)
        (words = 1) (Statepack.fits_int c))
    [ (6, 1); (9, 1); (12, 1); (16, 2); (25, 2); (64, 2); (70_000, 5) ]

(* QCheck: a successor key is its parent's words with one or two lanes
   rewritten, and must equal the fresh packing of the successor state.
   For a random state of a random stock layout, every enabled move is
   checked — each occupied class stepping to every chain state, the
   deviant stepping anywhere with fresh masks, the phase cursor
   advancing — and every key must unpack to its state. *)
let prop_statepack_rewrite_is_fresh_pack =
  QCheck.Test.make ~name:"rewritten successor key = fresh packing" ~count:300
    QCheck.(triple (int_range 0 4) small_nat (int_bound 1_000_000))
    (fun (layout, extra, seed) ->
      let n = [| 6; 9; 12; 25; 70_000 |].(layout) + extra in
      let c = stock_codec n in
      let ns = List.length ir.Ir.states in
      let nphases = List.length ir.Ir.phases in
      let rng = Damd_util.Rng.create seed in
      let dev = Damd_util.Rng.int rng (ns + 1) - 1 in
      let cnt = Array.make ns 0 in
      cnt.(Damd_util.Rng.int rng ns) <- (if dev >= 0 then n - 1 else n);
      for _ = 1 to 8 do
        let i = Damd_util.Rng.int rng ns and j = Damd_util.Rng.int rng ns in
        let k = Damd_util.Rng.int rng (cnt.(i) + 1) in
        cnt.(i) <- cnt.(i) - k;
        cnt.(j) <- cnt.(j) + k
      done;
      let mask () = Damd_util.Rng.int rng (1 lsl nphases) in
      let s =
        {
          Statepack.dev;
          cnt;
          ph = Damd_util.Rng.int rng nphases;
          acted = mask ();
          evid = mask ();
        }
      in
      let w = Statepack.words c in
      let fresh t =
        let k = Array.make w 0 in
        Statepack.pack c t k 0;
        k
      in
      let agrees rewrite t =
        let k = fresh s in
        rewrite k;
        k = fresh t && Statepack.unpack c k 0 = t
      in
      Statepack.unpack c (fresh s) 0 = s
      && List.for_all
           (fun src ->
             cnt.(src) = 0
             || List.for_all
                  (fun dst ->
                    let cnt' = Array.copy cnt in
                    cnt'.(src) <- cnt'.(src) - 1;
                    cnt'.(dst) <- cnt'.(dst) + 1;
                    agrees
                      (fun k -> Statepack.move c k 0 ~src ~dst)
                      { s with Statepack.cnt = cnt' })
                  (List.init ns Fun.id))
           (List.init ns Fun.id)
      && List.for_all
           (fun d ->
             let acted = mask () and evid = mask () in
             agrees
               (fun k -> Statepack.step_dev c k 0 ~dev:d ~acted ~evid)
               { s with Statepack.dev = d; acted; evid })
           (if dev >= 0 then List.init ns Fun.id else [])
      && agrees
           (fun k -> Statepack.set_phase c k 0 (s.Statepack.ph + 1))
           { s with Statepack.ph = s.Statepack.ph + 1 })

(* The audit on the multi-word layouts: every rewritten successor key is
   checked against a fresh packing of the successor and against the
   structural map. The 4x4 torus keeps all twelve 5-bit counts in word 0
   and the deviant, phase and masks in word 1. A 32-node ring has 6-bit
   counts, ten to a word, so the faithful step from forwarding to
   settlement in the execution phase (state 9 to 10) moves a seat
   across words.
   A 70 000-node ring has 17-bit counts and five words; its phase
   barrier holds every seat inside the first phase well past the bound,
   so it audits the widest layout on deviant and faithful steps only. *)
let test_explore_audit_wide_layouts () =
  let o = Explore.run ~bound:1_000_000 ~audit:true ~graph:(torus_4x4 ()) ir in
  check Alcotest.bool "4x4 audited, not truncated" false
    o.Explore.stats.Explore.truncated;
  check Alcotest.bool "4x4 verdicts as unaudited" true
    (o.Explore.verdicts
    = (Explore.run ~bound:1_000_000 ~graph:(torus_4x4 ()) ir).Explore.verdicts);
  let ring n = Gen.ring ~n ~costs:(Array.make n 1.) in
  let o =
    Explore.run ~audit:true ~adversary:[ Dev.Misroute_packets ]
      ~graph:(ring 32) ir
  in
  check Alcotest.bool "32-ring audited, not truncated" false
    o.Explore.stats.Explore.truncated;
  let o = Explore.run ~bound:1500 ~audit:true ~graph:(ring 70_000) ir in
  check Alcotest.bool "70 000-ring audited up to the bound" true
    (o.Explore.stats.Explore.states_explored > 1500)

(* --- the TLA+ backend --------------------------------------------------- *)

module Tla = Damd_speccheck.Tla

let test_tla_emission_shape () =
  let m = Tla.emit ir in
  List.iter
    (fun needle ->
      check Alcotest.bool ("module contains " ^ needle) true
        (Astring.String.is_infix ~affix:needle m))
    [
      "MODULE extended_fpss";
      "DetectionComplete";
      "NoFalseAccusation";
      "Checkpoint ==";
      "Deviant ==";
      "NPhases == 4";
      "\"" ^ ir.Ir.initial ^ "\"";
    ];
  (* deterministic: emission is a pure function of the IR *)
  check Alcotest.string "emission is deterministic" m (Tla.emit ir)

let test_tla_target_covered_sets () =
  (* The state-level view of the target mask: miscompute-routing targets
     exactly the routing-computation state, and with an honest
     neighborhood the mirror check covers it (CoveredStates = targets).
     An isolated neighborhood drops the coverage, never the target. *)
  let dev = Dev.Miscompute_routing in
  check (Alcotest.list Alcotest.string) "targets" [ "routing-compute" ]
    (Tla.target_states ir dev);
  check (Alcotest.list Alcotest.string) "covered (honest)"
    [ "routing-compute" ]
    (Tla.covered_states ir dev ~honest:true);
  List.iter
    (fun d ->
      let t = Tla.target_states ir d in
      let c = Tla.covered_states ir d ~honest:true in
      check Alcotest.bool
        (Dev.to_string d ^ ": covered subset of targets")
        true
        (List.for_all (fun s -> List.mem s t) c))
    Dev.all;
  check Alcotest.string "module-name sanitization" "extended_fpss"
    (Tla.sanitize ir.Ir.name)

(* --- the verify driver -------------------------------------------------- *)

let verify ?mutation () =
  Verify.run ~adversary:Adversary.all_labels ?mutation
    ~observed:stock_observations ~graph:(fig1 ()) ~topology:"fig1" ir

let test_verify_stock () =
  let r = verify () in
  check Alcotest.int "zero errors" 0 (Verify.error_count r);
  check Alcotest.int "exit 0" 0 (Verify.exit_code r);
  check Alcotest.bool "detection-complete" true (Verify.detection_complete r);
  check Alcotest.bool "no-false-accusation" true (Verify.no_false_accusation r);
  check (Alcotest.list Alcotest.string) "no findings" []
    (finding_ids r.Verify.findings);
  check Alcotest.int "one flow row per action" (List.length ir.Ir.actions)
    (List.length r.Verify.flow);
  List.iter
    (fun (a, declared, observed) ->
      check Alcotest.bool (a ^ ": declared = observed") true
        (declared = observed))
    r.Verify.flow

let test_verify_mutations_fire () =
  List.iter
    (fun (name, verify_id) ->
      let r = verify ~mutation:name () in
      let ids = finding_ids r.Verify.findings in
      check Alcotest.bool (name ^ ": behavioral finding " ^ verify_id) true
        (List.mem verify_id ids);
      (* the static finding from the lint layer rides along *)
      (match Mutate.expected name with
      | Some static_id ->
          check Alcotest.bool (name ^ ": static finding " ^ static_id) true
            (List.mem static_id ids)
      | None -> Alcotest.failf "%s not in Mutate.all" name);
      check Alcotest.int (name ^ ": exit 1") 1 (Verify.exit_code r);
      check Alcotest.bool (name ^ ": detection-completeness verdict") true
        (Verify.detection_complete r = (verify_id <> "undetected-deviation"));
      check Alcotest.bool (name ^ ": never a false accusation") true
        (Verify.no_false_accusation r))
    Mutate.all_verify

let test_verify_table_consistent () =
  check (Alcotest.list Alcotest.string) "same mutation key set"
    (List.map fst Mutate.all)
    (List.map fst Mutate.all_verify);
  List.iter
    (fun (name, id) ->
      check Alcotest.(option string) name (Some id)
        (Mutate.expected_verify name))
    Mutate.all_verify;
  check Alcotest.(option string) "unknown mutation" None
    (Mutate.expected_verify "no-such-mutation")

(* --- the static analyzer (abstract interpretation) ---------------------- *)

let analyze ?mutation ?(differential = false) () =
  Analyze.run ~adversary:Adversary.all_labels ?mutation ~differential
    ~graph:(fig1 ()) ~topology:"fig1" ir

let test_analyze_stock () =
  let r = analyze () in
  check Alcotest.int "zero errors" 0 (Analyze.error_count r);
  check Alcotest.int "exit 0" 0 (Analyze.exit_code r);
  check (Alcotest.list Alcotest.string) "no findings" []
    (finding_ids r.Analyze.findings);
  check Alcotest.int "zero blind spots" 0 (Analyze.blind_spots r);
  check Alcotest.(option bool) "no differential ran" None
    (Analyze.frontier_sound r);
  check Alcotest.int "one frontier entry per non-faithful label"
    (List.length (List.filter (fun d -> d <> Dev.Faithful) Adversary.all_labels))
    (List.length r.Analyze.result.Absint.frontier);
  check Alcotest.bool "abstract states were explored" true
    (r.Analyze.result.Absint.states_explored > 0);
  (* E25's frontier, label by label: the paper's by-design exemptions
     survive the abstraction, and every other label is certified at the
     two-seat depth of its certifier (3/4 DATA1 and EXEC, 5/6 BANK1, 7/8
     BANK2, 10 for the progress timeout) in that certifier's phase *)
  let row (f : Absint.frontier) =
    ( Dev.to_string f.Absint.fr_dev,
      match f.Absint.fr_verdict with
      | Scenario.Detected { depth; certifier; phase } ->
          Printf.sprintf "certified %d %s %d" depth
            (Option.value ~default:"timeout" certifier)
            phase
      | Scenario.Exempt _ -> "exempt"
      | Scenario.Undetected _ -> "blind"
      | Scenario.Truncated -> "truncated" )
  in
  check
    Alcotest.(list (pair string string))
    "the fig1 frontier"
    [
      ("byzantine-arbitrary", "certified 8 BANK2 2");
      ("collude-with", "certified 7 BANK2 2");
      ("combined-pricing-attack", "certified 8 BANK2 2");
      ("combined-routing-attack", "certified 6 BANK1 1");
      ("corrupt-cost-forward", "certified 3 DATA1 0");
      ("corrupt-pricing-copies", "certified 8 BANK2 2");
      ("corrupt-routing-copies", "certified 6 BANK1 1");
      ("drop-pricing-copies", "certified 8 BANK2 2");
      ("drop-routing-copies", "certified 6 BANK1 1");
      ("inconsistent-cost", "certified 4 DATA1 0");
      ("lying-checker", "exempt");
      ("misattribute-payments", "certified 3 EXEC 3");
      ("miscompute-pricing", "certified 7 BANK2 2");
      ("miscompute-routing", "certified 5 BANK1 1");
      ("misreport-cost", "exempt");
      ("misroute-packets", "certified 4 EXEC 3");
      ("silent-in-construction", "certified 10 timeout -1");
      ("spoof-pricing-update", "certified 8 BANK2 2");
      ("spoof-routing-update", "certified 6 BANK1 1");
      ("underreport-payments", "certified 3 EXEC 3");
    ]
    (List.map row r.Analyze.result.Absint.frontier);
  (* flow layer: the only private output on the stock spec is the
     post-settlement payment report — everything pre-settlement is public *)
  List.iter
    (fun (s : Absint.summary) ->
      let expected =
        if s.Absint.sm_action = "report-payments" then Taint.Private
        else Taint.Public
      in
      check Alcotest.bool
        (s.Absint.sm_action ^ ": expected taint") true
        (s.Absint.sm_out = expected))
    r.Analyze.result.Absint.flows

let test_analyze_differential_stock () =
  let r = analyze ~differential:true () in
  check Alcotest.(option bool) "frontier sound vs exploration" (Some true)
    (Analyze.frontier_sound r);
  check (Alcotest.list Alcotest.string) "no findings, no gaps" []
    (finding_ids r.Analyze.findings);
  (* the soundness inequality, label by label: static depth is a lower
     bound on the measured BFS detection depth *)
  let dyn = Lazy.force stock_outcome in
  List.iter
    (fun (f : Absint.frontier) ->
      match
        (f.Absint.fr_verdict, List.assoc_opt f.Absint.fr_dev dyn.Explore.verdicts)
      with
      | Scenario.Detected { depth = ds; _ }, Some (Scenario.Detected { depth = dd; _ })
        ->
          check Alcotest.bool
            (Printf.sprintf "%s: static %d <= dynamic %d"
               (Dev.to_string f.Absint.fr_dev) ds dd)
            true (ds <= dd)
      | Scenario.Exempt _, Some (Scenario.Exempt _) -> ()
      | v, d ->
          let kind = function
            | Scenario.Detected _ -> "detected"
            | Scenario.Undetected _ -> "undetected"
            | Scenario.Exempt _ -> "exempt"
            | Scenario.Truncated -> "truncated"
          in
          Alcotest.failf "%s: verdict kinds diverge (%s vs %s)"
            (Dev.to_string f.Absint.fr_dev)
            (kind v)
            (Option.fold ~none:"absent" ~some:kind d))
    r.Analyze.result.Absint.frontier

let test_analyze_mutations_fire () =
  List.iter
    (fun (name, analyze_id) ->
      (* differential on: besides firing the expected static finding,
         the frontier must stay sound against the measured exploration
         of the same mutated spec — zero static-frontier-gap anywhere
         in the corpus *)
      let r = analyze ~mutation:name ~differential:true () in
      let ids = finding_ids r.Analyze.findings in
      check Alcotest.bool (name ^ ": static finding " ^ analyze_id) true
        (List.mem analyze_id ids);
      check Alcotest.int (name ^ ": exit 1") 1 (Analyze.exit_code r);
      check Alcotest.bool (name ^ ": no static-frontier-gap") false
        (List.mem "static-frontier-gap" ids);
      check Alcotest.(option bool) (name ^ ": frontier sound") (Some true)
        (Analyze.frontier_sound r))
    Mutate.all_analyze

let test_analyze_flow_only_mutations_invisible_to_lint () =
  (* The whole point of the flow-sensitive upgrade: these three
     mutations keep every syntactic declaration well-formed, so the
     lint layer passes them — only the taint fixpoint sees the leak,
     the laundering chain, or the starved evidence ledger. *)
  List.iter
    (fun name ->
      let r =
        Lint.run ~adversary:Adversary.all_labels ~mutation:name
          ~graph:(fig1 ()) ~topology:"fig1" ir
      in
      check Alcotest.int (name ^ ": lint-clean") 0 (Lint.error_count r);
      let a = analyze ~mutation:name () in
      check Alcotest.int (name ^ ": analyze catches it") 1
        (Analyze.exit_code a))
    [ "launder-private-taint"; "private-digest-channel";
      "starve-checkpoint-evidence" ]

let test_analyze_table_consistent () =
  check (Alcotest.list Alcotest.string) "names cover the analyze corpus"
    (List.map fst Mutate.all_analyze)
    Mutate.names;
  List.iter
    (fun (name, id) ->
      check Alcotest.(option string) name (Some id)
        (Mutate.expected_analyze name);
      check Alcotest.bool (name ^ ": known") true (Mutate.known name))
    Mutate.all_analyze;
  check Alcotest.(option string) "unknown mutation" None
    (Mutate.expected_analyze "no-such-mutation");
  check Alcotest.bool "unknown mutation not known" false
    (Mutate.known "no-such-mutation");
  (* the lint/verify corpora are strict prefixes of the analyze corpus:
     every behavioral mutation also has a static expectation *)
  List.iter
    (fun (name, _) ->
      check Alcotest.bool (name ^ ": has analyze expectation") true
        (Mutate.expected_analyze name <> None))
    Mutate.all

(* QCheck: the differential on randomly edited IRs. Whenever both engines
   complete, the static frontier must stay sound — static depth a lower
   bound wherever Explore detects, and [Undetected] (certifier-blind-spot)
   exactly where Explore reports Undetected. [Absint.differential] is
   that statement; an empty finding list is the pass. *)
let prop_absint_frontier_sound =
  QCheck.Test.make
    ~name:"static frontier sound on edited IRs (differential empty)"
    ~count:15
    QCheck.(triple small_nat small_nat small_nat)
    (fun triple ->
      let edited = edited_ir triple in
      let dyn = Explore.run ~bound:1500 ~graph:(fig1 ()) edited in
      let st = Absint.run ~graph:(fig1 ()) edited in
      if dyn.Explore.stats.Explore.truncated then true
      else
        match Absint.differential st dyn with
        | [] -> true
        | gaps ->
            QCheck.Test.fail_reportf "frontier gaps: %s"
              (String.concat "; "
                 (List.map (fun f -> f.Check.message) gaps)))

(* QCheck: the product search against its plain reference
   (test/product_reference.ml: one Hashtbl-and-Queue BFS per job over
   structural keys). On edited IRs, most with one seeded mutation on top
   so that escapes (and with them witness text) occur, at two seats (the
   static frontier's search) and at three, POR off, every plan job's
   result — witness text, states, lag, certifier, phase, timeout,
   findings, truncation — and the covered states must be the
   reference's exactly. *)
let show_result (r : Damd_speccheck.Scenario.result) =
  let module Scenario = Damd_speccheck.Scenario in
  Printf.sprintf
    "escape %s, timeout %s, lag %d, certifier %s, phase %d, states %d, \
     truncated %b, findings [%s]"
    (Option.value ~default:"-" r.Scenario.escape)
    (Option.fold ~none:"-" ~some:string_of_int r.Scenario.timeout)
    r.Scenario.lag
    (Option.value ~default:"-" r.Scenario.certifier)
    r.Scenario.cert_phase r.Scenario.states r.Scenario.truncated
    (String.concat "; " (finding_ids r.Scenario.findings))

let prop_search_equals_reference =
  let module Scenario = Damd_speccheck.Scenario in
  QCheck.Test.make
    ~name:"product search = structural BFS reference (2 and 3 seats)"
    ~count:200
    QCheck.(
      pair
        (triple small_nat small_nat small_nat)
        (int_bound (List.length Mutate.names)))
    (fun (triple, k) ->
      let edited, graph =
        let e = edited_ir triple in
        match List.nth_opt Mutate.names k with
        | Some name -> Option.get (Mutate.apply name (e, fig1 ()))
        | None -> (e, fig1 ())
      in
      let m = Machine.build edited in
      let plan = Scenario.make m edited ~graph ~adversary:Dev.all in
      List.for_all
        (fun seats ->
          let s =
            Explore.search ~bound:1500 ~por:false ~domains:1 m plan ~seats
          in
          let results, covered =
            Product_reference.search ~bound:1500 m plan ~seats
          in
          List.iter2
            (fun (job : Scenario.job) (a, b) ->
              if a <> b then
                QCheck.Test.fail_reportf "%d seats, job %s:\n%s\nvs\n%s" seats
                  job.Scenario.label (show_result a) (show_result b))
            plan.Scenario.jobs
            (List.combine s.Explore.results results);
          s.Explore.covered = covered)
        [ 2; 3 ])

let suites =
  [
    ( "speccheck.check",
      [
        Alcotest.test_case "stock IR clean" `Quick test_stock_ir_clean;
        Alcotest.test_case "stock topology clean" `Quick test_stock_topology_clean;
        Alcotest.test_case "stock lint report" `Quick test_stock_lint_report;
        Alcotest.test_case "mutations fire" `Quick test_mutations_fire;
        Alcotest.test_case "mutation table consistent" `Quick
          test_mutation_table_consistent;
      ] );
    ( "speccheck.compile",
      [
        Alcotest.test_case "suggested trace" `Quick test_compiled_suggested_trace;
        Alcotest.test_case "follows specification" `Quick
          test_compiled_follows_specification;
        Alcotest.test_case "deviation point" `Quick test_compiled_deviation_point;
        Alcotest.test_case "early halt" `Quick test_compiled_early_halt;
        Alcotest.test_case "self loop" `Quick test_compiled_self_loop;
        QCheck_alcotest.to_alcotest prop_compiled_equals_hand_written;
        QCheck_alcotest.to_alcotest
          ~rand:(Random.State.make [| 0x5eed |])
          prop_machine_equals_compiled;
      ] );
    ( "speccheck.phases",
      [
        Alcotest.test_case "clean pass" `Quick test_phase_execute_clean;
        Alcotest.test_case "restart accounting" `Quick
          test_phase_execute_restart_accounting;
        Alcotest.test_case "stuck on persistent failure" `Quick
          test_phase_execute_stuck;
        Alcotest.test_case "phase lookup" `Quick test_ir_phase_lookup;
        Alcotest.test_case "multi-phase attribution" `Quick
          test_multi_phase_action;
      ] );
    ( "speccheck.taint",
      [
        Alcotest.test_case "lattice laws" `Quick test_taint_lattice;
        Alcotest.test_case "stock flow agreement" `Quick
          test_stock_flow_agreement;
        Alcotest.test_case "mismatch is an error" `Quick test_flow_mismatch;
        Alcotest.test_case "deviation shows as slack" `Quick
          test_flow_slack_under_deviation;
      ] );
    ( "speccheck.explore",
      [
        Alcotest.test_case "stock product space" `Quick test_explore_stock;
        Alcotest.test_case "covers the suggested chain" `Quick
          test_explore_covers_suggested_chain;
        QCheck_alcotest.to_alcotest prop_explore_total;
        QCheck_alcotest.to_alcotest prop_por_differential;
        Alcotest.test_case "parallel fan-out matches sequential" `Quick
          test_parallel_matches_sequential;
        Alcotest.test_case "4x4 torus at scale (POR on = POR off)" `Slow
          test_explore_torus_scale;
        Alcotest.test_case "more than 62 phases truncates" `Quick
          test_explore_phase_limit;
        Alcotest.test_case "one search per job shape" `Quick
          test_scenario_shapes;
        Alcotest.test_case "wide seat counts stay injective" `Quick
          test_statepack_wide_counts;
        Alcotest.test_case "stock key layouts" `Quick
          test_statepack_stock_layouts;
        QCheck_alcotest.to_alcotest
          ~rand:(Random.State.make [| 0x5eed |])
          prop_statepack_rewrite_is_fresh_pack;
        Alcotest.test_case "audit on multi-word keys" `Quick
          test_explore_audit_wide_layouts;
        Alcotest.test_case "18 phases explore" `Quick test_explore_18_phases;
      ] );
    ( "speccheck.tla",
      [
        Alcotest.test_case "emission shape" `Quick test_tla_emission_shape;
        Alcotest.test_case "target and covered sets" `Quick
          test_tla_target_covered_sets;
      ] );
    ( "speccheck.verify",
      [
        Alcotest.test_case "stock report" `Quick test_verify_stock;
        Alcotest.test_case "mutations fire behaviorally" `Quick
          test_verify_mutations_fire;
        Alcotest.test_case "verify table consistent" `Quick
          test_verify_table_consistent;
      ] );
    ( "speccheck.analyze",
      [
        Alcotest.test_case "stock static report" `Quick test_analyze_stock;
        Alcotest.test_case "differential sound on stock" `Quick
          test_analyze_differential_stock;
        Alcotest.test_case "mutations fire statically" `Quick
          test_analyze_mutations_fire;
        Alcotest.test_case "flow-only mutations invisible to lint" `Quick
          test_analyze_flow_only_mutations_invisible_to_lint;
        Alcotest.test_case "analyze table consistent" `Quick
          test_analyze_table_consistent;
        QCheck_alcotest.to_alcotest prop_absint_frontier_sound;
        QCheck_alcotest.to_alcotest prop_search_equals_reference;
      ] );
  ]
