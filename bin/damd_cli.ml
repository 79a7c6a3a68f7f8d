(* damd — run one instance of the faithful interdomain-routing protocol.

   Pick a topology, optionally seat deviants, and watch the construction
   phases certify (or not), the execution clear, and the per-node
   accounting settle.

     dune exec bin/damd_cli.exe -- --topology fig1
     dune exec bin/damd_cli.exe -- --topology er:12:0.3 --seed 7 \
         --deviant 3:miscompute-routing:-2 --deviant 5:underreport:0.5
     dune exec bin/damd_cli.exe -- --topology ring:8 --no-checking \
         --deviant 1:underreport:0
     dune exec bin/damd_cli.exe -- --topology chordal:16:4 --loss 0.05 *)

module Rng = Damd_util.Rng
module Table = Damd_util.Table
module Graph = Damd_graph.Graph
module Gen = Damd_graph.Gen
module Traffic = Damd_fpss.Traffic
module Tables = Damd_fpss.Tables
module Adversary = Damd_faithful.Adversary
module Bank = Damd_faithful.Bank
module Runner = Damd_faithful.Runner
module Scale = Damd_faithful.Scale
module Sparse = Damd_fpss.Sparse
module Biconnect = Damd_graph.Biconnect
module Obs = Damd_obs.Obs
module Export = Damd_obs.Export
module Clock = Damd_obs.Clock
module Json = Damd_util.Json

(* Every --trace-out writes the pair: the canonical damd-trace/1 document
   at PATH and the Chrome trace_event twin next to it. *)
let chrome_path path =
  if Filename.check_suffix path ".json" then
    Filename.chop_suffix path ".json" ^ ".chrome.json"
  else path ^ ".chrome.json"

let write_trace ?meta ~path obs =
  Export.write ?meta ~path obs;
  let cp = chrome_path path in
  Export.write_chrome ?meta ~path:cp obs;
  Printf.printf "trace written to %s (damd-trace/1) and %s (chrome://tracing)\n"
    path cp

(* Bad command-line input. Only argument parsing and validation raise it;
   [main] turns it into exit 2 and a one-line {"error": ...} document on
   stderr. Every other exception is a bug and still fails loudly. *)
exception Input_error of string

let input_error fmt = Printf.ksprintf (fun msg -> raise (Input_error msg)) fmt

let number of_string what s =
  match of_string s with
  | Some v -> v
  | None -> input_error "bad %s: %S is not a number" what s

(* An integer option below its smallest meaningful value, e.g. a state
   bound under 1, would run and report on nothing. *)
let at_least lo flag v =
  if v < lo then input_error "bad --%s %d (expected %d or more)" flag v lo

(* Every float the CLI takes is finite (a nan cost never lets the tables
   settle), probabilities lie in [0, 1], and declared costs and rates are
   not negative. [what] names the flag or spec the value came from. *)
let finite what v =
  if Float.is_finite v then v
  else input_error "bad %s: %g (expected a finite number)" what v

let non_negative what v =
  if finite what v >= 0. then v else input_error "bad %s: %g (expected 0 or more)" what v

let probability what v =
  if finite what v >= 0. && v <= 1. then v
  else input_error "bad %s: %g (expected a probability in [0, 1])" what v

let float_param what s = finite what (number float_of_string_opt what s)

(* [as:N:M] also carries commercial edge annotations; commands that only
   need the graph take [parse_topology], the topo inspector keeps them.
   The generators' preconditions are checked here, before they run. *)
let parse_topology_full spec seed =
  let rng = Rng.create seed in
  let what = Printf.sprintf "topology %S" spec in
  let int = number int_of_string_opt what in
  let need ok what =
    if not ok then input_error "bad topology %S: need %s" spec what
  in
  let ba_like n m =
    let n = int n and m = int m in
    need (m >= 2 && n > m) "M >= 2 and N > M";
    (n, m)
  in
  match String.split_on_char ':' spec with
  | [ "fig1" ] -> (fst (Gen.figure1 ()), None)
  | [ "torus"; rows; cols ] ->
      let rows = int rows and cols = int cols in
      need (rows >= 2 && cols >= 2) "R, C >= 2";
      ( Gen.torus ~rows ~cols
          ~costs:(Gen.draw_costs rng (Gen.Uniform_int (1, 10)) (rows * cols)),
        None )
  | [ "ring"; n ] ->
      let n = int n in
      need (n >= 3) "N >= 3";
      (Gen.ring ~n ~costs:(Gen.draw_costs rng (Gen.Uniform_int (1, 10)) n), None)
  | [ "chordal"; n; chords ] -> (
      let n = int n and chords = int chords in
      need (n >= 3 && chords >= 0) "N >= 3 and CHORDS >= 0";
      match Gen.chordal_ring rng ~n ~chords (Gen.Uniform_int (1, 10)) with
      | g -> (g, None)
      | exception Gen.Edge_shortfall { added; _ } ->
          input_error "bad topology %S: only %d chords fit" spec added)
  | [ "er"; n; p ] ->
      let n = int n in
      need (n >= 3) "N >= 3";
      ( Gen.erdos_renyi rng ~n
          ~p:(probability what (number float_of_string_opt what p))
          (Gen.Uniform_int (1, 10)),
        None )
  | [ "ba"; n; m ] ->
      let n, m = ba_like n m in
      (Gen.barabasi_albert rng ~n ~m (Gen.Uniform_int (1, 10)), None)
  | [ "as"; n; m ] ->
      let n, m = ba_like n m in
      let g, annotations = Gen.as_like rng ~n ~m (Gen.Uniform_int (1, 10)) in
      (g, Some annotations)
  | [ "waxman"; n ] ->
      let n = int n in
      need (n >= 3) "N >= 3";
      ( Gen.waxman rng ~n ~alpha:0.7 ~beta:0.4 (Gen.Uniform_int (1, 10)),
        None )
  | _ ->
      input_error
        "unknown topology %S (expected fig1 | ring:N | torus:R:C | \
         chordal:N:CHORDS | er:N:P | ba:N:M | as:N:M | waxman:N)"
        spec

let parse_topology spec seed = fst (parse_topology_full spec seed)

let parse_deviation spec =
  let fail () =
    input_error
      "bad --deviant %S (expected NODE:KIND[:PARAM] with KIND one of \
       misreport | inconsistent | corrupt-cost | drop-routing | drop-pricing | \
       corrupt-routing | corrupt-pricing | spoof-routing | spoof-pricing | \
       miscompute-routing | miscompute-pricing | underreport | misroute | \
       silent | lying-checker | collude)"
      spec
  in
  let what = Printf.sprintf "--deviant %S" spec in
  let int = number int_of_string_opt what in
  match String.split_on_char ':' spec with
  | node :: kind :: rest -> (
      let node = int node in
      let param default =
        match rest with [ p ] -> float_param what p | _ -> default
      in
      let cost default = non_negative what (param default) in
      let iparam () = match rest with [ p ] -> int p | _ -> fail () in
      let deviation =
        match kind with
        | "misreport" -> Adversary.Misreport_cost (cost 5.)
        | "inconsistent" -> Adversary.Inconsistent_cost (1., cost 8.)
        | "corrupt-cost" -> Adversary.Corrupt_cost_forward (param 3.)
        | "drop-routing" -> Adversary.Drop_routing_copies
        | "drop-pricing" -> Adversary.Drop_pricing_copies
        | "corrupt-routing" -> Adversary.Corrupt_routing_copies (param 2.)
        | "corrupt-pricing" -> Adversary.Corrupt_pricing_copies (param 2.)
        | "spoof-routing" -> Adversary.Spoof_routing_update (param 3.)
        | "spoof-pricing" -> Adversary.Spoof_pricing_update (param 3.)
        | "miscompute-routing" -> Adversary.Miscompute_routing (param 2.)
        | "miscompute-pricing" -> Adversary.Miscompute_pricing (param 2.)
        | "underreport" -> Adversary.Underreport_payments (param 0.5)
        | "misroute" -> Adversary.Misroute_packets
        | "silent" -> Adversary.Silent_in_construction
        | "lying-checker" -> Adversary.Lying_checker
        | "collude" -> Adversary.Collude_with (iparam ())
        | _ -> fail ()
      in
      (node, deviation))
  | _ -> fail ()

(* The --deviant specs as a profile over [n] nodes: every seat and every
   colluder's principal must be a node. *)
let deviant_profile n deviants =
  let deviations = Array.make n Adversary.Faithful in
  List.iter
    (fun spec ->
      let who, d = parse_deviation spec in
      if who < 0 || who >= n then
        input_error "deviant node %d out of range" who;
      (match d with
      | Adversary.Collude_with p when p < 0 || p >= n ->
          input_error "bad --deviant %S: principal %d is not a node" spec p
      | _ -> ());
      deviations.(who) <- d)
    deviants;
  deviations

let run_routing topology seed deviants no_checking no_copies deferred latency loss
    hotspots rate verbose =
  let rate = non_negative "--rate" rate in
  let loss = Option.map (probability "--loss") loss in
  at_least 0 "hotspots" hotspots;
  let g = parse_topology topology seed in
  let n = Graph.n g in
  let traffic =
    if hotspots > 0 then Traffic.hotspot (Rng.create (seed + 1)) ~n ~hotspots ~rate
    else Traffic.uniform ~n ~rate
  in
  let deviations = deviant_profile n deviants in
  let params =
    {
      Runner.default_params with
      Runner.checking = not no_checking;
      copies = not no_copies;
      deferred_certification = deferred;
      latency_seed = latency;
      channel_loss = (match loss with Some p -> Some (p, seed + 2) | None -> None);
    }
  in
  Printf.printf "topology %s: %d nodes, %d edges, biconnected=%b, diameter=%d\n"
    topology n (Graph.num_edges g)
    (Damd_graph.Biconnect.is_biconnected g)
    (Graph.hop_diameter g);
  Array.iteri
    (fun i d ->
      if d <> Adversary.Faithful then
        Printf.printf "deviant: node %d runs %s\n" i (Adversary.name d))
    deviations;
  print_newline ();
  let r = Runner.run ~params ~graph:g ~traffic ~deviations () in
  Printf.printf "construction: %s after %d restart(s); %d messages, %.1f KB%s\n"
    (if r.Runner.completed then "CERTIFIED" else "STUCK")
    r.Runner.restarts r.Runner.construction_messages
    (float_of_int r.Runner.construction_bytes /. 1024.)
    (match r.Runner.stuck_phase with Some p -> " (in " ^ p ^ ")" | None -> "");
  if r.Runner.completed then
    Printf.printf "execution: %d packet messages; bank channel %.1f KB\n"
      r.Runner.execution_messages
      (float_of_int r.Runner.bank_bytes /. 1024.);
  if r.Runner.detections <> [] then begin
    Printf.printf "\ndetections:\n";
    List.iter
      (fun d -> Format.printf "  %a@." Bank.pp_detection d)
      r.Runner.detections
  end;
  print_newline ();
  let t = Table.create [ "node"; "deviation"; "utility" ] in
  Array.iteri
    (fun i u ->
      Table.add_row t
        [ string_of_int i; Adversary.name deviations.(i); Table.cell_float u ])
    r.Runner.utilities;
  Table.print t;
  (match r.Runner.tables with
  | Some tables when verbose ->
      print_newline ();
      print_endline "certified lowest-cost paths (src -> dst: path [payments]):";
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          if src <> dst then
            match Tables.path tables ~src ~dst with
            | Some path ->
                let payments =
                  Tables.packet_payments tables ~src ~dst
                  |> List.map (fun (k, p) -> Printf.sprintf "%d:%g" k p)
                  |> String.concat " "
                in
                Printf.printf "  %d -> %d: %s [%s]\n" src dst
                  (String.concat "-" (List.map string_of_int path))
                  payments
            | None -> ()
        done
      done
  | Some _ | None -> ());
  if not r.Runner.completed then exit 1

(* --- topology generation / inspection --- *)

let spread_dests n k =
  let k = max 1 (min k n) in
  Array.init k (fun i -> i * n / k)

let run_topo topology seed converge dests_k dot_path =
  at_least 1 "dests" dests_k;
  let t0 = Clock.now_ns () in
  let g, annotations = parse_topology_full topology seed in
  let gen_s = Clock.s_since t0 in
  let n = Graph.n g in
  let e = Graph.num_edges g in
  let dmin = ref max_int and dmax = ref 0 in
  for i = 0 to n - 1 do
    let d = Graph.degree g i in
    if d < !dmin then dmin := d;
    if d > !dmax then dmax := d
  done;
  let dmean = 2. *. float_of_int e /. float_of_int (max 1 n) in
  Printf.printf "topology %s (seed %d): n=%d edges=%d generated in %.3fs\n"
    topology seed n e gen_s;
  Printf.printf "degree: min=%d mean=%.2f max=%d\n" !dmin dmean !dmax;
  let hubs = Array.init n (fun i -> (Graph.degree g i, i)) in
  Array.sort (fun (da, a) (db, b) -> compare (db, a) (da, b)) hubs;
  Printf.printf "top hubs:";
  for r = 0 to min 4 (n - 1) do
    let d, i = hubs.(r) in
    Printf.printf " %d(deg %d)" i d
  done;
  print_newline ();
  Printf.printf "connected=%b biconnected=%b\n" (Graph.is_connected g)
    (Biconnect.is_biconnected g);
  (match annotations with
  | None -> ()
  | Some ann ->
      let peers =
        List.length (List.filter (fun (_, _, r) -> r = Gen.Peer) ann)
      in
      Printf.printf
        "commercial relations: %d peer (tier-1 core), %d customer-provider\n"
        peers
        (List.length ann - peers));
  (match dot_path with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc (Graph.to_dot g);
      close_out oc;
      Printf.printf "dot written to %s\n" path);
  if converge then begin
    let dests = spread_dests n dests_k in
    let t1 = Clock.now_ns () in
    let report, sp = Scale.run ~dests g in
    let run_s = Clock.s_since t1 in
    Printf.printf "faithful run (k=%d dests): %s in %.3fs\n" report.Scale.k
      (if report.Scale.completed then "completed" else "HALTED AT CHECKPOINT")
      run_s;
    Printf.printf "rounds: flood=%d routing=%d pricing=%d\n"
      report.Scale.rounds_flood report.Scale.rounds_routing
      report.Scale.rounds_pricing;
    Printf.printf "messages: construction=%d checkpoint=%d\n"
      report.Scale.construction_messages report.Scale.checkpoint_messages;
    Printf.printf "sparse state: %d words\n" (Sparse.state_words sp);
    Printf.printf "delivered=%d payments=%.2f true-cost=%.2f\n"
      report.Scale.delivered report.Scale.total_payments
      report.Scale.total_true_cost;
    List.iter
      (fun (d : Scale.detection) ->
        Printf.printf "detected node %d in %s (residual %g)\n" d.Scale.culprit
          (match d.Scale.phase with `Routing -> "routing" | `Pricing -> "pricing")
          d.Scale.residual)
      report.Scale.detections;
    if not report.Scale.completed then exit 1
  end

open Cmdliner

let topology =
  Arg.(
    value
    & opt string "fig1"
    & info [ "t"; "topology"; "graph" ] ~docv:"SPEC"
        ~doc:
          "Topology: fig1 | ring:N | torus:R:C | chordal:N:C | er:N:P | \
           ba:N:M | as:N:M | waxman:N.")

let seed =
  Arg.(value & opt int 1 & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let deviants =
  Arg.(
    value & opt_all string []
    & info [ "d"; "deviant" ] ~docv:"NODE:KIND[:PARAM]"
        ~doc:"Seat a deviant (repeatable), e.g. 3:miscompute-routing:-2.")

let no_checking =
  Arg.(value & flag & info [ "no-checking" ] ~doc:"Disable checkers and the bank.")

let no_copies =
  Arg.(value & flag & info [ "no-copies" ] ~doc:"Plain FPSS: no checker copies.")

let deferred =
  Arg.(
    value & flag
    & info [ "deferred-certification" ]
        ~doc:"Certify only once, at the end of construction (E8 ablation).")

let latency =
  Arg.(
    value
    & opt (some int) None
    & info [ "latency-seed" ] ~docv:"SEED" ~doc:"Heterogeneous per-link latencies.")

let loss =
  Arg.(
    value
    & opt (some float) None
    & info [ "loss" ] ~docv:"P" ~doc:"Drop construction messages with probability P.")

let hotspots =
  Arg.(
    value & opt int 0
    & info [ "hotspots" ] ~docv:"K" ~doc:"Hotspot traffic toward K destinations.")

let rate =
  Arg.(value & opt float 1. & info [ "rate" ] ~docv:"R" ~doc:"Traffic rate per pair.")

let verbose =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print the certified tables.")

(* --- the election protocol --- *)

let parse_election_deviation spec =
  let fail () =
    input_error
      "bad --deviant %S (expected NODE:KIND[:PARAM] with KIND one of \
       underbid | overbid | misreport-cost | inconsistent | corrupt-forward | \
       miscompute-winner | refuse)"
      spec
  in
  let what = Printf.sprintf "--deviant %S" spec in
  let module Election = Damd_faithful.Election in
  match String.split_on_char ':' spec with
  | node :: kind :: rest -> (
      let node = number int_of_string_opt what node in
      let param default =
        match rest with [ p ] -> float_param what p | _ -> default
      in
      let deviation =
        match kind with
        | "underbid" -> Election.Underbid_power
        | "overbid" -> Election.Overbid_power (param 3.)
        | "misreport-cost" -> Election.Misreport_cost (non_negative what (param 0.))
        | "inconsistent" -> Election.Inconsistent_bid (param 3.)
        | "corrupt-forward" -> Election.Corrupt_bid_forward (param 2.)
        | "miscompute-winner" -> Election.Miscompute_winner
        | "refuse" -> Election.Refuse_to_serve
        | _ -> fail ()
      in
      (node, deviation))
  | _ -> fail ()

let run_election topology seed deviants no_checking benefit =
  let module Election = Damd_faithful.Election in
  let module Leader = Damd_mech.Leader_election in
  let benefit = finite "--benefit" benefit in
  let g = parse_topology topology seed in
  let n = Graph.n g in
  let profile = Leader.sample_profile ~n (Rng.create (seed + 10)) in
  let deviations = Array.make n Election.Honest in
  List.iter
    (fun spec ->
      let who, d = parse_election_deviation spec in
      if who < 0 || who >= n then
        input_error "deviant node %d out of range" who;
      deviations.(who) <- d)
    deviants;
  let params =
    { Election.default_params with Election.checking = not no_checking; benefit }
  in
  Printf.printf "topology %s: %d nodes; benefit=%g\n" topology n benefit;
  Array.iteri
    (fun i d ->
      if d <> Election.Honest then
        Printf.printf "deviant: node %d runs %s\n" i (Election.deviation_name d))
    deviations;
  let r = Election.run ~params ~graph:g ~profile ~deviations () in
  Printf.printf "\nelection: %s after %d restart(s); %d messages\n"
    (if r.Election.completed then "CERTIFIED" else "STUCK")
    r.Election.restarts r.Election.messages;
  (match r.Election.leader with
  | Some l ->
      Printf.printf "leader: node %d (power %.2f, cost %.2f)\n" l
        profile.(l).Leader.power profile.(l).Leader.cost
  | None -> print_endline "no leader elected");
  List.iter (fun d -> Printf.printf "detection: %s\n" d) r.Election.detections;
  print_newline ();
  let t = Table.create [ "node"; "power"; "cost"; "deviation"; "utility" ] in
  Array.iteri
    (fun i u ->
      Table.add_row t
        [
          string_of_int i;
          Table.cell_float profile.(i).Leader.power;
          Table.cell_float profile.(i).Leader.cost;
          Election.deviation_name deviations.(i);
          Table.cell_float u;
        ])
    r.Election.utilities;
  Table.print t;
  if not r.Election.completed then exit 1

let benefit_arg =
  Arg.(value & opt float 2. & info [ "benefit" ] ~docv:"B" ~doc:"Per-unit-power benefit.")

(* --- the specification linter --- *)

let check_mutation = function
  | Some m when not (Damd_speccheck.Mutate.known m) ->
      input_error "unknown mutation %S (see `damd lint --list-mutations`)" m
  | _ -> ()

(* The tail of the lint, verify and analyze reports: the findings table,
   the error count, the JSON document when --json names a file, then the
   exit code, 1 iff some finding is an error. *)
let report_findings ~schema ~json_path findings json =
  let module Check = Damd_speccheck.Check in
  if findings = [] then print_endline "no findings"
  else begin
    let t = Table.create [ "id"; "severity"; "location"; "explanation" ] in
    List.iter
      (fun (f : Check.finding) ->
        Table.add_row t
          [
            f.Check.id;
            Check.severity_to_string f.Check.severity;
            f.Check.location;
            f.Check.message;
          ])
      findings;
    Table.print t
  end;
  let errors = List.length (Check.errors findings) in
  Printf.printf "%d error(s)\n" errors;
  (match json_path with
  | None -> ()
  | Some path ->
      Json.to_file path (json ());
      Printf.printf "report written to %s (schema %s)\n" path schema);
  exit (if errors = 0 then 0 else 1)

let run_lint topology seed mutate json_path list_mutations =
  let module Speccheck = Damd_speccheck in
  let module Lint = Speccheck.Lint in
  if list_mutations then
    List.iter
      (fun name ->
        Printf.printf "%-28s lint:%-22s verify:%-22s analyze:%s\n" name
          (Option.value ~default:"-" (Speccheck.Mutate.expected name))
          (Option.value ~default:"-" (Speccheck.Mutate.expected_verify name))
          (Option.value ~default:"-" (Speccheck.Mutate.expected_analyze name)))
      Speccheck.Mutate.names
  else begin
    let g = parse_topology topology seed in
    check_mutation mutate;
    let report =
      Lint.run ~adversary:Adversary.all_labels ?mutation:mutate ~graph:g
        ~topology Damd_speccheck.Fpss_spec.ir
    in
    Printf.printf "lint: spec %s, topology %s%s\n" report.Lint.spec topology
      (match mutate with Some m -> ", mutation " ^ m | None -> "");
    report_findings ~schema:"damd-lint/1" ~json_path report.Lint.findings
      (fun () -> Lint.to_json report)
  end

let mutate_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "mutate" ] ~docv:"RULE"
        ~doc:
          "Lint a seeded mutation of the stock spec instead (e.g. \
           drop-checkpoint); must produce its expected error finding and \
           exit 1. See --list-mutations.")

let lint_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE" ~doc:"Write the damd-lint/1 report here.")

let list_mutations_arg =
  Arg.(
    value & flag
    & info [ "list-mutations" ]
        ~doc:
          "List the seeded mutations with both expected finding ids: the \
           static lint finding and the flow/exploration finding `damd \
           verify' must additionally produce.")

(* --- the flow verifier --- *)

let run_verify topology seed mutate json_path bound por_s domains key_audit
    trace_out =
  let module Speccheck = Damd_speccheck in
  let module Explore = Speccheck.Explore in
  let module Scenario = Speccheck.Scenario in
  let module Verify = Speccheck.Verify in
  let g = parse_topology topology seed in
  check_mutation mutate;
  at_least 1 "bound" bound;
  at_least 0 "domains" domains;
  let por =
    match por_s with
    | "on" -> true
    | "off" -> false
    | s -> input_error "bad --por %S (expected on | off)" s
  in
  let obs =
    match trace_out with None -> Obs.noop | Some _ -> Obs.memory ()
  in
  let observed = Damd_faithful.Flow.observations () in
  let report =
    Verify.run ~adversary:Adversary.all_labels ?mutation:mutate ~bound ~obs
      ~por ~domains ~audit:key_audit ~observed ~graph:g ~topology
      Damd_speccheck.Fpss_spec.ir
  in
  (match trace_out with
  | None -> ()
  | Some path ->
      write_trace
        ~meta:
          [
            ("command", Json.String "verify");
            ("topology", Json.String topology);
            ("seed", Json.Int seed);
            ("bound", Json.Int bound);
            ("por", Json.Bool por);
          ]
        ~path obs);
  Printf.printf "verify: spec %s, topology %s%s\n" report.Verify.spec topology
    (match mutate with Some m -> ", mutation " ^ m | None -> "");
  let st = report.Verify.stats in
  Printf.printf
    "explored %d canonical states over %d scenarios (frontier peak %d%s)\n"
    st.Explore.states_explored st.Explore.scenarios st.Explore.frontier_peak
    (if st.Explore.truncated then ", TRUNCATED" else "");
  Printf.printf "por=%s domains=%d, %.0f states/sec\n"
    (if st.Explore.por then "on" else "off")
    st.Explore.domains
    (if st.Explore.elapsed_s > 0. then
       float_of_int st.Explore.states_explored /. st.Explore.elapsed_s
     else 0.);
  Printf.printf "detection-complete: %b\nno-false-accusation: %b\n"
    (Verify.detection_complete report)
    (Verify.no_false_accusation report);
  print_newline ();
  let vt = Table.create [ "deviation"; "verdict"; "detail" ] in
  List.iter
    (fun (dev, v) ->
      let verdict, detail =
        match v with
        | Scenario.Detected { depth; certifier; phase = _ } ->
            ( "detected",
              Printf.sprintf "depth %d, %s" depth
                (Option.value ~default:"progress timeout" certifier) )
        | Scenario.Undetected { witness } -> ("UNDETECTED", witness)
        | Scenario.Exempt { reason } -> ("exempt", reason)
        | Scenario.Truncated -> ("truncated", "state bound exhausted")
      in
      Table.add_row vt [ Speccheck.Dev.to_string dev; verdict; detail ])
    report.Verify.verdicts;
  Table.print vt;
  report_findings ~schema:"damd-verify/1" ~json_path report.Verify.findings
    (fun () -> Verify.to_json report)

let bound_arg =
  Arg.(
    value & opt int 50_000
    & info [ "bound" ] ~docv:"N"
        ~doc:"Per-scenario canonical-state cap for the exploration layer.")

let verify_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE" ~doc:"Write the damd-verify/1 report here.")

let por_arg =
  Arg.(
    value & opt string "on"
    & info [ "por" ] ~docv:"on|off"
        ~doc:
          "Partial-order reduction for the exploration layer: prune \
           redundant interleavings of phase-internal faithful steps. Exact \
           (verdicts and findings match the unreduced sweep); self-disables \
           when the in-phase suggested play is cyclic.")

let domains_arg =
  Arg.(
    value & opt int 0
    & info [ "domains" ] ~docv:"K"
        ~doc:
          "Scenario fan-out width (0 = auto, 1 = sequential). Requires an \
           OCaml 5 build; --trace-out forces sequential.")

let key_audit_arg =
  Arg.(
    value & flag
    & info [ "key-audit" ]
        ~doc:
          "Check every rewritten successor key against a fresh packing of \
           the successor and against a structural map of the stored \
           states, and abort on a mismatch (codec regression tripwire). \
           Keeps a state record beside every stored key: about 4x the \
           exploration memory and 20x the time.")

(* --- the static analyzer --- *)

let run_analyze topology seed mutate json_path bound differential
    explore_bound trace_out =
  let module Speccheck = Damd_speccheck in
  let module Absint = Speccheck.Absint in
  let module Scenario = Speccheck.Scenario in
  let module Analyze = Speccheck.Analyze in
  let g = parse_topology topology seed in
  check_mutation mutate;
  at_least 1 "bound" bound;
  at_least 1 "explore-bound" explore_bound;
  let obs =
    match trace_out with None -> Obs.noop | Some _ -> Obs.memory ()
  in
  let report =
    Analyze.run ~adversary:Adversary.all_labels ?mutation:mutate ~bound
      ~differential ~explore_bound ~obs ~graph:g ~topology
      Damd_speccheck.Fpss_spec.ir
  in
  (match trace_out with
  | None -> ()
  | Some path ->
      write_trace
        ~meta:
          [
            ("command", Json.String "analyze");
            ("topology", Json.String topology);
            ("seed", Json.Int seed);
            ("differential", Json.Bool differential);
          ]
        ~path obs);
  Printf.printf "analyze: spec %s, topology %s%s\n" report.Analyze.spec
    topology
    (match mutate with Some m -> ", mutation " ^ m | None -> "");
  let res = report.Analyze.result in
  Printf.printf "abstract states: %d in %.4fs; blind spots: %d%s\n"
    res.Absint.states_explored res.Absint.elapsed_s
    (Analyze.blind_spots report)
    (match Analyze.frontier_sound report with
    | None -> ""
    | Some b -> Printf.sprintf "; frontier sound vs exploration: %b" b);
  print_newline ();
  let ft = Table.create [ "action"; "taint"; "flow path" ] in
  List.iter
    (fun sm ->
      Table.add_row ft
        [
          sm.Absint.sm_action;
          Speccheck.Taint.to_string sm.Absint.sm_out;
          String.concat " -> " sm.Absint.sm_path;
        ])
    res.Absint.flows;
  Table.print ft;
  print_newline ();
  let vt =
    Table.create [ "deviation"; "static verdict"; "certifier"; "distance" ]
  in
  List.iter
    (fun fr ->
      let verdict =
        match fr.Absint.fr_verdict with
        | Scenario.Detected { depth; certifier; phase = _ } ->
            Printf.sprintf "certified (depth %d, %s)" depth
              (Option.value ~default:"progress timeout" certifier)
        | Scenario.Undetected _ -> "BLIND"
        | Scenario.Exempt _ -> "exempt"
        | Scenario.Truncated -> "truncated"
      in
      Table.add_row vt
        [
          Speccheck.Dev.to_string fr.Absint.fr_dev;
          verdict;
          (match (fr.Absint.fr_certifier, fr.Absint.fr_phase) with
          | Some c, Some p -> Printf.sprintf "%s @ %s" c p
          | Some c, None -> c
          | None, _ -> "-");
          (match fr.Absint.fr_distance with
          | Some d -> string_of_int d
          | None -> "-");
        ])
    res.Absint.frontier;
  Table.print vt;
  report_findings ~schema:"damd-analyze/1" ~json_path report.Analyze.findings
    (fun () -> Analyze.to_json report)

let analyze_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE" ~doc:"Write the damd-analyze/1 report here.")

let analyze_bound_arg =
  Arg.(
    value & opt int 200_000
    & info [ "bound" ] ~docv:"N"
        ~doc:"Per-scenario abstract-state cap (safety net; the two-seat \
              abstraction stays far below it).")

let differential_arg =
  Arg.(
    value & flag
    & info [ "differential" ]
        ~doc:
          "Also run the bounded exploration and cross-check the static \
           frontier against the measured detection depths: any verdict-kind \
           disagreement or static depth exceeding the dynamic one is a \
           static-frontier-gap error.")

let explore_bound_arg =
  Arg.(
    value & opt int 50_000
    & info [ "explore-bound" ] ~docv:"N"
        ~doc:"Per-scenario canonical-state cap for the --differential \
              exploration run.")

(* --- the TLA+ backend --- *)

let run_tla deviation nodes seat stall isolated out cfg_out =
  let module Speccheck = Damd_speccheck in
  let module Tla = Speccheck.Tla in
  let module Dev = Speccheck.Dev in
  at_least 1 "nodes" nodes;
  if seat < 0 || seat > nodes then
    input_error "bad --seat %d (expected 0 to --nodes %d)" seat nodes;
  let ir = Damd_speccheck.Fpss_spec.ir in
  let dev =
    match
      List.find_opt (fun d -> Dev.to_string d = deviation) Dev.all
    with
    | Some d -> d
    | None ->
        input_error "unknown deviation %S (expected one of %s)" deviation
          (String.concat " | " (List.map Dev.to_string Dev.all))
  in
  let stall = stall || dev = Dev.Silent_in_construction in
  let module_text = Tla.emit ir in
  (match out with
  | None -> print_string module_text
  | Some path ->
      let oc = open_out path in
      output_string oc module_text;
      close_out oc;
      Printf.printf "TLA+ module written to %s (module %s)\n" path
        (Tla.sanitize ir.Speccheck.Ir.name));
  match cfg_out with
  | None -> ()
  | Some path ->
      let cfg_text =
        Tla.cfg ir ~deviation:dev ~nodes ~seat ~stall ~honest:(not isolated)
      in
      let oc = open_out path in
      output_string oc cfg_text;
      close_out oc;
      Printf.printf "TLC config written to %s (deviation %s, N=%d)\n" path
        (Dev.to_string dev) nodes

let tla_deviation_arg =
  Arg.(
    value & opt string "miscompute-routing"
    & info [ "deviation" ] ~docv:"LABEL"
        ~doc:
          "Deviation the --cfg instance targets (a Dev.t label, e.g. \
           miscompute-routing). The module itself is deviation-agnostic.")

let tla_nodes_arg =
  Arg.(
    value & opt int 4
    & info [ "nodes" ] ~docv:"N" ~doc:"Seats (N) in the --cfg instance.")

let tla_seat_arg =
  Arg.(
    value & opt int 1
    & info [ "seat" ] ~docv:"K"
        ~doc:"Deviant seat in the --cfg instance (0 = all faithful).")

let tla_stall_arg =
  Arg.(
    value & flag
    & info [ "stall" ]
        ~doc:
          "Model the deviation as an omission (the targeted step never \
           completes). Implied for silent-in-construction. Stall instances \
           wedge the phase barrier, so run TLC with deadlock checking off \
           — the deadlock is the progress-timeout detection.")

let tla_isolated_arg =
  Arg.(
    value & flag
    & info [ "isolated" ]
        ~doc:
          "Assume the deviant's checker neighborhood has no honest member \
           (shrinks CoveredStates per the section-4.3 coverage split).")

let tla_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "out" ] ~docv:"FILE"
        ~doc:"Write the TLA+ module here instead of stdout.")

let tla_cfg_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cfg" ] ~docv:"FILE"
        ~doc:"Also write a TLC configuration instantiating the CONSTANTS.")

(* --- the adversarial gauntlet --- *)

let run_gauntlet campaigns seed weaken_s json_path replay no_shrink faults
    epsilon trace_out =
  let module Campaign = Damd_gauntlet.Campaign in
  at_least 1 "campaigns" campaigns;
  let epsilon = Option.map (finite "--epsilon") epsilon in
  let weaken =
    match Campaign.weaken_of_string weaken_s with
    | Some w -> w
    | None ->
        input_error "bad --weaken %S (expected none | pricing | settlement | all)"
          weaken_s
  in
  let mix = { Campaign.faults; epsilon } in
  let trace_meta extra =
    [ ("command", Json.String "gauntlet");
      ("weaken", Json.String (Campaign.weaken_name weaken)) ]
    @ extra
  in
  match replay with
  | Some cseed ->
      (* Replay one campaign from its printed seed (plus the same
         --faults/--epsilon flags the batch ran with): the JSON below is
         byte-identical to the campaign's entry in the batch report. *)
      let obs =
        match trace_out with
        | None -> Obs.noop
        | Some _ -> Obs.memory ~detail:true ()
      in
      let descr = Campaign.of_seed ~mix cseed in
      let gr = Campaign.grade ~weaken ~obs descr in
      print_endline (Damd_util.Json.to_string ~indent:2 (Campaign.json_of_graded gr));
      (match trace_out with
      | None -> ()
      | Some path ->
          (* A violation against a weakened bank leaves no accusation in
             the timeline — the disabled checkpoint is exactly what let
             the deviation through. Re-grade the same campaign against
             the stock bank under a "forensic" span so the timeline ends
             with the accusation(s) naming the deviant, the phase the
             evidence surfaced in, and the certifying checkpoint. *)
          if
            gr.Campaign.verdict = Campaign.Violation
            && weaken <> Campaign.No_weaken
          then
            ignore
              (Obs.span obs ~cat:"gauntlet"
                 ~args:[ ("weaken", Json.String "none") ]
                 "forensic"
                 (fun () -> Campaign.grade ~weaken:Campaign.No_weaken ~obs descr));
          write_trace ~meta:(trace_meta [ ("replay", Json.Int cseed) ]) ~path obs);
      if gr.Campaign.verdict = Campaign.Violation then exit 1
  | None ->
      let obs =
        match trace_out with None -> Obs.noop | Some _ -> Obs.memory ()
      in
      let gradeds = Campaign.run_batch ~weaken ~mix ~obs ~campaigns ~seed () in
      (match trace_out with
      | None -> ()
      | Some path ->
          write_trace
            ~meta:
              (trace_meta
                 [ ("master_seed", Json.Int seed);
                   ("campaigns", Json.Int campaigns) ])
            ~path obs);
      let violations =
        List.filter (fun g -> g.Campaign.verdict = Campaign.Violation) gradeds
      in
      let shrunk =
        if no_shrink then []
        else List.map (Campaign.shrink ~weaken) violations
      in
      let count v =
        List.length (List.filter (fun g -> g.Campaign.verdict = v) gradeds)
      in
      Printf.printf
        "gauntlet: %d campaigns, master seed %d, weaken=%s%s\n\
         verdicts: %d detected, %d undetected-unprofitable, %d VIOLATION\n"
        campaigns seed
        (Campaign.weaken_name weaken)
        ((if faults then ", faults=on" else "")
        ^
        match epsilon with
        | Some e -> Printf.sprintf ", epsilon=%g" e
        | None -> "")
        (count Campaign.Detected)
        (count Campaign.Undetected_unprofitable)
        (count Campaign.Violation);
      if violations <> [] then begin
        print_newline ();
        print_endline "faithfulness violations (replay with: damd gauntlet --replay SEED):";
        let t = Table.create [ "seed"; "topology"; "deviations"; "kind"; "max delta" ] in
        List.iter
          (fun (g : Campaign.graded) ->
            let d = g.Campaign.descr in
            Table.add_row t
              [
                string_of_int d.Campaign.seed;
                Campaign.topology_name d.Campaign.topology;
                String.concat " "
                  (List.map
                     (fun (i, dev) ->
                       Printf.sprintf "%d:%s" i (Adversary.name dev))
                     d.Campaign.deviants);
                Option.value ~default:"?" g.Campaign.violation_kind;
                (match g.Campaign.max_delta with
                | Some x -> Table.cell_float x
                | None -> "n/a");
              ])
          violations;
        Table.print t;
        if shrunk <> [] then begin
          print_newline ();
          print_endline "shrunk (greedy minimization, still violating):";
          List.iter
            (fun (g : Campaign.graded) ->
              let d = g.Campaign.descr in
              Printf.printf "  %s n=%d deviants=[%s] jitter=%g dup=%g drops=%d\n"
                (Campaign.topology_name d.Campaign.topology)
                (Campaign.topology_n d.Campaign.topology)
                (String.concat " "
                   (List.map
                      (fun (i, dev) ->
                        Printf.sprintf "%d:%s" i (Adversary.name dev))
                      d.Campaign.deviants))
                d.Campaign.perturb.Runner.jitter d.Campaign.perturb.Runner.dup_p
                d.Campaign.perturb.Runner.drop_budget)
            shrunk
        end
      end;
      (match json_path with
      | None -> ()
      | Some path ->
          Damd_util.Json.to_file path
            (Campaign.report ~shrunk ~weaken ~seed gradeds);
          Printf.printf "\nreport written to %s (schema damd-gauntlet/%d)\n" path
            (if Campaign.is_stock mix then 1 else 2));
      if violations <> [] then exit 1

(* --- forensic tracing --- *)

let run_trace topology seed deviants rate out =
  let rate = non_negative "--rate" rate in
  let g = parse_topology topology seed in
  let n = Graph.n g in
  let traffic = Traffic.uniform ~n ~rate in
  let deviations = deviant_profile n deviants in
  let obs = Obs.memory ~detail:true () in
  let params = { Runner.default_params with Runner.obs = obs } in
  let r = Runner.run ~params ~graph:g ~traffic ~deviations () in
  Printf.printf "trace %s (seed %d): construction %s, %d restart(s), %d detection(s)\n"
    topology seed
    (if r.Runner.completed then "CERTIFIED" else "STUCK")
    r.Runner.restarts
    (List.length r.Runner.detections);
  let spans, instants, samples =
    List.fold_left
      (fun (sp, it, sa) e ->
        match e with
        | Obs.Span _ -> (sp + 1, it, sa)
        | Obs.Instant _ -> (sp, it + 1, sa)
        | Obs.Sample _ -> (sp, it, sa + 1))
      (0, 0, 0) (Obs.events obs)
  in
  Printf.printf "recorded %d spans, %d instants, %d samples (%d dropped)\n"
    spans instants samples (Obs.dropped obs);
  write_trace
    ~meta:
      [
        ("command", Json.String "trace");
        ("topology", Json.String topology);
        ("seed", Json.Int seed);
        ( "deviants",
          Json.List (List.map (fun s -> Json.String s) deviants) );
      ]
    ~path:out obs;
  if not r.Runner.completed then exit 1

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Record a forensic trace of the run and write the damd-trace/1 \
           document here, plus its Chrome trace_event twin (same name with \
           a .chrome.json suffix) for chrome://tracing or Perfetto.")

let trace_file_arg =
  Arg.(
    value & opt string "trace.json"
    & info [ "o"; "out" ] ~docv:"FILE"
        ~doc:
          "Write the damd-trace/1 document here (the Chrome trace_event \
           twin lands next to it with a .chrome.json suffix).")

let campaigns_arg =
  Arg.(
    value & opt int 50
    & info [ "n"; "campaigns" ] ~docv:"N" ~doc:"Number of campaigns to run.")

let weaken_arg =
  Arg.(
    value & opt string "none"
    & info [ "weaken" ] ~docv:"WHICH"
        ~doc:
          "Deliberately weaken the bank: none | pricing (skip the BANK2 \
           hash comparison) | settlement (naive execution clearing) | all \
           (no checking). Used to prove the violation oracle has teeth.")

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE" ~doc:"Write the damd-gauntlet/1 report here.")

let replay_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "replay" ] ~docv:"SEED"
        ~doc:"Replay one campaign from its printed seed and dump its JSON.")

let no_shrink_arg =
  Arg.(value & flag & info [ "no-shrink" ] ~doc:"Skip minimizing violations.")

let faults_arg =
  Arg.(
    value & flag
    & info [ "faults" ]
        ~doc:
          "Compose every campaign with a seeded mixed-failure schedule \
           (per-link loss and reordering, a healing partition, fail-stop \
           crash/recover with table handoff) and run the bank's \
           checkpoints in fault-tolerant evidence mode. A campaign then \
           also asserts blame correctness: any accusation of a node whose \
           resolved behavior was faithful is a false-accusation violation. \
           Replaying a campaign from such a batch requires passing \
           $(b,--faults) again.")

let epsilon_mix_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "epsilon" ] ~docv:"E"
        ~doc:
          "Wrap every sampled deviant in an epsilon-rational agent: the \
           inner deviation runs only if its measured unilateral gain \
           exceeds E (on the stock mechanism Theorem 1 keeps gains \
           non-positive, so such agents stay faithful; against a weakened \
           bank they activate). Replay requires the same value.")

let routing_cmd =
  let doc = "run the faithful interdomain-routing protocol (the FPSS case study)" in
  Cmd.v (Cmd.info "routing" ~doc)
    Term.(
      const run_routing $ topology $ seed $ deviants $ no_checking $ no_copies
      $ deferred $ latency $ loss $ hotspots $ rate $ verbose)

let election_cmd =
  let doc = "run the faithful distributed leader election (the section-3 toy)" in
  Cmd.v (Cmd.info "election" ~doc)
    Term.(const run_election $ topology $ seed $ deviants $ no_checking $ benefit_arg)

let lint_cmd =
  let doc =
    "statically check the finite spec IR: reachability, action \
     classification, phase/checkpoint structure, strong-CC and strong-AC \
     candidacy, deviation coverage and checker 2-connectivity"
  in
  Cmd.v (Cmd.info "lint" ~doc)
    Term.(
      const run_lint $ topology $ seed $ mutate_arg $ lint_json_arg
      $ list_mutations_arg)

let verify_cmd =
  let doc =
    "close the declared-vs-actual gap: lint, then diff taint-inferred \
     dependency sets (the real handlers under input perturbation) against \
     the IR's input annotations, then bounded-exhaustively explore the \
     deviation product space for detection-completeness and \
     no-false-accusation"
  in
  Cmd.v (Cmd.info "verify" ~doc)
    Term.(
      const run_verify $ topology $ seed $ mutate_arg $ verify_json_arg
      $ bound_arg $ por_arg $ domains_arg $ key_audit_arg $ trace_out_arg)

let analyze_cmd =
  let doc =
    "statically derive the detection frontier: a whole-program abstract \
     interpretation of the spec IR computing flow-sensitive \
     information-flow summaries (witnessed CC/AC violations a syntactic \
     scan cannot see) and, per deviation, the earliest checkpoint whose \
     certifier's evidence depends on what the deviation perturbs — \
     optionally cross-checked against the exploration layer"
  in
  Cmd.v (Cmd.info "analyze" ~doc)
    Term.(
      const run_analyze $ topology $ seed $ mutate_arg $ analyze_json_arg
      $ analyze_bound_arg $ differential_arg $ explore_bound_arg
      $ trace_out_arg)

let tla_cmd =
  let doc =
    "emit the spec IR as a TLC-checkable TLA+ module (states, suggested \
     play, phase checkpoints, and the two section-4.3 properties as \
     invariants), plus an optional per-deviation TLC configuration — an \
     independent model checker cross-checking the exploration layer"
  in
  Cmd.v (Cmd.info "tla" ~doc)
    Term.(
      const run_tla $ tla_deviation_arg $ tla_nodes_arg $ tla_seat_arg
      $ tla_stall_arg $ tla_isolated_arg $ tla_out_arg $ tla_cfg_arg)

let gauntlet_cmd =
  let doc =
    "randomized adversarial campaigns with seed replay, shrinking and \
     empirical Theorem 1 verdicts"
  in
  Cmd.v (Cmd.info "gauntlet" ~doc)
    Term.(
      const run_gauntlet $ campaigns_arg $ seed $ weaken_arg $ json_arg
      $ replay_arg $ no_shrink_arg $ faults_arg $ epsilon_mix_arg
      $ trace_out_arg)

let trace_cmd =
  let doc =
    "run one protocol instance under a detailed in-memory sink and export \
     the forensic timeline: phase spans, per-message engine instants, \
     checkpoint outcomes and accusation events, as damd-trace/1 and Chrome \
     trace_event JSON"
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(const run_trace $ topology $ seed $ deviants $ rate $ trace_file_arg)

let converge_arg =
  Arg.(
    value & flag
    & info [ "converge" ]
        ~doc:
          "Run the sparse faithful protocol on the generated graph: flood, \
           routing and pricing fixpoints, mirror checkpoints, settlement.")

let topo_dests_arg =
  Arg.(
    value & opt int 8
    & info [ "dests" ] ~docv:"K"
        ~doc:
          "Destinations priced under --converge: K nodes spread evenly over \
           the id space.")

let dot_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dot" ] ~docv:"FILE" ~doc:"Dump the graph in Graphviz dot format.")

let topo_cmd =
  let doc =
    "generate and inspect (large) topologies: structural stats, \
     commercial-relation summaries for as:N:M, dot dumps, and an optional \
     end-to-end faithful convergence run over sparse state"
  in
  Cmd.v (Cmd.info "topo" ~doc)
    Term.(const run_topo $ topology $ seed $ converge_arg $ topo_dests_arg $ dot_arg)

let cmd =
  let doc = "faithful distributed mechanisms, end to end" in
  let default =
    Term.(
      const run_routing $ topology $ seed $ deviants $ no_checking $ no_copies
      $ deferred $ latency $ loss $ hotspots $ rate $ verbose)
  in
  Cmd.group ~default (Cmd.info "damd" ~doc)
    [
      routing_cmd;
      election_cmd;
      topo_cmd;
      gauntlet_cmd;
      lint_cmd;
      verify_cmd;
      analyze_cmd;
      tla_cmd;
      trace_cmd;
    ]

let () =
  match Cmd.eval ~catch:false cmd with
  | code -> exit code
  | exception Input_error msg ->
      Json.to_channel ~indent:0 stderr (Json.Obj [ ("error", Json.String msg) ]);
      exit 2
  | exception e ->
      Printf.eprintf "damd: internal error, uncaught exception:\n%s\n"
        (Printexc.to_string e);
      exit Cmd.Exit.internal_error
