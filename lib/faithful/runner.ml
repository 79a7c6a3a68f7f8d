module Graph = Damd_graph.Graph
module Engine = Damd_sim.Engine
module Phase = Damd_core.Phase
module Signer = Damd_crypto.Signer
module Traffic = Damd_fpss.Traffic
module Tables = Damd_fpss.Tables
module Obs = Damd_obs.Obs
module Json = Damd_util.Json

type bank_checks = { pricing_check : bool; settlement_check : bool }

let all_checks = { pricing_check = true; settlement_check = true }

type perturb = {
  jitter : float;
  dup_p : float;
  drop_p : float;
  drop_budget : int;
  perturb_seed : int;
}

type params = {
  progress_penalty : float;
  epsilon : float;
  max_restarts : int;
  checking : bool;
  checks : bank_checks;
  copies : bool;
  deferred_certification : bool;
  latency_seed : int option;
  channel_loss : (float * int) option;
  perturbation : perturb option;
  fault : Damd_sim.Fault.spec option;
  max_events : int;
  obs : Obs.t;
}

(* A node's utility per unit of its own traffic delivered (DESIGN.md §5). *)
let value_per_packet = 50.

let default_params =
  {
    progress_penalty = 1e5;
    epsilon = 1.;
    max_restarts = 2;
    checking = true;
    checks = all_checks;
    copies = true;
    deferred_certification = false;
    latency_seed = None;
    channel_loss = None;
    perturbation = None;
    fault = None;
    max_events = 10_000_000;
    obs = Obs.noop;
  }

type result = {
  completed : bool;
  stuck_phase : string option;
  restarts : int;
  detections : Bank.detection list;
  utilities : float array;
  construction_messages : int;
  construction_bytes : int;
  execution_messages : int;
  bank_bytes : int;
  tables : Damd_fpss.Tables.t option;
  sim_time : float;
}

type dispatch = int -> sender:int -> Protocol.msg -> unit

let build_tables (nodes : Node.t array) =
  let n = Array.length nodes in
  let routing = Array.init n (fun src -> Array.copy nodes.(src).Node.routing) in
  let prices =
    Array.init n (fun src ->
        Array.map
          (List.map (fun (pe : Protocol.price_entry) ->
               (pe.Protocol.transit, pe.Protocol.price)))
          nodes.(src).Node.pricing)
  in
  { Tables.routing; prices }

let run ?(params = default_params) ~graph ~traffic ~deviations () =
  let n = Graph.n graph in
  if Array.length deviations <> n then invalid_arg "Runner.run: deviations arity";
  let neighbor_sets = Array.init n (Graph.neighbors graph) in
  let nodes =
    Array.init n (fun id ->
        Node.create ~copies:params.copies ~id ~n ~neighbor_sets
          ~true_cost:(Graph.cost graph id) ~deviation:deviations.(id) ())
  in
  let latency =
    match params.perturbation with
    | Some pb when pb.jitter > 0. ->
        (* Jittered but still per-link constant delays (same FIFO argument
           as [latency_seed] below): draw each link's latency once from
           [max(0.1, 1-j), 1+j). *)
        let rng = Damd_util.Rng.create (pb.perturb_seed lxor 0x5bd1e995) in
        let lo = Float.max 0.1 (1. -. pb.jitter) and hi = 1. +. pb.jitter in
        let m =
          Array.init n (fun _ -> Array.init n (fun _ -> Damd_util.Rng.float_in rng lo hi))
        in
        fun ~src ~dst -> m.(src).(dst)
    | _ -> (
        match params.latency_seed with
        | None -> fun ~src:_ ~dst:_ -> 1.0
        | Some seed ->
            (* Heterogeneous but per-link constant delays: asynchrony without
               breaking the per-link FIFO the table-overwrite semantics rely
               on. *)
            let rng = Damd_util.Rng.create seed in
            let m = Array.init n (fun _ -> Array.init n (fun _ -> Damd_util.Rng.float_in rng 0.5 1.5)) in
            fun ~src ~dst -> m.(src).(dst))
  in
  let engine : Protocol.msg Engine.t = Engine.create ~latency ~n () in
  Engine.set_size engine (Protocol.sizer ());
  let obs = params.obs in
  if Obs.enabled obs then
    Engine.set_obs engine obs
      ~kinds:[| "cost"; "routing"; "pricing"; "copy"; "packet" |]
      ~kind_of:(fun msg ->
        match msg with
        | Protocol.Update (Protocol.Cost_announce _) -> 0
        | Protocol.Update (Protocol.Routing_update _) -> 1
        | Protocol.Update (Protocol.Pricing_update _) -> 2
        | Protocol.Copy _ -> 3
        | Protocol.Packet _ -> 4);
  let loss_tap =
    match params.channel_loss with
    | None -> None
    | Some (p, seed) ->
        let rng = Damd_util.Rng.create seed in
        Some
          (fun msg ->
            match msg with
            | Protocol.Packet _ -> Some msg (* loss injected on construction only *)
            | _ -> if Damd_util.Rng.bernoulli rng p then None else Some msg)
  in
  let perturb_tap =
    match params.perturbation with
    | Some pb when pb.dup_p > 0. || (pb.drop_budget > 0 && pb.drop_p > 0.) ->
        let rng = Damd_util.Rng.create (pb.perturb_seed lxor 0x27d4eb2f) in
        let drop_budget = ref pb.drop_budget in
        let in_dup = ref false in
        Some
          (fun ~src ~dst msg ->
            if !in_dup then Some msg
            else
              match msg with
              | Protocol.Packet _ ->
                  (* Execution traffic is never perturbed: drops/dups there
                     would change utilities and turn a schedule fault into a
                     spurious Theorem-1 counterexample. *)
                  Some msg
              | Protocol.Copy _
                when !drop_budget > 0 && Damd_util.Rng.bernoulli rng pb.drop_p ->
                  (* Bounded drops target the checker-copy channel only: a
                     lost copy desynchronizes a mirror, fails the next
                     checkpoint and is absorbed by a restart — it exercises
                     the recovery path without perturbing the certified
                     tables (unbounded loss of protocol updates is the §5
                     omission-fault model, [channel_loss]). *)
                  decr drop_budget;
                  None
              | (Protocol.Update _ | Protocol.Copy _) as msg
                when pb.dup_p > 0. && Damd_util.Rng.bernoulli rng pb.dup_p ->
                  (* Duplicate delivery: re-send the same message at the same
                     clock instant so the copy lands immediately after the
                     original (same timestamp, later sequence number). The
                     construction handlers are idempotent, so duplication
                     reorders/extends the schedule without changing state. *)
                  Engine.schedule engine ~delay:0. (fun () ->
                      in_dup := true;
                      Engine.send engine ~src ~dst msg;
                      in_dup := false);
                  Some msg
              | msg -> Some msg)
    | _ -> None
  in
  (match (loss_tap, perturb_tap) with
  | None, None -> ()
  | loss, perturb ->
      Engine.set_tap engine (fun ~src ~dst msg ->
          let after_loss =
            match loss with None -> Some msg | Some f -> f msg
          in
          match (after_loss, perturb) with
          | None, _ -> None
          | Some msg, None -> Some msg
          | Some msg, Some f -> f ~src ~dst msg));
  (* Nodes can only transmit on physical links. *)
  let send_from src ~dst msg =
    if not (List.mem dst neighbor_sets.(src)) then
      invalid_arg
        (Printf.sprintf "Runner: node %d attempted to send to non-neighbor %d" src dst);
    Engine.send engine ~src ~dst msg
  in
  let sends = Array.init n (fun i -> send_from i) in
  let fault_control =
    match params.fault with
    | Some spec when not (Damd_sim.Fault.is_none spec) ->
        Some (Damd_sim.Fault.install engine spec)
    | _ -> None
  in
  let ft = Option.is_some fault_control in
  (* Crash-recovery handoff: when a crashed node rejoins mid-phase, it and
     each up neighbor re-deliver their current phase state in both
     directions — the facts the recovered node missed while down, and the
     announcements it failed to emit. Re-sends go through the same
     deviation filters as the live path, so a deviant neighbor cannot be
     forced honest by crashing someone next to it. *)
  let handoff (resend : Node.t -> Node.send -> to_:int -> unit) i =
    List.iter
      (fun c ->
        if not (Engine.is_down engine c) then begin
          resend nodes.(c) sends.(c) ~to_:i;
          resend nodes.(i) sends.(i) ~to_:c
        end)
      neighbor_sets.(i)
  in
  let arm_faults phase resend =
    Option.iter
      (fun ctl -> Damd_sim.Fault.arm ~on_recover:(handoff resend) engine ctl ~phase)
      fault_control
  in
  let dispatch : dispatch ref = ref (fun _ ~sender:_ _ -> ()) in
  for i = 0 to n - 1 do
    Engine.set_handler engine i (fun ~sender msg -> !dispatch i ~sender msg)
  done;
  let detections = ref [] in
  (* Forensic context for accusation events: which protocol phase the
     bank was certifying when the evidence surfaced. *)
  let current_phase = ref "setup" in
  let evidence_class (d : Bank.detection) =
    match d.Bank.culprit with
    | Some _ ->
        (* named culprit: the checker holds contradicting signed
           evidence (digest mismatch, misreport, off-path carriage) *)
        "contradiction"
    | None -> if String.equal d.Bank.rule "LIVELOCK" then "livelock" else "omission"
  in
  let note ds =
    if Obs.enabled obs then
      List.iter
        (fun (d : Bank.detection) ->
          Obs.instant obs ~cat:"bank"
            ~args:
              [
                ("rule", Json.String d.Bank.rule);
                ( "culprit",
                  match d.Bank.culprit with
                  | Some c -> Json.Int c
                  | None -> Json.Null );
                ("class", Json.String (evidence_class d));
                ("phase", Json.String !current_phase);
                ("detail", Json.String d.Bank.detail);
              ]
            "accusation")
        ds;
    detections := !detections @ ds
  in
  let phase_attempt : (string, int) Hashtbl.t = Hashtbl.create 4 in
  let phase_span name body () =
    current_phase := name;
    let a = 1 + Option.value ~default:0 (Hashtbl.find_opt phase_attempt name) in
    Hashtbl.replace phase_attempt name a;
    Obs.span obs ~cat:"phase" ~args:[ ("attempt", Json.Int a) ] name body
  in
  let checkpoint name result =
    if Obs.enabled obs then
      Obs.instant obs ~cat:"bank"
        ~args:
          [
            ("phase", Json.String name);
            ( "outcome",
              Json.String
                (match result with
                | Ok () -> "certified"
                | Error _ -> "failed") );
            ( "reason",
              match result with
              | Ok () -> Json.Null
              | Error e -> Json.String e );
          ]
        "checkpoint";
    result
  in
  (* Run the engine to quiescence; a livelock is noted, not fatal. *)
  let drain name =
    match Engine.run ~max_events:params.max_events engine with
    | Engine.Quiescent -> ()
    | Engine.Event_limit ->
        note
          [
            {
              Bank.rule = "LIVELOCK";
              culprit = None;
              detail = name ^ ": event limit reached (livelock)";
            };
          ]
  in
  let verdict ds =
    note ds;
    match ds with [] -> Ok () | d :: _ -> Error d.Bank.detail
  in
  (* --- the three certified construction phases --- *)
  let phase1 =
    {
      Phase.name = "construction-1 (costs)";
      run =
        phase_span "construction-1 (costs)" (fun () ->
          Array.iter Node.reset_costs nodes;
          dispatch :=
            (fun i ~sender msg ->
              match msg with
              | Protocol.Update u -> Node.on_cost_msg nodes.(i) sends.(i) ~sender u
              | _ -> ());
          arm_faults `Costs Node.resend_costs_to;
          Array.iteri (fun i node -> Node.announce_cost node sends.(i)) nodes;
          drain "phase1");
      certify =
        (fun () ->
          checkpoint "construction-1 (costs)"
            (let complete = Array.for_all Node.finalize_costs nodes in
             if not complete then Error "some node is missing transit costs"
             else if params.deferred_certification then Ok ()
             else
               verdict
                 (if params.checking then Bank.checkpoint_costs nodes else [])));
    }
  in
  let table_checkpoint st ~check =
    if check then Bank.checkpoint ~fault_tolerant:ft st nodes else []
  in
  (* Construction 2a and 2b: one table each, the same obligations. *)
  let phase2 st ~name ~drain_name ~anchor ~reset ~check =
    {
      Phase.name;
      run =
        phase_span name (fun () ->
          Array.iter reset nodes;
          dispatch := (fun i ~sender msg -> Node.on_msg st nodes.(i) sends.(i) ~sender msg);
          arm_faults anchor (Node.resend_to st);
          Array.iteri (fun i node -> Node.start st node sends.(i)) nodes;
          drain drain_name);
      certify =
        (fun () ->
          checkpoint name
            (if (not params.checking) || params.deferred_certification then Ok ()
             else verdict (table_checkpoint st ~check)));
    }
  in
  let phase2a =
    phase2 Node.routing_stage ~name:"construction-2a (routing)" ~drain_name:"phase2a"
      ~anchor:`Routing ~reset:Node.reset_routing_phase ~check:true
  in
  let phase2b =
    phase2 Node.pricing_stage ~name:"construction-2b (pricing)" ~drain_name:"phase2b"
      ~anchor:`Pricing ~reset:Node.reset_pricing_phase ~check:params.checks.pricing_check
  in
  Engine.reset_stats engine;
  let construction =
    Phase.execute ~max_restarts:params.max_restarts () [ phase1; phase2a; phase2b ]
  in
  let construction_messages = Engine.messages_sent engine in
  let construction_bytes = Engine.bytes_sent engine in
  let bank_bytes = if params.checking then Bank.checkpoint_bytes nodes else 0 in
  (* Snapshot construction-epoch engine counters before the execution
     reset wipes them. *)
  (match Obs.metrics obs with
  | Some reg -> Engine.obs_metrics ~prefix:"engine.construction" engine reg
  | None -> ());
  let stuck phase progress =
    {
      completed = false;
      stuck_phase = Some phase;
      restarts = Phase.total_restarts progress;
      detections = !detections;
      utilities = Array.make n (-.params.progress_penalty);
      construction_messages;
      construction_bytes;
      execution_messages = 0;
      bank_bytes;
      tables = None;
      sim_time = Engine.now engine;
    }
  in
  match construction with
  | Phase.Stuck { phase; progress; _ } ->
      if Obs.enabled obs then
        Obs.instant obs ~cat:"phase"
          ~args:[ ("phase", Json.String phase) ]
          "construction.stuck";
      stuck phase progress
  | Phase.Completed progress
    when params.deferred_certification && params.checking
         && (let ds =
               Bank.checkpoint_costs nodes
               @ table_checkpoint Node.routing_stage ~check:true
               @ table_checkpoint Node.pricing_stage ~check:params.checks.pricing_check
             in
             note ds;
             ds <> []) ->
      (* The ablation of experiment E8: with certification deferred to a
         single final check, a deviation is only caught after the whole
         construction has been paid for. *)
      stuck "deferred-certification" progress
  | Phase.Completed progress ->
      (* --- execution phase --- *)
      (* Injection ends with construction: execution-phase loss is the
         separately-graded §5 omission model ([channel_loss]), and keeping
         faults out of execution keeps Definition-8 utility deltas
         attributable to the deviant rather than to fault noise. *)
      Option.iter (fun ctl -> Damd_sim.Fault.deactivate engine ctl) fault_control;
      Engine.reset_stats engine;
      Obs.span obs ~cat:"phase" "execution" (fun () ->
          current_phase := "execution";
          Array.iter Node.reset_execution nodes;
          dispatch :=
            (fun i ~sender msg -> Node.on_packet nodes.(i) sends.(i) ~sender msg);
          List.iter
            (fun (src, dst, rate) ->
              Node.originate_traffic nodes.(src) sends.(src) ~dst ~rate)
            (Traffic.demand_pairs traffic);
          drain "execution");
      let execution_messages = Engine.messages_sent engine in
      (match Obs.metrics obs with
      | Some reg -> Engine.obs_metrics ~prefix:"engine.execution" engine reg
      | None -> ());
      let registry = Signer.create_registry ~seed:7 in
      current_phase := "settlement";
      let settlement =
        Bank.settle ~obs
          ~checking:(params.checking && params.checks.settlement_check)
          ~epsilon:params.epsilon ~registry ~nodes ~traffic
      in
      note settlement.Bank.detections;
      let utilities =
        Array.init n (fun i ->
            let node = nodes.(i) in
            let carried_load =
              List.fold_left (fun acc (_, _, rate, _) -> acc +. rate) 0. node.Node.carried
            in
            (value_per_packet *. settlement.Bank.delivered.(i))
            -. settlement.Bank.outlays.(i)
            -. settlement.Bank.penalties.(i)
            +. settlement.Bank.incomes.(i)
            -. (node.Node.true_cost *. carried_load))
      in
      {
        completed = true;
        stuck_phase = None;
        restarts = Phase.total_restarts progress;
        detections = !detections;
        utilities;
        construction_messages;
        construction_bytes;
        execution_messages;
        bank_bytes;
        tables = Some (build_tables nodes);
        sim_time = Engine.now engine;
      }

let run_faithful ?params ~graph ~traffic () =
  run ?params ~graph ~traffic
    ~deviations:(Array.make (Graph.n graph) Adversary.Faithful)
    ()

let utility_gain ?params ~graph ~traffic ~node ~deviation () =
  let faithful = run_faithful ?params ~graph ~traffic () in
  let deviations = Array.make (Graph.n graph) Adversary.Faithful in
  deviations.(node) <- deviation;
  let deviant = run ?params ~graph ~traffic ~deviations () in
  deviant.utilities.(node) -. faithful.utilities.(node)
