module Graph = Damd_graph.Graph
module Engine = Damd_sim.Engine
module Phase = Damd_core.Phase
module Signer = Damd_crypto.Signer
module Traffic = Damd_fpss.Traffic
module Tables = Damd_fpss.Tables
module Obs = Damd_obs.Obs
module Json = Damd_util.Json
module Rng = Damd_util.Rng
module Fault = Damd_sim.Fault

type bank =
  | Certified
  | Deferred
  | Skip_pricing
  | Naive_settlement
  | Unchecked
  | Plain

type perturb = {
  jitter : float;
  dup_p : float;
  drop_p : float;
  drop_budget : int;
  perturb_seed : int;
}

let no_perturbation =
  { jitter = 0.; dup_p = 0.; drop_p = 0.; drop_budget = 0; perturb_seed = 0 }

type params = {
  progress_penalty : float;
  epsilon : float;
  max_restarts : int;
  bank : bank;
  channel_loss : (float * int) option;
  perturbation : perturb;
  fault : Fault.spec option;
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
    bank = Certified;
    channel_loss = None;
    perturbation = no_perturbation;
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
    Array.init n (fun src -> Array.map Protocol.price_pairs nodes.(src).Node.pricing)
  in
  { Tables.routing; prices }

let run ?(params = default_params) ~graph ~traffic ~deviations () =
  let n = Graph.n graph in
  if Array.length deviations <> n then invalid_arg "Runner.run: deviations arity";
  let neighbor_sets = Array.init n (Graph.neighbors graph) in
  let nodes =
    Array.init n (fun id ->
        Node.create ~copies:(params.bank <> Plain) ~id ~n ~neighbor_sets
          ~true_cost:(Graph.cost graph id) ~deviation:deviations.(id) ())
  in
  let pb = params.perturbation in
  let latency =
    if pb.jitter <= 0. then fun ~src:_ ~dst:_ -> 1.0
    else
      (* Heterogeneous but per-link constant delays, each drawn once from
         [max(0.1, 1-j), 1+j): asynchrony without breaking the per-link
         FIFO the table-overwrite semantics rely on. *)
      let rng = Rng.create (pb.perturb_seed lxor 0x5bd1e995) in
      let lo = Float.max 0.1 (1. -. pb.jitter) and hi = 1. +. pb.jitter in
      let m = Array.init n (fun _ -> Array.init n (fun _ -> Rng.float_in rng lo hi)) in
      fun ~src ~dst -> m.(src).(dst)
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
  (* The network environment: one shaper over the §5 channel loss, the
     perturbation's copy drops and duplicates, and the [Fault] schedule,
     in that order. None of them touches an execution packet: losing or
     duplicating one would change utilities and turn an environment
     fault into a spurious Theorem-1 counterexample. *)
  let channel_lost =
    match params.channel_loss with
    | None -> fun _ -> false
    | Some (p, seed) ->
        let rng = Rng.create seed in
        (function Protocol.Packet _ -> false | _ -> Rng.bernoulli rng p)
  in
  let perturb_lost =
    let rng = Rng.create (pb.perturb_seed lxor 0x27d4eb2f) in
    let drop_budget = ref pb.drop_budget in
    let in_dup = ref false in
    fun ~src ~dst msg ->
      (not !in_dup)
      &&
      match msg with
      | Protocol.Packet _ -> false
      | Protocol.Copy _ when !drop_budget > 0 && Rng.bernoulli rng pb.drop_p ->
          (* Bounded drops target the checker-copy channel only: a lost
             copy can desynchronize a mirror, fail the next checkpoint and
             cost a restart — it exercises the recovery path without
             perturbing the certified tables. *)
          decr drop_budget;
          true
      | Protocol.Update _ | Protocol.Copy _ ->
          if pb.dup_p > 0. && Rng.bernoulli rng pb.dup_p then
            (* Duplicate delivery: re-send the same message at the same
               clock instant so the copy lands immediately after the
               original (same timestamp, later sequence number). The
               construction handlers are idempotent, so duplication
               reorders/extends the schedule without changing state. The
               copy skips the perturbation, not the other decisions. *)
            Engine.schedule engine ~delay:0. (fun () ->
                in_dup := true;
                Engine.send engine ~src ~dst msg;
                in_dup := false);
          false
  in
  let fault =
    match params.fault with
    | Some spec when not (Fault.is_none spec) -> Some (Fault.create ~n spec)
    | _ -> None
  in
  Engine.set_shaper engine (fun ~src ~dst ~now msg ->
      if channel_lost msg || perturb_lost ~src ~dst msg then Engine.Lose
      else
        match fault with
        | None -> Engine.Pass
        | Some ctl -> Fault.shape ctl ~src ~dst ~now msg);
  (* Nodes can only transmit on physical links. *)
  let send_from src ~dst msg =
    if not (List.mem dst neighbor_sets.(src)) then
      invalid_arg
        (Printf.sprintf "Runner: node %d attempted to send to non-neighbor %d" src dst);
    Engine.send engine ~src ~dst msg
  in
  let sends = Array.init n (fun i -> send_from i) in
  let ft = Option.is_some fault in
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
  (* A fault schedule fires on a phase's first attempt only: a restart
     the bank orders re-runs the phase without re-injecting, which is the
     recovery the graceful-degradation grading expects. *)
  let arm_faults ~attempt phase resend =
    if attempt = 1 then
      Option.iter (fun ctl -> Fault.arm ~on_recover:(handoff resend) engine ctl ~phase) fault
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
  let phase_span name body ~attempt () =
    current_phase := name;
    Obs.span obs ~cat:"phase" ~args:[ ("attempt", Json.Int attempt) ] name (body ~attempt)
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
  (* The construction checkpoints the bank collects, DATA1, BANK1 and
     BANK2: the unchecked and plain banks none, skip-pricing no BANK2.
     The bank's evidence and its channel bytes both follow this list. *)
  let collected : Fault.phase_tag list =
    match params.bank with
    | Unchecked | Plain -> []
    | Skip_pricing -> [ `Costs; `Routing ]
    | Certified | Deferred | Naive_settlement -> [ `Costs; `Routing; `Pricing ]
  in
  let evidence phase =
    if not (List.mem phase collected) then []
    else
      match phase with
      | `Costs -> Bank.checkpoint_costs nodes
      | `Routing -> Bank.checkpoint ~fault_tolerant:ft Node.routing_stage nodes
      | `Pricing -> Bank.checkpoint ~fault_tolerant:ft Node.pricing_stage nodes
  in
  (* Every bank but the deferred one certifies a phase as it ends. *)
  let certify phase =
    match params.bank with Deferred -> Ok () | _ -> verdict (evidence phase)
  in
  (* --- the three certified construction phases --- *)
  let phase1 =
    {
      Phase.name = "construction-1 (costs)";
      run =
        phase_span "construction-1 (costs)" (fun ~attempt () ->
          Array.iter Node.reset_costs nodes;
          dispatch :=
            (fun i ~sender msg ->
              match msg with
              | Protocol.Update u -> Node.on_cost_msg nodes.(i) sends.(i) ~sender u
              | _ -> ());
          arm_faults ~attempt `Costs Node.resend_costs_to;
          Array.iteri (fun i node -> Node.announce_cost node sends.(i)) nodes;
          drain "phase1");
      certify =
        (fun () ->
          checkpoint "construction-1 (costs)"
            (if Array.for_all Node.finalize_costs nodes then certify `Costs
             else Error "some node is missing transit costs"));
    }
  in
  (* Construction 2a and 2b: one table each, the same obligations. *)
  let phase2 st ~name ~drain_name ~anchor ~reset =
    {
      Phase.name;
      run =
        phase_span name (fun ~attempt () ->
          Array.iter reset nodes;
          dispatch := (fun i ~sender msg -> Node.on_msg st nodes.(i) sends.(i) ~sender msg);
          arm_faults ~attempt anchor (Node.resend_to st);
          Array.iteri (fun i node -> Node.start st node sends.(i)) nodes;
          drain drain_name);
      certify = (fun () -> checkpoint name (certify anchor));
    }
  in
  let phase2a =
    phase2 Node.routing_stage ~name:"construction-2a (routing)" ~drain_name:"phase2a"
      ~anchor:`Routing ~reset:Node.reset_routing_phase
  in
  let phase2b =
    phase2 Node.pricing_stage ~name:"construction-2b (pricing)" ~drain_name:"phase2b"
      ~anchor:`Pricing ~reset:Node.reset_pricing_phase
  in
  Engine.reset_stats engine;
  let construction =
    Phase.execute ~max_restarts:params.max_restarts () [ phase1; phase2a; phase2b ]
  in
  let construction_messages = Engine.messages_sent engine in
  let construction_bytes = Engine.bytes_sent engine in
  let bank_bytes =
    List.fold_left (fun acc phase -> acc + Bank.checkpoint_bytes phase nodes) 0 collected
  in
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
  let execute progress =
    (* --- execution phase --- *)
    (* Fault injection ends with construction; channel loss and the
       perturbation spare execution packets too, so Definition-8 utility
       deltas stay attributable to the deviant rather than to fault
       noise. *)
    Option.iter (fun ctl -> Fault.deactivate engine ctl) fault;
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
        ~checking:
          (match params.bank with
          | Certified | Deferred | Skip_pricing -> true
          | Naive_settlement | Unchecked | Plain -> false)
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
  in
  match construction with
  | Phase.Stuck { phase; progress; _ } ->
      if Obs.enabled obs then
        Obs.instant obs ~cat:"phase"
          ~args:[ ("phase", Json.String phase) ]
          "construction.stuck";
      stuck phase progress
  | Phase.Completed progress -> (
      match params.bank with
      | Deferred -> (
          (* The ablation of experiment E8: with certification deferred to
             a single final check, a deviation is only caught after the
             whole construction has been paid for. *)
          match verdict (List.concat_map evidence collected) with
          | Ok () -> execute progress
          | Error _ -> stuck "deferred-certification" progress)
      | Certified | Skip_pricing | Naive_settlement | Unchecked | Plain ->
          execute progress)

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
