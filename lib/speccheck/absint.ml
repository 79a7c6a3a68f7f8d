module Action = Damd_core.Action
module Obs = Damd_obs.Obs
module Clock = Damd_obs.Clock
module Json = Damd_util.Json

(* ---- the abstract taint environment -------------------------------------

   One lattice cell per channel: [pool] abstracts everything any node may
   have emitted into the network so far (the receive pool a later
   [Received_messages] read can draw from), [store] abstracts everything
   any action may have written into protocol state. Each cell carries a
   provenance path (action ids, oldest first) for the dominating
   contribution, so findings can print a witness chain instead of a bare
   verdict. Paths only change when the label strictly increases, which
   keeps the fixpoint monotone and terminating. *)

type cell = { lbl : Taint.label; path : string list }

let bottom = { lbl = Taint.Public; path = [] }

let cell_join a b = if not (Taint.leq b.lbl a.lbl) then b else a

type env = {
  pool : cell;
  store : cell;
  pool_deps : int;  (* bitmask over action indices feeding the pool *)
  store_deps : int;
}

let env_bottom = { pool = bottom; store = bottom; pool_deps = 0; store_deps = 0 }

let env_join a b =
  {
    pool = cell_join a.pool b.pool;
    store = cell_join a.store b.store;
    pool_deps = a.pool_deps lor b.pool_deps;
    store_deps = a.store_deps lor b.store_deps;
  }

let env_equal a b =
  a.pool.lbl = b.pool.lbl && a.store.lbl = b.store.lbl
  && a.pool_deps = b.pool_deps
  && a.store_deps = b.store_deps

type summary = { sm_action : string; sm_out : Taint.label; sm_path : string list }

type flow = {
  fl_summaries : summary list;  (* reachable actions, IR declaration order *)
  fl_deps : (string * int) list;  (* action id -> transitive output deps *)
  fl_reached : string list;  (* states with a non-bottom-reachable env *)
}

(* Does the action's output land where other nodes can read it? Message
   passing and information revelation emit into the network; a missing
   classification is treated as emitting (sound over-approximation). *)
let emits (a : Ir.action) =
  match a.Ir.cls with
  | Some Action.Computation | Some Action.Internal -> false
  | Some Action.Message_passing | Some Action.Information_revelation | None ->
      true

(* The transfer function: the output taint of one execution of [a] in
   environment [e]. Information revelation is the sanctioned
   declassification of Def. 12 — the signed announcement *is* the private
   value, neutralized by strategyproofness rather than by checkers — so
   its output is [Public] by definition; everything else joins its
   declared input channels. *)
let transfer (a : Ir.action) (e : env) =
  match a.Ir.cls with
  | Some Action.Information_revelation ->
      ({ lbl = Taint.Public; path = [ a.Ir.id ] }, 1)
  | _ ->
      let c =
        List.fold_left
          (fun acc i ->
            cell_join acc
              (match i with
              | Ir.Private_info -> { lbl = Taint.Private; path = [] }
              | Ir.Received_messages -> e.pool
              | Ir.Protocol_state -> e.store))
          bottom a.Ir.inputs
      in
      let deps =
        List.fold_left
          (fun acc i ->
            match i with
            | Ir.Private_info -> acc
            | Ir.Received_messages -> acc lor e.pool_deps
            | Ir.Protocol_state -> acc lor e.store_deps)
          0 a.Ir.inputs
      in
      ({ c with path = c.path @ [ a.Ir.id ] }, deps)

(* Worklist fixpoint over the transition table. Every declared transition
   is considered a possible flow (shadowed duplicates included): this
   over-approximates any concrete strategy, matching the reachability
   notion the structural checks already use. *)
let flow_fixpoint (m : Machine.t) (ir : Ir.t) =
  let track_deps = List.length ir.Ir.actions <= 62 in
  let bit_of =
    let tbl = Hashtbl.create 16 in
    List.iteri
      (fun i (a : Ir.action) ->
        if not (Hashtbl.mem tbl a.Ir.id) then Hashtbl.add tbl a.Ir.id i)
      ir.Ir.actions;
    fun id -> Hashtbl.find_opt tbl id
  in
  let envs : (string, env) Hashtbl.t = Hashtbl.create 16 in
  let outs : (string, cell) Hashtbl.t = Hashtbl.create 16 in
  let odeps : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let succ_tbl : (string, (Ir.action * string) list) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun (t : Ir.transition) ->
      match Hashtbl.find_opt m.Machine.action t.Ir.act with
      | None -> ()  (* undefined-ref: the structural checker's finding *)
      | Some a ->
          let prev =
            Option.value ~default:[] (Hashtbl.find_opt succ_tbl t.Ir.src)
          in
          Hashtbl.replace succ_tbl t.Ir.src (prev @ [ (a, t.Ir.dst) ]))
    ir.Ir.transitions;
  let q = Queue.create () in
  if List.mem ir.Ir.initial ir.Ir.states then begin
    Hashtbl.replace envs ir.Ir.initial env_bottom;
    Queue.add ir.Ir.initial q
  end;
  while not (Queue.is_empty q) do
    let s = Queue.pop q in
    let e = try Hashtbl.find envs s with Not_found -> env_bottom in
    List.iter
      (fun ((a : Ir.action), dst) ->
              let out, in_deps = transfer a e in
              let out_deps =
                if not track_deps then 0
                else
                  match bit_of a.Ir.id with
                  | Some b -> in_deps lor (1 lsl b)
                  | None -> in_deps
              in
              (match Hashtbl.find_opt outs a.Ir.id with
              | None -> Hashtbl.replace outs a.Ir.id out
              | Some c ->
                  if not (Taint.leq out.lbl c.lbl) then
                    Hashtbl.replace outs a.Ir.id out);
              (match Hashtbl.find_opt odeps a.Ir.id with
              | None -> Hashtbl.replace odeps a.Ir.id out_deps
              | Some m ->
                  if m lor out_deps <> m then
                    Hashtbl.replace odeps a.Ir.id (m lor out_deps));
              let e' =
                {
                  store = cell_join e.store out;
                  store_deps = e.store_deps lor out_deps;
                  pool = (if emits a then cell_join e.pool out else e.pool);
                  pool_deps =
                    (if emits a then e.pool_deps lor out_deps else e.pool_deps);
                }
              in
              let merged, changed =
                match Hashtbl.find_opt envs dst with
                | None -> (e', true)
                | Some old ->
                    let j = env_join old e' in
                    (j, not (env_equal old j))
              in
              if changed then begin
                Hashtbl.replace envs dst merged;
                Queue.add dst q
              end)
      (Option.value ~default:[] (Hashtbl.find_opt succ_tbl s))
  done;
  let fl_summaries =
    List.filter_map
      (fun (a : Ir.action) ->
        match Hashtbl.find_opt outs a.Ir.id with
        | None -> None
        | Some c ->
            Some { sm_action = a.Ir.id; sm_out = c.lbl; sm_path = c.path })
      ir.Ir.actions
  in
  let fl_deps =
    List.filter_map
      (fun (a : Ir.action) ->
        Option.map (fun m -> (a.Ir.id, m)) (Hashtbl.find_opt odeps a.Ir.id))
      ir.Ir.actions
  in
  let fl_reached =
    List.filter (fun s -> Hashtbl.mem envs s) ir.Ir.states
  in
  { fl_summaries; fl_deps; fl_reached }

let path_string p = String.concat " -> " p

(* The flow-sensitive upgrades of the Def. 12/13 checks: same properties
   as [cc-private-leak] / [ac-unmirrored] / [ac-undigested], but judged on
   the taint that actually reaches each action along reachable paths, with
   the laundering chain as witness. A private value that transits an
   intermediate computation before being emitted — invisible to the
   syntactic input scan — is caught here. *)
let flow_findings (m : Machine.t) (fl : flow) =
  List.concat_map
    (fun sm ->
      match Hashtbl.find_opt m.Machine.action sm.sm_action with
      | None -> []
      | Some a -> (
          match a.Ir.cls with
          | Some Action.Message_passing when sm.sm_out = Taint.Private ->
              [
                {
                  Check.id = "cc-private-leak-flow";
                  severity = Check.Error;
                  location = a.Ir.id;
                  message =
                    Printf.sprintf
                      "message-passing action %S emits private taint along \
                       the reachable chain [%s]: a checker cannot reproduce \
                       its output, so strong CC fails on this flow even \
                       though every hop's declaration looks innocent"
                      a.Ir.id (path_string sm.sm_path);
                };
              ]
          | Some Action.Computation when not a.Ir.mirrored ->
              [
                {
                  Check.id = "ac-unmirrored-flow";
                  severity = Check.Error;
                  location = a.Ir.id;
                  message =
                    Printf.sprintf
                      "computational action %S is reachable (flow [%s], taint \
                       %s) but no checker mirrors it: Def. 13 coverage fails \
                       on an execution that actually happens"
                      a.Ir.id (path_string sm.sm_path)
                      (Taint.to_string sm.sm_out);
                };
              ]
          | Some Action.Computation when not a.Ir.digested ->
              [
                {
                  Check.id = "ac-undigested-flow";
                  severity = Check.Error;
                  location = a.Ir.id;
                  message =
                    Printf.sprintf
                      "computational action %S is reachable (flow [%s]) but \
                       deposits no bank digest: its mirror can disagree \
                       without any checkpoint noticing"
                      a.Ir.id (path_string sm.sm_path);
                };
              ]
          | _ -> []))
    fl.fl_summaries

(* ---- verdicts and the static frontier ---- *)

type sverdict =
  | Scertified of { depth : int; certifier : string option; phase : int }
  | Sblind of { witness : string }
  | Sexempt of { reason : string }
  | Struncated

type frontier = {
  fr_dev : Dev.t;
  fr_verdict : sverdict;
  fr_certifier : string option;
  fr_phase : string option;
  fr_distance : int option;
}

type t = {
  flows : summary list;
  frontier : frontier list;
  findings : Check.finding list;
  states_explored : int;
  elapsed_s : float;
}

let of_scenario = function
  | Scenario.Detected { depth; certifier; phase } ->
      Scertified { depth; certifier; phase }
  | Scenario.Undetected { witness } -> Sblind { witness }
  | Scenario.Exempt { reason } -> Sexempt { reason }
  | Scenario.Truncated -> Struncated

(* The dependence-derived frontier: the earliest checkpoint, at or after
   the deviation's earliest targeted phase, whose certifier reads evidence
   deposited by an action whose output transitively depends (per the taint
   fixpoint's dependence masks) on an output the deviation perturbs.

   The per-action bit/phase tables and the per-phase union of evidence
   dependence masks are built once per run: "some covered action in phase
   i depends on a target" is exactly "emask.(i) land tmask <> 0", so each
   label's lookup is O(targets + phases) instead of a nested scan. *)
type frontier_tables = {
  ft_abit : (string, int) Hashtbl.t;
  ft_aphase : (string, int) Hashtbl.t;  (* earliest phase, declaration order *)
  ft_emask : int array;
  ft_feeds : bool array;  (* phase has a covered honest evidence source *)
}

let dependence_frontier_tables (m : Machine.t) (ir : Ir.t) (fl : flow) =
  let nph = m.Machine.nphases in
  let small = List.length ir.Ir.actions <= 62 in
  let ft_abit = Hashtbl.create 32 in
  if small then
    List.iteri
      (fun i (a : Ir.action) -> Hashtbl.replace ft_abit a.Ir.id (1 lsl i))
      ir.Ir.actions;
  (* one pass over the transitions replaces the per-action
     [Ir.phases_of_action] scans: an action occurs in every phase owning
     one of its source states, and its earliest such phase matches
     [Ir.phase_of_action] (declaration order). Phase sets are kept as
     bitmasks; on the rare > 62-phase IR the high phases simply fold
     onto the top bit, which only ever under-reports evidence — the
     sound direction for both the frontier and the starvation check. *)
  let aphases = Hashtbl.create 32 in
  List.iter
    (fun (t : Ir.transition) ->
      match Hashtbl.find_opt m.Machine.phase_index t.Ir.src with
      | Some i ->
          let bit = 1 lsl min i 61 in
          let prev =
            Option.value ~default:0 (Hashtbl.find_opt aphases t.Ir.act)
          in
          Hashtbl.replace aphases t.Ir.act (prev lor bit)
      | None -> ())
    ir.Ir.transitions;
  let first_phase mask =
    let rec go i = if i >= nph then None
      else if mask land (1 lsl min i 61) <> 0 then Some i
      else go (i + 1)
    in
    go 0
  in
  let ft_aphase = Hashtbl.create 32 in
  let ft_emask = Array.make (max 1 nph) 0 in
  let ft_feeds = Array.make (max 1 nph) false in
  List.iter
    (fun (a : Ir.action) ->
      match Hashtbl.find_opt aphases a.Ir.id with
      | None -> ()
      | Some mask -> (
          (match first_phase mask with
          | Some i -> Hashtbl.replace ft_aphase a.Ir.id i
          | None -> ());
          if Machine.covered_action a ~honest:true then begin
            for i = 0 to nph - 1 do
              if mask land (1 lsl min i 61) <> 0 then ft_feeds.(i) <- true
            done;
            match
              (Hashtbl.find_opt ft_aphase a.Ir.id, List.assoc_opt a.Ir.id fl.fl_deps)
            with
            | Some i, Some mdeps -> ft_emask.(i) <- ft_emask.(i) lor mdeps
            | _ -> ()
          end))
    ir.Ir.actions;
  { ft_abit; ft_aphase; ft_emask; ft_feeds }

let dependence_frontier (m : Machine.t) (ft : frontier_tables) targets =
  match targets with
  | [] -> (None, None, None)
  | _ -> (
      let tphases =
        List.filter_map
          (fun (a : Ir.action) -> Hashtbl.find_opt ft.ft_aphase a.Ir.id)
          targets
      in
      match tphases with
      | [] -> (None, None, None)
      | _ ->
          let p0 = List.fold_left min max_int tphases in
          let tmask =
            List.fold_left
              (fun acc (a : Ir.action) ->
                match Hashtbl.find_opt ft.ft_abit a.Ir.id with
                | Some b -> acc lor b
                | None -> acc)
              0 targets
          in
          let rec scan i =
            if i >= m.Machine.nphases then (None, None, None)
            else
              match m.Machine.certifiers.(i) with
              | Some c when ft.ft_emask.(i) land tmask <> 0 ->
                  (Some c, Some m.Machine.phase_names.(i), Some (i - p0))
              | _ -> scan (i + 1)
          in
          scan p0)

let run ?(bound = 200_000) ?(adversary = Dev.all) ?(obs = Obs.noop) ~graph
    (ir : Ir.t) =
  let t0 = Clock.now_ns () in
  let m = Machine.build ir in
  let fl =
    Obs.span obs ~cat:"speccheck" "absint.flow" (fun () -> flow_fixpoint m ir)
  in
  let ftab = dependence_frontier_tables m ir fl in
  match m.initial with
  | None ->
      {
        flows = fl.fl_summaries;
        frontier = [];
        findings =
          [
            {
              Check.id = "analysis-skipped";
              severity = Check.Warning;
              location = ir.Ir.initial;
              message =
                "the initial state is not declared, so the abstract product \
                 machine has no seed configuration; frontier analysis skipped";
            };
          ];
        states_explored = 0;
        elapsed_s = Clock.s_since t0;
      }
  | Some _ ->
      let plan = Scenario.make m ir ~graph ~adversary in
      (* the plan's product at two seats: the deviant and one faithful
         representative *)
      let s =
        Obs.span obs ~cat:"speccheck" "absint.frontier" (fun () ->
            Explore.search ~bound ~obs ~por:false ~domains:1
              ~run:"abstract run" m plan ~seats:2)
      in
      let keyless = m.nphases > Statepack.max_phases in
      let findings = ref [] in
      let seen = Hashtbl.create 16 in
      let add_finding severity id location message =
        if not (Hashtbl.mem seen (id ^ "\x00" ^ location)) then begin
          Hashtbl.add seen (id ^ "\x00" ^ location) ();
          findings := { Check.id; severity; location; message } :: !findings
        end
      in
      let add (f : Check.finding) =
        add_finding f.Check.severity f.Check.id f.Check.location f.Check.message
      in
      List.iter add (flow_findings m fl);
      (* checkpoint starvation: a certifier with no covered evidence source
         among its own phase's actions can never accumulate anything to
         certify — every deviation inside the phase is structurally blind. *)
      Array.iteri
        (fun i -> function
          | Some c when not ftab.ft_feeds.(i) ->
              let p = m.phase_names.(i) in
              add_finding Check.Error "checkpoint-starved" p
                (Printf.sprintf
                   "phase %S ends in certifier %s but no action of the phase \
                    deposits covered evidence: the checkpoint green-lights on \
                    an empty ledger, blinding every deviation inside the phase"
                   p c)
          | _ -> ())
        m.certifiers;
      let states_total = ref 0 in
      List.iter
        (fun (o : Scenario.result) ->
          states_total := !states_total + o.states;
          List.iter add o.findings)
        s.Explore.results;
      let frontier =
        List.map
          (fun ((e : Scenario.entry), v) ->
            let v = of_scenario v in
            let fr_certifier, fr_phase, fr_distance =
              match v with
              | Sexempt _ -> (None, None, None)
              | _ -> dependence_frontier m ftab e.actions
            in
            {
              fr_dev = e.dev;
              fr_verdict = v;
              fr_certifier;
              fr_phase;
              fr_distance;
            })
          (Scenario.verdicts plan ~product:"abstract" s.Explore.results)
      in
      List.iter
        (fun fr ->
          match fr.fr_verdict with
          | Sblind { witness } ->
              add_finding Check.Error "certifier-blind-spot"
                (Dev.to_string fr.fr_dev)
                (Printf.sprintf
                   "no checkpoint certifier ever surfaces deviation %S: %s%s"
                   (Dev.to_string fr.fr_dev) witness
                   (match (fr.fr_certifier, fr.fr_phase, fr.fr_distance) with
                   | Some c, Some p, Some dist ->
                       Printf.sprintf
                         " (certifier %s at phase %S, distance %d, reads \
                          dependent evidence, but the checkpoint discipline \
                          never surfaces the deviation)"
                         c p dist
                   | _ ->
                       " (and no certifier's evidence transitively depends \
                        on any output it perturbs)"))
          | Struncated when not keyless ->
              add_finding Check.Warning "analysis-truncated"
                (Dev.to_string fr.fr_dev)
                (Printf.sprintf
                   "the %d-state bound ran out while abstracting %S: its \
                    static verdict is unknown"
                   bound
                   (Dev.to_string fr.fr_dev))
          | Scertified _ | Sexempt _ | Struncated -> ())
        frontier;
      if keyless then
        add_finding Check.Warning "analysis-truncated" ir.Ir.name
          (Printf.sprintf
             "the spec has %d phases but packed product-state keys hold at \
              most %d; frontier search skipped, every searched deviation is \
              truncated"
             m.nphases Statepack.max_phases)
      else List.iter add (Scenario.unexplored m ~product:"abstract" s.covered);
      let elapsed_s = Clock.s_since t0 in
      if Obs.enabled obs then
        Obs.instant obs ~cat:"speccheck"
          ~args:
            [
              ("states", Json.Int !states_total);
              ("labels", Json.Int (List.length plan.Scenario.entries));
              ("elapsed_s", Json.Float elapsed_s);
            ]
          "absint.done";
      {
        flows = fl.fl_summaries;
        frontier;
        findings = List.rev !findings;
        states_explored = !states_total;
        elapsed_s;
      }

(* ---- the static-vs-dynamic differential ---- *)

let differential (t : t) (dyn : Explore.outcome) =
  let gap lbl message =
    {
      Check.id = "static-frontier-gap";
      severity = Check.Error;
      location = Dev.to_string lbl;
      message;
    }
  in
  List.filter_map
    (fun fr ->
      match List.assoc_opt fr.fr_dev dyn.Explore.verdicts with
      | None -> None
      | Some dv -> (
          match (fr.fr_verdict, dv) with
          | Struncated, _ | _, Explore.Truncated -> None
          | Sexempt _, Explore.Exempt _ -> None
          | Sblind _, Explore.Undetected _ -> None
          | Scertified { depth = ds; _ }, Explore.Detected { depth = dd; _ } ->
              if ds <= dd then None
              else
                Some
                  (gap fr.fr_dev
                     (Printf.sprintf
                        "static frontier depth %d exceeds the dynamic \
                         detection depth %d for %S: the abstraction is not a \
                         lower bound here"
                        ds dd
                        (Dev.to_string fr.fr_dev)))
          | Scertified _, Explore.Undetected { witness } ->
              Some
                (gap fr.fr_dev
                   (Printf.sprintf
                      "the static analysis certifies %S but exploration \
                       exhibits an escape (%s): the abstract evidence model \
                       claims coverage the product space refutes"
                      (Dev.to_string fr.fr_dev)
                      witness))
          | Sblind _, Explore.Detected { depth; _ } ->
              Some
                (gap fr.fr_dev
                   (Printf.sprintf
                      "the static analysis reports a blind spot for %S but \
                       exploration detects it at depth %d: the static \
                       frontier is incomplete"
                      (Dev.to_string fr.fr_dev)
                      depth))
          | Sexempt _, _ | _, Explore.Exempt _ ->
              Some
                (gap fr.fr_dev
                   (Printf.sprintf
                      "static and dynamic exemption status disagree for %S"
                      (Dev.to_string fr.fr_dev)))))
    t.frontier
