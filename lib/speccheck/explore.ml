module G = Damd_graph.Graph
module Obs = Damd_obs.Obs
module Clock = Damd_obs.Clock
module Metrics = Damd_obs.Metrics
module Json = Damd_util.Json
module Sp = Statepack

type verdict =
  | Detected of { depth : int; certifier : string option }
  | Undetected of { witness : string }
  | Exempt of { reason : string }
  | Truncated

type stats = {
  states_explored : int;
  frontier_peak : int;
  scenarios : int;
  truncated : bool;
  elapsed_s : float;
  por : bool;  (* the reduction was requested *and* its guard held *)
  domains : int;  (* scenario fan-out width actually used *)
}

type outcome = {
  verdicts : (Dev.t * verdict) list;
  findings : Check.finding list;
  covered_states : string list;
  stats : stats;
}

let of_scenario = function
  | Scenario.Detected { depth; certifier; _ } -> Detected { depth; certifier }
  | Scenario.Undetected { witness } -> Undetected { witness }
  | Scenario.Exempt { reason } -> Exempt { reason }
  | Scenario.Truncated -> Truncated

(* One scenario: BFS the product with [n] seats, one seat optionally
   running the deviation. [job.targets] marks states whose suggested
   action the deviation targets; [job.covered] marks states whose deviant
   execution deposits checkpoint evidence; [job.stall] models omission
   (the targeted step never completes, blocking the phase barrier).
   [encode] canonicalizes a product state into the dedup key — an
   immediate int whenever the packed layout fits one word. [por] enables
   the invisible-step reduction (its acyclicity guard already held).
   Returns the job's result, its frontier peak and the states its seats
   occupied. *)
let run_scenario (type k) (m : Machine.t) ~(encode : Sp.state -> k) ~audit
    ~por ~obs ~bound ~n ~initial (job : Scenario.job) =
  let ns = Array.length m.states in
  let depth_hist =
    match Obs.metrics obs with
    | None -> None
    | Some reg -> Some (Metrics.histogram reg "explore.depth")
  in
  let tally = Scenario.tally m ~run:"run" in
  let truncated = ref false in
  let covered_mark = Array.make ns false in
  let visited : (k, int) Hashtbl.t = Hashtbl.create 1024 in
  let parent : (k, k * string) Hashtbl.t = Hashtbl.create 1024 in
  let audit_tbl : (k, string) Hashtbl.t option =
    if audit then Some (Hashtbl.create 1024) else None
  in
  let encode st =
    let k = encode st in
    (match audit_tbl with
    | None -> ()
    | Some tbl -> (
        let s = Sp.structural st in
        match Hashtbl.find_opt tbl k with
        | None -> Hashtbl.add tbl k s
        | Some s0 when String.equal s0 s -> ()
        | Some s0 -> raise (Sp.Collision (s0, s))));
    k
  in
  let q : (k * Sp.state) Queue.t = Queue.create () in
  let witness_of k =
    let rec climb k acc fuel =
      if fuel = 0 then "…" :: acc
      else
        match Hashtbl.find_opt parent k with
        | None -> acc
        | Some (pk, lbl) -> climb pk (lbl :: acc) (fuel - 1)
    in
    String.concat " ; " (climb k [] 14)
  in
  let mark (st : Sp.state) =
    if st.Sp.dev >= 0 then covered_mark.(st.Sp.dev) <- true;
    Array.iteri (fun i c -> if c > 0 then covered_mark.(i) <- true) st.Sp.cnt
  in
  let frontier_max = ref 0 in
  let s0 =
    let cnt = Array.make ns 0 in
    cnt.(initial) <- (if job.has_deviant then n - 1 else n);
    {
      Sp.dev = (if job.has_deviant then initial else -1);
      cnt;
      ph = 0;
      acted = 0;
      evid = 0;
    }
  in
  let k0 = encode s0 in
  Hashtbl.replace visited k0 0;
  mark s0;
  Queue.add (k0, s0) q;
  let continue = ref true in
  while !continue && not (Queue.is_empty q) do
    if Hashtbl.length visited > bound then begin
      truncated := true;
      continue := false
    end
    else begin
      let k, s = Queue.pop q in
      let d = Hashtbl.find visited k in
      (* Frontier-size counter track, sampled every 256 expansions. *)
      if Obs.enabled obs && Hashtbl.length visited land 255 = 0 then
        Obs.sample obs "explore.frontier" (float_of_int (Queue.length q));
      let ph = s.Sp.ph in
      let eligible pos = ph >= m.nphases || m.phase_of.(pos) = ph in
      (* (successor, edge label, destination position or -1) *)
      let succs = ref [] in
      let push st lbl dst = succs := (st, lbl, dst) :: !succs in
      (* deviant move *)
      (if s.Sp.dev >= 0 && eligible s.Sp.dev then
         match m.sugg_id.(s.Sp.dev) with
         | None -> ()
         | Some _aid ->
             let dv = s.Sp.dev in
             let is_t = job.targets.(dv) in
             if job.stall && is_t then
               (* omission: the targeted step never completes *)
               ()
             else begin
               let pbit =
                 if ph < m.nphases then ph else max 0 (m.nphases - 1)
               in
               let acted =
                 if is_t then s.Sp.acted lor (1 lsl pbit) else s.Sp.acted
               in
               let evid =
                 if is_t && job.covered.(dv) then s.Sp.evid lor (1 lsl pbit)
                 else s.Sp.evid
               in
               if is_t then Scenario.act tally ~pbit ~depth:(d + 1);
               push
                 { s with Sp.dev = m.dst_of.(dv); acted; evid }
                 m.dev_lbl.(dv) m.dst_of.(dv)
             end);
      (* faithful class moves (symmetry: one per occupied chain state),
         POR-pruned to the lowest invisible class when the guard holds *)
      let pick_invisible =
        if por then begin
          let r = ref (-1) in
          (try
             for i = 0 to ns - 1 do
               if s.Sp.cnt.(i) > 0 && Por.invisible m ~ph i then begin
                 r := i;
                 raise Exit
               end
             done
           with Exit -> ());
          !r
        end
        else -1
      in
      for i = 0 to ns - 1 do
        if s.Sp.cnt.(i) > 0 && eligible i then
          match m.sugg_id.(i) with
          | None -> ()
          | Some aid ->
              let inv = pick_invisible >= 0 && Por.invisible m ~ph i in
              if (not inv) || i = pick_invisible then begin
                let dst = m.dst_of.(i) in
                let cnt = Array.copy s.Sp.cnt in
                cnt.(i) <- cnt.(i) - 1;
                cnt.(dst) <- cnt.(dst) + 1;
                push { s with Sp.cnt } aid dst
              end
      done;
      (* checkpoint: fires exactly when nobody remains inside the phase *)
      if ph < m.nphases then begin
        let someone_inside =
          (s.Sp.dev >= 0 && m.phase_of.(s.Sp.dev) = ph)
          ||
          let ins = ref false in
          for i = 0 to ns - 1 do
            if s.Sp.cnt.(i) > 0 && m.phase_of.(i) = ph then ins := true
          done;
          !ins
        in
        if not someone_inside then begin
          if
            Scenario.checkpoint tally m ~ph ~acted:s.Sp.acted ~evid:s.Sp.evid
              ~depth:(d + 1)
          then Scenario.escape tally m ~ph (witness_of k);
          push { s with Sp.ph = ph + 1 } m.cp_lbl.(ph) (-1)
        end
      end;
      (* enqueue with post-certification reentry pruning *)
      let progress = ref 0 in
      List.iter
        (fun (st, lbl, dst) ->
          let reentry =
            dst >= 0
            && m.phase_of.(dst) >= 0
            && m.phase_of.(dst) < min ph m.nphases
          in
          if reentry then begin
            incr progress;
            Scenario.reentry tally m ~lbl ~dst
          end
          else begin
            let k' = encode st in
            if k' <> k then incr progress;
            if not (Hashtbl.mem visited k') then begin
              Hashtbl.replace visited k' (d + 1);
              Hashtbl.replace parent k' (k, lbl);
              (match depth_hist with
              | None -> ()
              | Some h -> Metrics.observe h (float_of_int (d + 1)));
              mark st;
              Queue.add (k', st) q;
              if Queue.length q > !frontier_max then
                frontier_max := Queue.length q
            end
          end)
        !succs;
      (* deadlock: the current phase can never reach its certifier *)
      if !progress = 0 && ph < m.nphases then
        Scenario.deadlock tally m job ~ph ~dev:s.Sp.dev ~depth:(d + 1)
    end
  done;
  ( Scenario.result tally ~truncated:!truncated
      ~states:(Hashtbl.length visited),
    !frontier_max,
    covered_mark )

(* The acted/evidence masks of a packed key are 16 bits wide. *)
let key_phase_limit = 16

let undetected lbl witness =
  {
    Check.id = "undetected-deviation";
    severity = Check.Error;
    location = Dev.to_string lbl;
    message =
      Printf.sprintf "deviation %S can escape its phase checkpoint: %s"
        (Dev.to_string lbl) witness;
  }

let run ?(bound = 50_000) ?(adversary = Dev.all) ?(obs = Obs.noop)
    ?(por = true) ?(domains = 0) ?(audit = false) ~graph (ir : Ir.t) =
  let t0 = Clock.now_ns () in
  let m = Machine.build ir in
  let n = G.n graph in
  let ns = Array.length m.states in
  let por = por && Por.active m in
  let skipped verdicts findings =
    {
      verdicts;
      findings;
      covered_states = [];
      stats =
        {
          states_explored = 0;
          frontier_peak = 0;
          scenarios = 0;
          truncated = true;
          elapsed_s = Clock.s_since t0;
          por;
          domains = 1;
        };
    }
  in
  match m.initial with
  | None ->
      skipped []
        [
          {
            Check.id = "exploration-truncated";
            severity = Check.Warning;
            location = ir.Ir.initial;
            message =
              "the initial state is not declared, so the product machine has \
               no seed configuration; exploration skipped";
          };
        ]
  | Some _ when m.nphases > key_phase_limit ->
      (* Every label that needs a search is cut before it starts. *)
      let plan = Scenario.make m ir ~graph ~adversary in
      let cut =
        Scenario.result (Scenario.tally m ~run:"run") ~truncated:true ~states:0
      in
      let verdicts =
        List.map
          (fun ((e : Scenario.entry), v) -> (e.Scenario.dev, of_scenario v))
          (Scenario.verdicts plan ~product:"explored"
             (List.map (fun _ -> cut) plan.Scenario.jobs))
      in
      skipped verdicts
        ({
           Check.id = "exploration-truncated";
           severity = Check.Warning;
           location = ir.Ir.name;
           message =
             Printf.sprintf
               "the spec has %d phases but packed product-state keys hold at \
                most %d (one acted and one evidence bit per phase); \
                exploration skipped, every searched deviation is truncated"
               m.nphases key_phase_limit;
         }
        :: List.filter_map
             (function
               | lbl, Undetected { witness } -> Some (undetected lbl witness)
               | _ -> None)
             verdicts)
  | Some initial ->
      let codec = Sp.make ~ns ~n ~nphases:m.nphases in
      let plan = Scenario.make m ir ~graph ~adversary in
      let njobs = List.length plan.Scenario.jobs in
      (* Tracing sinks are not thread-safe, so an enabled obs pins the
         fan-out to one domain; results are merged in job order either
         way, so the outcome is identical. *)
      let dom =
        if Obs.enabled obs then 1
        else
          let req = if domains <= 0 then Pool.default_domains () else domains in
          max 1 (min req njobs)
      in
      let exec (job : Scenario.job) =
        Obs.span obs ~cat:"speccheck"
          ~args:[ ("scenario", Json.String job.Scenario.label) ]
          "explore.scenario"
          (fun () ->
            if Sp.fits_int codec then
              run_scenario m ~encode:(Sp.pack_int codec) ~audit ~por ~obs
                ~bound ~n ~initial job
            else
              run_scenario m ~encode:(Sp.pack_string codec) ~audit ~por ~obs
                ~bound ~n ~initial job)
      in
      let outs = Pool.map ~domains:dom exec plan.Scenario.jobs in
      (* deterministic merge, in job (= label) order *)
      let covered_mark = Array.make ns false in
      let findings = ref [] in
      let seen = Hashtbl.create 16 in
      let add (f : Check.finding) =
        if not (Hashtbl.mem seen (f.Check.id, f.Check.location)) then begin
          Hashtbl.add seen (f.Check.id, f.Check.location) ();
          findings := f :: !findings
        end
      in
      let states_total = ref 0 in
      let frontier_max = ref 0 in
      List.iter
        (fun ((r : Scenario.result), frontier, covered) ->
          states_total := !states_total + r.Scenario.states;
          if frontier > !frontier_max then frontier_max := frontier;
          Array.iteri (fun i b -> if b then covered_mark.(i) <- true) covered;
          List.iter add r.Scenario.findings)
        outs;
      let verdicts =
        List.map
          (fun ((e : Scenario.entry), v) -> (e.Scenario.dev, of_scenario v))
          (Scenario.verdicts plan ~product:"explored"
             (List.map (fun (r, _, _) -> r) outs))
      in
      List.iter
        (fun (lbl, v) ->
          match v with
          | Undetected { witness } -> add (undetected lbl witness)
          | Truncated ->
              add
                {
                  Check.id = "exploration-truncated";
                  severity = Check.Warning;
                  location = Dev.to_string lbl;
                  message =
                    Printf.sprintf
                      "the %d-state bound ran out while exploring %S: its \
                       verdict is unknown"
                      bound (Dev.to_string lbl);
                }
          | Detected _ | Exempt _ -> ())
        verdicts;
      List.iter add (Scenario.unexplored m ~product:"explored" covered_mark);
      let covered_states =
        List.filteri (fun i _ -> covered_mark.(i)) (Array.to_list m.states)
      in
      let elapsed_s = Clock.s_since t0 in
      if Obs.enabled obs then
        Obs.instant obs ~cat:"speccheck"
          ~args:
            [
              ("states", Json.Int !states_total);
              ("scenarios", Json.Int njobs);
              ("frontier_peak", Json.Int !frontier_max);
              ( "states_per_sec",
                Json.Float
                  (if elapsed_s > 0. then
                     float_of_int !states_total /. elapsed_s
                   else 0.) );
            ]
          "explore.done";
      {
        verdicts;
        findings = List.rev !findings;
        covered_states;
        stats =
          {
            states_explored = !states_total;
            frontier_peak = !frontier_max;
            scenarios = njobs;
            truncated =
              List.exists
                (fun (_, v) -> match v with Truncated -> true | _ -> false)
                verdicts;
            elapsed_s;
            por;
            domains = dom;
          };
      }
