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

(* The state store of one search. Every visited state is kept as its
   [Statepack] key, [w] words at [keys.(w * i)], in insertion order —
   BFS order, so the queue is a cursor over the store. Beside the words
   sit the state's depth, its parent's index ([-1] for the root) and the
   edge that reached it; [slots] is one open-addressed table of store
   indices ([-1] = empty, linear probing at ≤ 50% load). Index [count]
   of [keys] is scratch: a successor's key is assembled there and only
   committed if the table does not hold it yet. A [Pool] worker keeps
   one store and resets it between the searches it runs. *)
type store = {
  w : int;
  mutable keys : int array;
  mutable depth : int array;
  mutable parent : int array;
  mutable edge : int array;
  mutable count : int;
  mutable slots : int array;
}

let store_create w =
  let cap = 64 in
  {
    w;
    keys = Array.make (cap * w) 0;
    depth = Array.make cap 0;
    parent = Array.make cap 0;
    edge = Array.make cap 0;
    count = 0;
    slots = Array.make (2 * cap) (-1);
  }

let store_reset st =
  st.count <- 0;
  Array.fill st.slots 0 (Array.length st.slots) (-1)

let hash keys off w =
  let h = ref 0 in
  for j = off to off + w - 1 do
    let x = (!h lxor keys.(j)) * 0x9E3779B97F4A7C1 in
    h := x lxor (x lsr 29)
  done;
  !h

(* Room for the scratch key at index [count]. *)
let reserve st =
  let cap = Array.length st.depth in
  if st.count >= cap then begin
    let grow a =
      let b = Array.make (2 * Array.length a) 0 in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    st.keys <- grow st.keys;
    st.depth <- grow st.depth;
    st.parent <- grow st.parent;
    st.edge <- grow st.edge
  end

let rehash st =
  let slots = Array.make (2 * Array.length st.slots) (-1) in
  let mask = Array.length slots - 1 in
  for i = 0 to st.count - 1 do
    let s = ref (hash st.keys (i * st.w) st.w land mask) in
    while slots.(!s) >= 0 do
      s := (!s + 1) land mask
    done;
    slots.(!s) <- i
  done;
  st.slots <- slots

(* Looks up the scratch key: the index of the stored equal key, or [-1]
   after committing the scratch key as index [count - 1]. *)
let intern st =
  let w = st.w and keys = st.keys and slots = st.slots in
  let off = st.count * w in
  let mask = Array.length slots - 1 in
  let s = ref (hash keys off w land mask) in
  let found = ref (-2) in
  while !found = -2 do
    let i = slots.(!s) in
    if i < 0 then found := -1
    else begin
      let j = ref 0 and b = i * w in
      while !j < w && keys.(b + !j) = keys.(off + !j) do
        incr j
      done;
      if !j = w then found := i else s := (!s + 1) land mask
    end
  done;
  if !found = -1 then begin
    slots.(!s) <- st.count;
    st.count <- st.count + 1;
    if 2 * st.count > Array.length slots then rehash st
  end;
  !found

(* What every search of one [search] call reads besides the job, built
   once per call and never written afterwards, so the workers of one call
   share it. [members.(ph)] lists the states a seat may step from while
   the phase cursor is [ph], highest index first: the phase's own states,
   and every state once the cursor passed the last phase. [moves] marks
   the states with a suggested step, [invisible] POR's prunable steps per
   (phase, state), all false when the reduction is off. *)
type tables = {
  members : int array array;
  moves : bool array;
  invisible : bool array;
}

let tables (m : Machine.t) ~por =
  let ns = Array.length m.states and np = m.nphases in
  let desc = List.init ns (fun i -> ns - 1 - i) in
  {
    members =
      Array.init (np + 1) (fun ph ->
          Array.of_list
            (List.filter (fun i -> ph = np || m.phase_of.(i) = ph) desc));
    moves = Array.map Option.is_some m.sugg_id;
    invisible =
      Array.init (np * ns) (fun x ->
          por && Por.invisible m ~ph:(x / ns) (x mod ns));
  }

(* One scenario: BFS the product with [n] seats, one seat optionally
   running the deviation. [job.targets] marks states whose suggested
   action the deviation targets; [job.covered] marks states whose deviant
   execution deposits checkpoint evidence; [job.stall] models omission
   (the targeted step never completes, blocking the phase barrier).
   [codec] lays out the keys; [tb] holds the call's tables; [audit] checks
   every rewritten key against a fresh packing of the successor and
   against a structural map of the stored states. Returns the job's
   result, its frontier peak and the states its seats occupied.

   A state is expanded straight from its key: its header and the counts
   of the open phase's states are decoded once (no other count is read),
   the deviant's targeted step and the checkpoint are tallied, then each
   successor key is the parent's words with one or two lanes rewritten.
   Successors are visited checkpoint first, then faithful classes from
   the highest index down, then the deviant: that order fixes BFS
   insertion order, and with it every witness, finding and frontier peak
   the reports print. *)
let run_scenario (m : Machine.t) tb codec ~audit ~obs ~bound ~n ~initial ~run
    st (job : Scenario.job) =
  let ns = Array.length m.states and np = m.nphases in
  let depth_hist =
    match Obs.metrics obs with
    | None -> None
    | Some reg -> Some (Metrics.histogram reg "explore.depth")
  in
  let tally = Scenario.tally m ~run in
  let covered_mark = Array.make ns false in
  let moves = tb.moves and invisible = tb.invisible in
  store_reset st;
  let w = st.w in
  (* edge codes: [i] a faithful step from class [i], [ns + i] the
     deviant's step from [i], [2 ns + p] phase [p]'s checkpoint *)
  let label e =
    if e < ns then Option.value ~default:"" m.sugg_id.(e)
    else if e < 2 * ns then m.dev_lbl.(e - ns)
    else m.cp_lbl.(e - (2 * ns))
  in
  let witness_of i =
    let rec climb i acc fuel =
      if fuel = 0 then "…" :: acc
      else if st.parent.(i) < 0 then acc
      else climb st.parent.(i) (label st.edge.(i) :: acc) (fuel - 1)
    in
    String.concat " ; " (climb i [] 14)
  in
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
  reserve st;
  Sp.pack codec s0 st.keys 0;
  ignore (intern st);
  st.depth.(0) <- 0;
  st.parent.(0) <- -1;
  st.edge.(0) <- -1;
  if s0.Sp.dev >= 0 then covered_mark.(s0.Sp.dev) <- true;
  Array.iteri (fun i c -> if c > 0 then covered_mark.(i) <- true) s0.Sp.cnt;
  (* the state being expanded: its index, depth, decoded header and the
     counts of the open phase's states, and the masks its deviant step
     would leave *)
  let cur = ref 0 and cur_d = ref 0 in
  let hd = Array.make 4 0 and cnt = Array.make ns 0 in
  let dv_acted = ref 0 and dv_evid = ref 0 in
  let head = ref 0 and frontier_max = ref 0 and progress = ref 0 in
  (* The audit's structural side: the true state of every stored index,
     stepped record by record from [s0], never decoded from a key, and
     the true successor the scratch key was last checked against. *)
  let truth = ref (if audit then Array.make 256 s0 else [||]) in
  let audited = ref s0 and fresh = Array.make w 0 in
  let collide a b = raise (Sp.Collision (Sp.structural a, Sp.structural b)) in
  let same a b = String.equal (Sp.structural a) (Sp.structural b) in
  (* the scratch key must be the fresh packing of the true successor
     through edge [e] to [dst] *)
  let audit_scratch e dst =
    let s = !truth.(!cur) in
    let t =
      if e < ns then begin
        let cnt = Array.copy s.Sp.cnt in
        cnt.(e) <- cnt.(e) - 1;
        cnt.(dst) <- cnt.(dst) + 1;
        { s with Sp.cnt }
      end
      else if e < 2 * ns then
        { s with Sp.dev = dst; acted = !dv_acted; evid = !dv_evid }
      else { s with Sp.ph = s.Sp.ph + 1 }
    in
    Sp.pack codec t fresh 0;
    for j = 0 to w - 1 do
      if fresh.(j) <> st.keys.((st.count * w) + j) then
        collide (Sp.unpack codec st.keys (st.count * w)) t
    done;
    audited := t
  in
  (* the scratch key holds the successor through edge [e] to [dst] *)
  let commit e dst =
    incr progress;
    if audit then audit_scratch e dst;
    let found = intern st in
    if found >= 0 then begin
      if audit && not (same !truth.(found) !audited) then
        collide !truth.(found) !audited
    end
    else begin
      let i = st.count - 1 and d = !cur_d + 1 in
      st.depth.(i) <- d;
      st.parent.(i) <- !cur;
      st.edge.(i) <- e;
      if audit then begin
        if i >= Array.length !truth then
          truth := Array.append !truth (Array.make (Array.length !truth) s0);
        !truth.(i) <- !audited
      end;
      (match depth_hist with
      | None -> ()
      | Some h -> Metrics.observe h (float_of_int d));
      if dst >= 0 then covered_mark.(dst) <- true;
      if st.count - !head > !frontier_max then
        frontier_max := st.count - !head
    end
  in
  (* copy the expanded state's key into the scratch slot *)
  let scratch () =
    reserve st;
    let keys = st.keys and src = !cur * w and dst = st.count * w in
    for j = 0 to w - 1 do
      keys.(dst + j) <- keys.(src + j)
    done;
    dst
  in
  let reentry ph dst =
    dst >= 0 && m.phase_of.(dst) >= 0 && m.phase_of.(dst) < min ph np
  in
  let truncated = ref false in
  while (not !truncated) && !head < st.count do
    if st.count > bound then truncated := true
    else begin
      let i0 = !head in
      incr head;
      cur := i0;
      let d = st.depth.(i0) in
      cur_d := d;
      progress := 0;
      (* Frontier-size counter track, sampled every 256 expansions. *)
      if Obs.enabled obs && st.count land 255 = 0 then
        Obs.sample obs "explore.frontier" (float_of_int (st.count - !head));
      Sp.unpack_header codec st.keys (i0 * w) hd;
      let dev = hd.(0) and ph = hd.(1) and acted = hd.(2) and evid = hd.(3) in
      let members = tb.members.(ph) in
      for k = 0 to Array.length members - 1 do
        let i = members.(k) in
        cnt.(i) <- Sp.count codec st.keys (i0 * w) i
      done;
      if audit then begin
        let s = Sp.unpack codec st.keys (i0 * w) in
        if not (same s !truth.(i0)) then collide s !truth.(i0)
      end;
      (* the deviant's step, tallied before any successor is visited *)
      let dv_dst =
        if dev >= 0 && (ph >= np || m.phase_of.(dev) = ph) && moves.(dev)
        then begin
          let is_t = job.targets.(dev) in
          if job.stall && is_t then (* omission: the step never completes *)
            -1
          else begin
            let pbit = if ph < np then ph else max 0 (np - 1) in
            dv_acted := (if is_t then acted lor (1 lsl pbit) else acted);
            dv_evid :=
              (if is_t && job.covered.(dev) then evid lor (1 lsl pbit)
               else evid);
            if is_t then Scenario.act tally ~pbit ~depth:(d + 1);
            m.dst_of.(dev)
          end
        end
        else -1
      in
      (* checkpoint: fires exactly when nobody remains inside the phase *)
      let checkpoint =
        ph < np
        && (not (dev >= 0 && m.phase_of.(dev) = ph))
        &&
        let inside = ref false in
        for k = 0 to Array.length members - 1 do
          if cnt.(members.(k)) > 0 then inside := true
        done;
        not !inside
      in
      if
        checkpoint
        && Scenario.checkpoint tally m ~ph ~acted ~evid ~depth:(d + 1)
      then Scenario.escape tally m ~ph (witness_of i0);
      if checkpoint then begin
        let off = scratch () in
        Sp.set_phase codec st.keys off (ph + 1);
        commit ((2 * ns) + ph) (-1)
      end;
      (* faithful class moves (symmetry: one per occupied chain state),
         POR-pruned to the lowest invisible class when the guard holds *)
      let pick = ref (-1) in
      if ph < np then
        for k = 0 to Array.length members - 1 do
          let i = members.(k) in
          if cnt.(i) > 0 && invisible.((ph * ns) + i) then pick := i
        done;
      for k = 0 to Array.length members - 1 do
        let i = members.(k) in
        if cnt.(i) > 0 && moves.(i) then begin
          let inv = !pick >= 0 && invisible.((ph * ns) + i) in
          if (not inv) || i = !pick then begin
            let dst = m.dst_of.(i) in
            if reentry ph dst then begin
              incr progress;
              Scenario.reentry tally m ~lbl:(label i) ~dst
            end
            else if dst <> i then begin
              let off = scratch () in
              Sp.move codec st.keys off ~src:i ~dst;
              commit i dst
            end
          end
        end
      done;
      if dv_dst >= 0 then begin
        if reentry ph dv_dst then begin
          incr progress;
          Scenario.reentry tally m ~lbl:m.dev_lbl.(dev) ~dst:dv_dst
        end
        else if dv_dst <> dev || !dv_acted <> acted || !dv_evid <> evid
        then begin
          let off = scratch () in
          Sp.step_dev codec st.keys off ~dev:dv_dst ~acted:!dv_acted
            ~evid:!dv_evid;
          commit (ns + dev) dv_dst
        end
      end;
      (* deadlock: the current phase can never reach its certifier *)
      if !progress = 0 && ph < np then
        Scenario.deadlock tally m job ~ph ~dev ~depth:(d + 1)
    end
  done;
  ( Scenario.result tally ~truncated:!truncated ~states:st.count,
    !frontier_max,
    covered_mark )

type search = {
  results : Scenario.result list;
  covered : bool array;
  frontier_peak : int;
  domains : int;
}

let search ?(bound = 50_000) ?(obs = Obs.noop) ?(por = true) ?(domains = 0)
    ?(audit = false) ?(run = "run") (m : Machine.t) (plan : Scenario.plan)
    ~seats =
  let ns = Array.length m.states in
  match m.initial with
  | Some initial when m.nphases <= Sp.max_phases ->
      let codec = Sp.make ~ns ~n:seats ~nphases:m.nphases in
      let tb = tables m ~por:(por && Por.active m) in
      let shapes, shape_of = Scenario.distinct plan in
      (* Tracing sinks are not thread-safe, so an enabled obs pins the
         fan-out to one domain; results are merged in job order either
         way, so the outcome is identical. *)
      let dom =
        if Obs.enabled obs then 1
        else
          let req = if domains <= 0 then Pool.default_domains () else domains in
          max 1 (min req (List.length shapes))
      in
      let exec st (job : Scenario.job) =
        Obs.span obs ~cat:"speccheck"
          ~args:[ ("scenario", Json.String job.Scenario.label) ]
          "explore.scenario"
          (fun () ->
            run_scenario m tb codec ~audit ~obs ~bound ~n:seats ~initial ~run
              st job)
      in
      (* one search per job shape, handed to every job of that shape *)
      let searched =
        Array.of_list
          (Pool.map ~domains:dom
             ~init:(fun () -> store_create (Sp.words codec))
             exec shapes)
      in
      let covered = Array.make ns false and peak = ref 0 in
      Array.iter
        (fun (_, frontier, c) ->
          peak := max !peak frontier;
          Array.iteri (fun i b -> if b then covered.(i) <- true) c)
        searched;
      {
        results =
          Array.to_list
            (Array.map
               (fun k ->
                 let r, _, _ = searched.(k) in
                 r)
               shape_of);
        covered;
        frontier_peak = !peak;
        domains = dom;
      }
  | _ ->
      (* no seed configuration, or more phases than a key holds *)
      let cut =
        Scenario.result (Scenario.tally m ~run) ~truncated:true ~states:0
      in
      {
        results = List.map (fun _ -> cut) plan.Scenario.jobs;
        covered = Array.make ns false;
        frontier_peak = 0;
        domains = 1;
      }

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
  | Some _ ->
      let plan = Scenario.make m ir ~graph ~adversary in
      let njobs = List.length plan.Scenario.jobs in
      let s =
        search ~bound ~obs ~por ~domains ~audit m plan ~seats:(G.n graph)
      in
      let verdicts =
        List.map
          (fun ((e : Scenario.entry), v) -> (e.Scenario.dev, of_scenario v))
          (Scenario.verdicts plan ~product:"explored" s.results)
      in
      if m.nphases > Sp.max_phases then
        (* Every label that needs a search was cut before it started. *)
        skipped verdicts
          ({
             Check.id = "exploration-truncated";
             severity = Check.Warning;
             location = ir.Ir.name;
             message =
               Printf.sprintf
                 "the spec has %d phases but packed product-state keys hold \
                  at most %d (one acted and one evidence bit per phase); \
                  exploration skipped, every searched deviation is truncated"
                 m.nphases Sp.max_phases;
           }
          :: List.filter_map
               (function
                 | lbl, Undetected { witness } -> Some (undetected lbl witness)
                 | _ -> None)
               verdicts)
      else begin
        (* deterministic merge, in job (= label) order *)
        let findings = ref [] in
        let seen = Hashtbl.create 16 in
        let add (f : Check.finding) =
          if not (Hashtbl.mem seen (f.Check.id, f.Check.location)) then begin
            Hashtbl.add seen (f.Check.id, f.Check.location) ();
            findings := f :: !findings
          end
        in
        let states_total = ref 0 in
        List.iter
          (fun (r : Scenario.result) ->
            states_total := !states_total + r.Scenario.states;
            List.iter add r.Scenario.findings)
          s.results;
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
        List.iter add (Scenario.unexplored m ~product:"explored" s.covered);
        let covered_states =
          List.filteri (fun i _ -> s.covered.(i)) (Array.to_list m.states)
        in
        let elapsed_s = Clock.s_since t0 in
        if Obs.enabled obs then
          Obs.instant obs ~cat:"speccheck"
            ~args:
              [
                ("states", Json.Int !states_total);
                ("scenarios", Json.Int njobs);
                ("frontier_peak", Json.Int s.frontier_peak);
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
              frontier_peak = s.frontier_peak;
              scenarios = njobs;
              truncated =
                List.exists
                  (fun (_, v) -> match v with Truncated -> true | _ -> false)
                  verdicts;
              elapsed_s;
              por;
              domains = s.domains;
            };
        }
      end
