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

(* ---- the two-seat abstract machine --------------------------------------

   [Explore] runs the n-seat product; here we run its abstraction over the
   same [Machine] table and [Scenario] plan: the deviant seat plus ONE
   faithful representative (faithful seats are symmetric, so one
   representative preserves barrier structure, escape possibility, and
   stall wedges, while depths only shrink — the frontier soundness
   argument of DESIGN.md §17). *)

(* An abstract state is the tuple (dev, f, ph, acted, evid): the deviant
   seat's chain position (-1 = no deviant in this job), the faithful
   representative's position, the phase cursor, and the §4.3 acted/evid
   bitsets. It is packed into an immediate int when the layout fits one
   word (it always does for catalogue-sized IRs); otherwise the rendered
   key is interned. *)
let fits_int ~ns ~nphases =
  let shift = 2 * nphases in
  shift < 60
  &&
  let span = (ns + 2) * (ns + 2) * (nphases + 2) in
  span > 0 && span <= max_int asr shift

let pack_int ~ns ~nphases dev f ph acted evid =
  let pos = (((dev + 1) * (ns + 2)) + f + 1) * (nphases + 2) in
  ((pos + ph) lsl (2 * nphases)) lor (acted lsl nphases) lor evid

(* fallback for IRs past the int-packing envelope: render the state and
   intern the string to a dense int key, so the runner stays int-keyed *)
let pack_interned () =
  let intern = Hashtbl.create 64 in
  let next = ref 0 in
  fun dev f ph acted evid ->
    let s = Printf.sprintf "%d/%d/%d/%d/%d" dev f ph acted evid in
    match Hashtbl.find_opt intern s with
    | Some i -> i
    | None ->
        let i = !next in
        incr next;
        Hashtbl.add intern s i;
        i

(* A small open-addressed int set: the visited table is the hottest
   structure in the abstract BFS, and Hashtbl's bucket lists cost an
   allocation per insert. Keys are the packed states, always >= 0, so
   -1 marks an empty slot. Linear probing at <= 50% load. *)
module Intset = struct
  type t = { mutable slots : int array; mutable used : int }

  let create () = { slots = Array.make 128 (-1); used = 0 }

  (* make the set empty again without losing the allocation; a set that
     ballooned in one job is shrunk back so later resets stay cheap *)
  let reset t =
    if Array.length t.slots > 4096 then t.slots <- Array.make 128 (-1)
    else Array.fill t.slots 0 (Array.length t.slots) (-1);
    t.used <- 0

  let mix k =
    let h = k * 0x9E3779B97F4A7C1 in
    h lxor (h lsr 29)

  let slot_of slots k =
    let mask = Array.length slots - 1 in
    let i = ref (mix k land mask) in
    while
      let s = slots.(!i) in
      s <> -1 && s <> k
    do
      i := (!i + 1) land mask
    done;
    !i

  let grow t =
    let old = t.slots in
    t.slots <- Array.make (2 * Array.length old) (-1);
    Array.iter
      (fun k -> if k >= 0 then t.slots.(slot_of t.slots k) <- k)
      old

  (* membership test and insert in one probe; true when k was absent *)
  let add t k =
    let i = slot_of t.slots k in
    if t.slots.(i) = k then false
    else begin
      t.slots.(i) <- k;
      t.used <- t.used + 1;
      if 2 * t.used >= Array.length t.slots then grow t;
      true
    end
end

(* Per-run scratch shared across jobs: the visited set and the frontier
   block survive from scenario to scenario (a reset instead of a fresh
   allocation each), and the coverage marks accumulate monotonically
   across every job of the run. *)
type scratch = {
  sc_visited : Intset.t;
  mutable sc_q : int array;
  sc_covered : bool array;
  sc_no_parent : (int, int * string) Hashtbl.t;
      (* shared read-only stand-in for the parent table on untracked runs *)
}

let scratch_create ns =
  {
    sc_visited = Intset.create ();
    sc_q = Array.make (64 * 8) 0;
    sc_covered = Array.make ns false;
    sc_no_parent = Hashtbl.create 1;
  }

(* [track] keeps the parent table needed to print an escape witness.
   The fast path skips it (one table write per state saved); [run] only
   re-runs with tracking when an escape actually fired, which is rare —
   never on a frontier-sound spec.

   The BFS is deliberately allocation-free in the hot loop: keys are
   native ints ([pack_int], or interned strings on oversized IRs), and
   the frontier lives in one flat growable int block (key, depth, and
   the five state fields) instead of a queue of records — a new state
   costs a handful of array writes, a revisit costs one table probe. *)
let run_ascenario (m : Machine.t)
    ~(encode : int -> int -> int -> int -> int -> int) ~bound ~initial ~track
    ~scratch (job : Scenario.job) =
  (* the common packed-int case is inlined at the push site (the indirect
     call through [encode] is measurable there); the constants must mirror
     [pack_int] exactly so the cold paths that still call [encode] agree *)
  let use_pack = fits_int ~ns:(Array.length m.states) ~nphases:m.nphases in
  let mns = Array.length m.states + 2 in
  let mnp = m.nphases + 2 in
  let npb = m.nphases in
  let shift = 2 * m.nphases in
  let tally = Scenario.tally m ~run:"abstract run" in
  let truncated = ref false in
  let covered_mark = scratch.sc_covered in
  let visited = scratch.sc_visited in
  Intset.reset visited;
  let parent =
    if track then Hashtbl.create 64 else scratch.sc_no_parent
  in
  (* the BFS frontier, one flat stride-8 block per slot: key, depth and
     the five state fields (slot 7 is padding to keep the stride a power
     of two). One array means one allocation and one bounds base; the
     block survives in the scratch from job to job. *)
  let q = ref scratch.sc_q in
  let cap = ref (Array.length !q / 8) in
  let count = ref 0 in
  let head = ref 0 in
  let enqueue k d dev f ph acted evid =
    if !count = !cap then begin
      let nc = 2 * !cap in
      let b = Array.make (nc * 8) 0 in
      Array.blit !q 0 b 0 (!cap * 8);
      q := b;
      cap := nc
    end;
    let a = !q in
    let b = !count * 8 in
    a.(b) <- k; a.(b + 1) <- d; a.(b + 2) <- dev; a.(b + 3) <- f;
    a.(b + 4) <- ph; a.(b + 5) <- acted; a.(b + 6) <- evid;
    incr count
  in
  let witness_of k =
    if not track then "(witness elided on the fast pass)"
    else
      let rec climb k acc fuel =
        if fuel = 0 then "…" :: acc
        else
          match Hashtbl.find_opt parent k with
          | None -> acc
          | Some (pk, lbl) -> climb pk (lbl :: acc) (fuel - 1)
      in
      String.concat " ; " (climb k [] 14)
  in
  let mark dev f =
    if dev >= 0 then covered_mark.(dev) <- true;
    covered_mark.(f) <- true
  in
  let dev0 = if job.has_deviant then initial else -1 in
  let k0 = encode dev0 initial 0 0 0 in
  ignore (Intset.add visited k0);
  mark dev0 initial;
  enqueue k0 0 dev0 initial 0 0 0;
  (* the pop cursor lives in refs shared with [push], so the closure is
     allocated once per job instead of once per popped state *)
  let cur_k = ref 0 in
  let cur_d = ref 0 in
  let cur_ph = ref 0 in
  let progress = ref 0 in
  (* successors are delivered inline: dedup, reentry pruning and
     progress counting happen at the push site *)
  let push ndev nf nph nacted nevid lbl dst =
    let reentry =
      dst >= 0
      && m.phase_of.(dst) >= 0
      && m.phase_of.(dst) < min !cur_ph m.nphases
    in
    if reentry then begin
      incr progress;
      Scenario.reentry tally m ~lbl ~dst
    end
    else begin
      let k' =
        if use_pack then
          ((((ndev + 1) * mns) + nf + 1) * mnp + nph) lsl shift
          lor (nacted lsl npb) lor nevid
        else encode ndev nf nph nacted nevid
      in
      if k' <> !cur_k then incr progress;
      if Intset.add visited k' then begin
        if track then Hashtbl.replace parent k' (!cur_k, lbl);
        mark ndev nf;
        enqueue k' (!cur_d + 1) ndev nf nph nacted nevid
      end
    end
  in
  let continue = ref true in
  while !continue && !head < !count do
    if !count > bound then begin
      truncated := true;
      continue := false
    end
    else begin
      let a = !q in
      let b = !head * 8 in
      incr head;
      let k = a.(b) and d = a.(b + 1) in
      let dev = a.(b + 2) and f = a.(b + 3) and ph = a.(b + 4) in
      let s_acted = a.(b + 5) and s_evid = a.(b + 6) in
      cur_k := k;
      cur_d := d;
      cur_ph := ph;
      progress := 0;
      (* deviant move *)
      (if dev >= 0 && (ph >= m.nphases || m.phase_of.(dev) = ph) then
         match m.sugg_id.(dev) with
         | None -> ()
         | Some _aid ->
             let is_t = job.targets.(dev) in
             if job.stall && is_t then ()
             else begin
               let pbit =
                 if ph < m.nphases then ph else max 0 (m.nphases - 1)
               in
               (* Evidence bits are only ever read by the *current* phase's
                  checkpoint, so bits set in the coda (no checkpoint left)
                  would inflate state identity without changing any future
                  read.  Dropping them merges histories exactly. *)
               let in_phase = ph < m.nphases in
               let acted =
                 if is_t && in_phase then s_acted lor (1 lsl pbit) else s_acted
               in
               let evid =
                 if is_t && in_phase && job.covered.(dev) then
                   s_evid lor (1 lsl pbit)
                 else s_evid
               in
               if is_t then Scenario.act tally ~pbit ~depth:(d + 1);
               push m.dst_of.(dev) f ph acted evid m.dev_lbl.(dev)
                 m.dst_of.(dev)
             end);
      (* the faithful representative's move *)
      (if ph >= m.nphases || m.phase_of.(f) = ph then
         match m.sugg_id.(f) with
         | None -> ()
         | Some aid -> push dev m.dst_of.(f) ph s_acted s_evid aid m.dst_of.(f));
      (* checkpoint: fires exactly when nobody remains inside the phase *)
      if ph < m.nphases then begin
        let someone_inside =
          (dev >= 0 && m.phase_of.(dev) = ph) || m.phase_of.(f) = ph
        in
        if not someone_inside then begin
          if
            Scenario.checkpoint tally m ~ph ~acted:s_acted ~evid:s_evid
              ~depth:(d + 1)
          then Scenario.escape tally m ~ph (witness_of k);
          (* Bits from phases <= ph are dead once this checkpoint has
             fired (each phase's bit is read exactly once, here), so the
             successor enters the next phase with cleared bitsets —
             merging all same-position histories into one state. *)
          push dev f (ph + 1) 0 0 m.cp_lbl.(ph) (-1)
        end
      end;
      (* deadlock: the current phase can never reach its certifier *)
      if !progress = 0 && ph < m.nphases then
        Scenario.deadlock tally m job ~ph ~dev ~depth:(d + 1)
    end
  done;
  scratch.sc_q <- !q;
  Scenario.result tally ~truncated:!truncated ~states:!count

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
  let ns = Array.length m.states in
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
  | Some initial ->
      let plan = Scenario.make m ir ~graph ~adversary in
      let encode =
        if fits_int ~ns ~nphases:m.nphases then pack_int ~ns ~nphases:m.nphases
        else pack_interned ()
      in
      let scratch = scratch_create ns in
      (* Distinct deviation labels frequently target the same action set,
         and the abstract runner's result only depends on the job's
         [Scenario.shape]. Identical shapes therefore share one
         exploration, but only a clean result (no escape, no findings,
         not truncated) is shared: every job whose search reports
         something runs its own. *)
      let shared = Hashtbl.create 16 in
      let exec (job : Scenario.job) =
        Obs.span obs ~cat:"speccheck"
          ~args:[ ("scenario", Json.String job.label) ]
          "absint.frontier"
          (fun () ->
            let key = Scenario.shape plan job in
            match Hashtbl.find_opt shared key with
            | Some o -> o
            | None ->
                let go ~track =
                  run_ascenario m ~encode ~bound ~initial ~track ~scratch job
                in
                (* fast pass without parent tracking; only an escape needs
                   a witness chain, so only then pay for the tracked
                   re-run *)
                let o = go ~track:false in
                let o = if o.escape = None then o else go ~track:true in
                if o.escape = None && o.findings = [] && not o.truncated then
                  Hashtbl.add shared key o;
                o)
      in
      let outs = List.map exec plan.Scenario.jobs in
      let covered_mark = scratch.sc_covered in
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
        outs;
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
          (Scenario.verdicts plan ~product:"abstract" outs)
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
          | Struncated ->
              add_finding Check.Warning "analysis-truncated"
                (Dev.to_string fr.fr_dev)
                (Printf.sprintf
                   "the %d-state bound ran out while abstracting %S: its \
                    static verdict is unknown"
                   bound
                   (Dev.to_string fr.fr_dev))
          | Scertified _ | Sexempt _ -> ())
        frontier;
      List.iter add (Scenario.unexplored m ~product:"abstract" covered_mark);
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
