module Action = Damd_core.Action
module G = Damd_graph.Graph

type job = {
  label : string;
  has_deviant : bool;
  stall : bool;
  targets : bool array;
  covered : bool array;
  faithful : bool;
}

type verdict =
  | Detected of { depth : int; certifier : string option; phase : int }
  | Undetected of { witness : string }
  | Exempt of { reason : string }
  | Truncated

type run =
  | Settled of verdict
  | Jobs of { jobs : job list; exposed : (int * int) option }

type entry = { dev : Dev.t; actions : Ir.action list; run : run }

type plan = {
  entries : entry list;
  jobs : job list;
  cov_honest : bool array;
  cov_isolated : bool array;
}

let dev_compare a b = String.compare (Dev.to_string a) (Dev.to_string b)

(* The computations a coalition can shield: mirrored and digested, and
   targeted by some principal-side deviation. *)
let coalition_shield (a : Ir.action) =
  a.Ir.cls = Some Action.Computation
  && a.Ir.mirrored && a.Ir.digested
  && List.exists
       (fun d -> d <> Dev.Lying_checker && d <> Dev.Collude_with)
       a.Ir.deviations

let make (m : Machine.t) (ir : Ir.t) ~graph ~adversary =
  let n = G.n graph in
  let target_mask = Machine.target_masks m in
  let cov_honest = Machine.coverage_mask m ~honest:true in
  let cov_isolated = Machine.coverage_mask m ~honest:false in
  let seat_jobs ~stall name targets honesties =
    List.map
      (fun honest ->
        {
          label =
            Printf.sprintf "%s[%s]" name
              (if honest then "honest-nbrs" else "isolated");
          has_deviant = true;
          stall;
          targets;
          covered = (if honest then cov_honest else cov_isolated);
          faithful = false;
        })
      honesties
  in
  (* The abstract model forgets seat identity except through the honesty
     of the deviant's checker neighborhood, so seats sharing an honesty
     value share one job — the sweep is still exhaustive over seats
     because every seat maps into one of the explored classes. *)
  let honesties =
    List.sort_uniq Bool.compare (List.init n (fun i -> G.degree graph i > 0))
  in
  (* per-label targeting actions, one pass over the declared actions *)
  let acting = Hashtbl.create 32 in
  List.iter
    (fun (a : Ir.action) ->
      List.iter
        (fun d ->
          Hashtbl.replace acting d
            (a :: Option.value ~default:[] (Hashtbl.find_opt acting d)))
        a.Ir.deviations)
    ir.Ir.actions;
  let acting d = Option.value ~default:[] (Hashtbl.find_opt acting d) in
  (* Collude-with: the principal deviates on a mirrored computation while
     the colluding checker vouches for it; detection needs some *other*
     honest checker in the principal's neighborhood, so the honesty class
     of the pair (p, c) is "p has a neighbor besides c". *)
  let collude = function
    | [] ->
        Settled
          (Undetected
             {
               witness =
                 "no mirrored computation exists for the coalition to \
                  shield, so the coalition case analysis is vacuous";
             })
    | _ ->
        let pairs =
          List.concat
            (List.init n (fun p ->
                 List.map (fun c -> (p, c)) (G.neighbors graph p)))
        in
        let honest_of (p, c) =
          List.exists (fun nb -> nb <> c) (G.neighbors graph p)
        in
        Jobs
          {
            jobs =
              seat_jobs ~stall:false
                (Dev.to_string Dev.Collude_with)
                (Array.map
                   (function Some a -> coalition_shield a | None -> false)
                   m.Machine.action_of)
                (List.sort_uniq Bool.compare (List.map honest_of pairs));
            exposed = List.find_opt (fun pc -> not (honest_of pc)) pairs;
          }
  in
  let entry dev =
    let actions =
      if dev = Dev.Collude_with then List.filter coalition_shield ir.Ir.actions
      else acting dev
    in
    let run =
      match List.assoc_opt dev Machine.exemptions with
      | Some reason -> Settled (Exempt { reason })
      | None when dev = Dev.Collude_with -> collude actions
      | None when actions = [] ->
          Settled
            (Undetected
               {
                 witness =
                   "no catalogue action targets this deviation, so the \
                    section-4.3 case analysis cannot place it";
               })
      | None ->
          Jobs
            {
              jobs =
                seat_jobs
                  ~stall:(dev = Dev.Silent_in_construction)
                  (Dev.to_string dev) (target_mask dev) honesties;
              exposed = None;
            }
    in
    { dev; actions; run }
  in
  let entries =
    List.map entry
      (List.sort_uniq dev_compare
         (List.filter (fun d -> d <> Dev.Faithful) adversary))
  in
  let no_targets = Array.make (Array.length m.Machine.states) false in
  (* the all-faithful product run: no-false-accusation + progress *)
  let faithful =
    {
      label = "all-faithful";
      has_deviant = false;
      stall = false;
      targets = no_targets;
      covered = no_targets;
      faithful = true;
    }
  in
  {
    entries;
    jobs =
      List.concat_map
        (fun e -> match e.run with Settled _ -> [] | Jobs j -> j.jobs)
        entries
      @ [ faithful ];
    cov_honest;
    cov_isolated;
  }

(* ---- one search per job shape ---- *)

(* Everything a search of [job] reads: the label only names it. The
   coverage mask is always one of the plan's two shared arrays or the
   all-faithful job's all-false one, so physical identity names it. *)
let shape plan job =
  let ns = Array.length job.targets in
  let flag v = if v then '\001' else '\000' in
  let b = Bytes.create (ns + 4) in
  Array.iteri (fun i t -> Bytes.set b i (flag t)) job.targets;
  Bytes.set b ns
    (if job.covered == plan.cov_honest then '\001'
     else if job.covered == plan.cov_isolated then '\002'
     else '\000');
  Bytes.set b (ns + 1) (flag job.stall);
  Bytes.set b (ns + 2) (flag job.has_deviant);
  Bytes.set b (ns + 3) (flag job.faithful);
  Bytes.unsafe_to_string b

let distinct plan =
  let seen = Hashtbl.create 16 in
  let reps = ref [] in
  let of_job = Array.make (List.length plan.jobs) 0 in
  List.iteri
    (fun j job ->
      let key = shape plan job in
      of_job.(j) <-
        (match Hashtbl.find_opt seen key with
        | Some r -> r
        | None ->
            let r = Hashtbl.length seen in
            Hashtbl.add seen key r;
            reps := job :: !reps;
            r))
    plan.jobs;
  (List.rev !reps, of_job)

(* ---- what one job's search records ---- *)

type result = {
  escape : string option;
  timeout : int option;
  lag : int;
  certifier : string option;
  cert_phase : int;
  acted : bool;
  truncated : bool;
  states : int;
  findings : Check.finding list;
}

type tally = {
  run_noun : string;
  first_act : int array;  (* per phase: earliest targeted deviant step *)
  last_cert : int array;  (* per phase: latest certifying checkpoint *)
  rule : string option array;  (* its certifier *)
  mutable escaped : string option;
  mutable stalled : int option;
  mutable ever_acted : bool;
  mutable found : Check.finding list;  (* newest first, repeats kept *)
}

let tally (m : Machine.t) ~run =
  let np = max 1 m.Machine.nphases in
  {
    run_noun = run;
    first_act = Array.make np max_int;
    last_cert = Array.make np (-1);
    rule = Array.make np None;
    escaped = None;
    stalled = None;
    ever_acted = false;
    found = [];
  }

let add_error t id location message =
  t.found <- Check.error id location message :: t.found

let act t ~pbit ~depth =
  t.ever_acted <- true;
  if depth < t.first_act.(pbit) then t.first_act.(pbit) <- depth

let checkpoint t (m : Machine.t) ~ph ~acted ~evid ~depth =
  let bit = 1 lsl ph in
  acted land bit <> 0
  &&
  match m.Machine.certifiers.(ph) with
  | Some rule when evid land bit <> 0 ->
      if depth > t.last_cert.(ph) then begin
        t.last_cert.(ph) <- depth;
        t.rule.(ph) <- Some rule
      end;
      false
  | _ -> t.escaped = None

let escape t (m : Machine.t) ~ph trace =
  t.escaped <-
    Some (trace ^ " ; [green-light " ^ m.Machine.phase_names.(ph) ^ "]")

let reentry t (m : Machine.t) ~lbl ~dst =
  add_error t "phase-reentry" lbl
    (Printf.sprintf
       "step %S re-enters phase %S after its checkpoint certified: \
        post-certification play can rewrite what the bank already green-lit"
       lbl
       m.Machine.phase_names.(m.Machine.phase_of.(dst)))

let deadlock t (m : Machine.t) job ~ph ~dev ~depth =
  let stalling =
    dev >= 0 && job.stall
    && m.Machine.phase_of.(dev) = ph
    && job.targets.(dev)
    && m.Machine.sugg_id.(dev) <> None
  in
  let phase = m.Machine.phase_names.(ph) in
  if stalling then (
    match t.stalled with
    | Some s when s >= depth -> ()
    | _ -> t.stalled <- Some depth)
  else if job.faithful then
    add_error t "false-accusation" phase
      (Printf.sprintf
         "the all-faithful %s deadlocks inside phase %S: the bank's progress \
          timeout would punish nodes that followed the suggested play to the \
          letter"
         t.run_noun phase)
  else
    add_error t "certifier-unreachable" phase
      (Printf.sprintf
         "phase %S can deadlock before its certifier runs: a deviation inside \
          it is never surfaced at a checkpoint"
         phase)

let result t ~truncated ~states =
  let lag = ref (-1) and certifier = ref None and cert_phase = ref (-1) in
  Array.iteri
    (fun p cert ->
      if cert >= 0 && t.first_act.(p) < max_int then begin
        let l = cert - t.first_act.(p) in
        if l > !lag then begin
          lag := l;
          certifier := t.rule.(p);
          cert_phase := p
        end
      end)
    t.last_cert;
  {
    escape = t.escaped;
    timeout = t.stalled;
    lag = !lag;
    certifier = !certifier;
    cert_phase = !cert_phase;
    acted = t.ever_acted;
    truncated;
    states;
    findings = Check.dedup (List.rev t.found);
  }

(* ---- folding job results back into per-label verdicts ---- *)

let unexplored (m : Machine.t) ~product covered =
  List.concat
    (List.mapi
       (fun i occupied ->
         if occupied then []
         else
           let s = m.Machine.states.(i) in
           [
             Check.error "unexplored-state" s
               (Printf.sprintf
                  "state %S is never occupied by any node in any %s product \
                   execution: it cannot participate in the certified protocol"
                  s product);
           ])
       (Array.to_list covered))

let fold ~product rs =
  if List.exists (fun r -> r.truncated) rs then Truncated
  else
    match List.find_map (fun r -> r.escape) rs with
    | Some witness -> Undetected { witness }
    | None -> (
        match List.find_opt (fun r -> r.lag < 0 && r.timeout = None) rs with
        | Some r ->
            Undetected
              {
                witness =
                  (if r.acted then
                     "the deviation occurs but no certification event ever \
                      follows it"
                   else
                     Printf.sprintf
                       "the targeted action never executes in the %s product"
                       product);
              }
        | None ->
            let depth, certifier, phase =
              List.fold_left
                (fun (d0, c0, p0) r ->
                  let d, c, p =
                    if r.lag >= 0 then (r.lag, r.certifier, r.cert_phase)
                    else (Option.get r.timeout, None, -1)
                  in
                  if d > d0 then (d, c, p) else (d0, c0, p0))
                (-1, None, -1) rs
            in
            Detected { depth; certifier; phase })

let verdicts plan ~product results =
  let results = Array.of_list results and next = ref 0 in
  let take k =
    let l = List.init k (fun j -> results.(!next + j)) in
    next := !next + k;
    l
  in
  List.map
    (fun e ->
      match e.run with
      | Settled v -> (e, v)
      | Jobs { jobs; exposed } -> (
          match (fold ~product (take (List.length jobs)), exposed) with
          | Undetected { witness }, Some (p, c) ->
              ( e,
                Undetected
                  {
                    witness =
                      Printf.sprintf
                        "%s [principal %d, colluding checker %d covers its \
                         entire neighborhood]"
                        witness p c;
                  } )
          | v, _ -> (e, v)))
    plan.entries
