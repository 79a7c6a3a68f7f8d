module Rng = Damd_util.Rng
module Json = Damd_util.Json
module Graph = Damd_graph.Graph
module Gen = Damd_graph.Gen
module Biconnect = Damd_graph.Biconnect
module Traffic = Damd_fpss.Traffic
module Pricing = Damd_fpss.Pricing
module Tables = Damd_fpss.Tables
module Adversary = Damd_faithful.Adversary
module Runner = Damd_faithful.Runner
module Bank = Damd_faithful.Bank
module Fault = Damd_sim.Fault
module Obs = Damd_obs.Obs

type topology =
  | Mesh of int * int
  | Torus of int * int
  | Chordal of int * int
  | Er of int * float

let topology_n = function
  | Mesh (r, c) | Torus (r, c) -> r * c
  | Chordal (n, _) | Er (n, _) -> n

let topology_name = function
  | Mesh (r, c) -> Printf.sprintf "mesh:%dx%d" r c
  | Torus (r, c) -> Printf.sprintf "torus:%dx%d" r c
  | Chordal (n, k) -> Printf.sprintf "chordal:%d:%d" n k
  | Er (n, p) -> Printf.sprintf "er:%d:%g" n p

type descr = {
  seed : int;
  topology : topology;
  graph_seed : int;
  traffic_rate : float;
  deviants : (int * Adversary.t) list;
  perturb : Runner.perturb;
  fault : Fault.spec option;
}

type mix = { faults : bool; epsilon : float option }

let stock = { faults = false; epsilon = None }

let is_stock m = m = stock

let weaken_name = function
  | Runner.Certified -> "none"
  | Runner.Skip_pricing -> "pricing"
  | Runner.Naive_settlement -> "settlement"
  | Runner.Unchecked -> "all"
  | Runner.Deferred -> "deferred"
  | Runner.Plain -> "plain"

let weaken_of_string = function
  | "none" -> Some Runner.Certified
  | "pricing" -> Some Runner.Skip_pricing
  | "settlement" -> Some Runner.Naive_settlement
  | "all" -> Some Runner.Unchecked
  | _ -> None

type verdict = Detected | Undetected_unprofitable | Violation

let verdict_name = function
  | Detected -> "detected"
  | Undetected_unprofitable -> "undetected-unprofitable"
  | Violation -> "violation"

type graded = {
  descr : descr;
  verdict : verdict;
  violation_kind : string option;
  epsilon_active : (int * bool) list;
  completed : bool;
  stuck_phase : string option;
  detected_in : string option;
  restarts : int;
  detections : (string * int option) list;
  deltas : (int * float) list;
  max_delta : float option;
  tables_match : bool option;
  sim_time : float;
}

let cost_model = Gen.Uniform_int (1, 9)

let graph_of descr =
  let rng = Rng.create descr.graph_seed in
  let g =
    match descr.topology with
    | Mesh (r, c) ->
        Gen.grid ~rows:r ~cols:c ~costs:(Gen.draw_costs rng cost_model (r * c))
    | Torus (r, c) ->
        Gen.torus ~rows:r ~cols:c ~costs:(Gen.draw_costs rng cost_model (r * c))
    | Chordal (n, k) -> Gen.chordal_ring rng ~n ~chords:k cost_model
    | Er (n, p) -> Gen.erdos_renyi rng ~n ~p cost_model
  in
  assert (Biconnect.is_biconnected g);
  g

let seed_bits rng = Int64.to_int (Rng.bits64 rng) land max_int

(* Construction deviations a coalition meaningfully shields (caught via
   the principal's own checkers) — the menu for sampled coalitions. *)
let coalition_menu =
  [
    Adversary.Miscompute_routing (-2.);
    Adversary.Miscompute_routing 2.;
    Adversary.Miscompute_pricing 2.;
    Adversary.Corrupt_routing_copies 2.;
    Adversary.Corrupt_pricing_copies 2.;
    Adversary.Spoof_routing_update 3.;
    Adversary.Combined_routing_attack 2.;
  ]

(* Theorem-1 scope enforcement: the paper's guarantee is "ex post Nash
   without collusion"; a profile where lying checkers/colluders happen to
   cover a deviant's whole neighborhood escapes by design (experiment
   E14), so the sampler must never emit one. Demote colluding neighbors
   to Faithful (smallest id first) until [Adversary.detectable_in] agrees
   every isolated-detectable deviant is still caught in the full
   profile. *)
let enforce_scope g deviants =
  let n = Graph.n g in
  let profile = Array.make n Adversary.Faithful in
  List.iter (fun (i, d) -> profile.(i) <- d) deviants;
  let neighbors = Graph.neighbors g in
  List.iter
    (fun (i, d) ->
      if Adversary.detectable d then
        while not (Adversary.detectable_in ~neighbors ~profile i) do
          match
            List.find_opt
              (fun c -> Adversary.colluding profile.(c) ~principal:i)
              (neighbors i)
          with
          | Some c -> profile.(c) <- Adversary.Faithful
          | None ->
              (* not shieldable by neighbors at all (checker_caught is
                 false): nothing to demote, the predicate cannot change *)
              raise Exit
        done)
    deviants;
  let out = ref [] in
  for i = n - 1 downto 0 do
    if profile.(i) <> Adversary.Faithful then out := (i, profile.(i)) :: !out
  done;
  !out

let enforce_scope g deviants =
  try enforce_scope g deviants with Exit -> deviants

let of_seed ?(mix = stock) seed =
  let rng = Rng.create seed in
  let topology =
    match Rng.int rng 4 with
    | 0 -> Mesh (Rng.int_in rng 3 4, Rng.int_in rng 3 4)
    | 1 -> Torus (3, Rng.int_in rng 3 4)
    | 2 -> Chordal (Rng.int_in rng 8 12, Rng.int_in rng 2 4)
    | _ -> Er (Rng.int_in rng 8 12, 0.3 +. (0.05 *. float_of_int (Rng.int rng 5)))
  in
  let graph_seed = seed_bits rng in
  let traffic_rate = Rng.sample rng [| 0.5; 1.; 2. |] in
  let perturb =
    {
      Runner.jitter = Rng.sample rng [| 0.; 0.2; 0.4 |];
      dup_p = Rng.sample rng [| 0.; 0.05; 0.1 |];
      drop_p = 0.5;
      drop_budget = (if Rng.bernoulli rng 0.25 then Rng.int_in rng 1 2 else 0);
      perturb_seed = seed_bits rng;
    }
  in
  let perturb =
    if perturb.Runner.drop_budget = 0 then { perturb with Runner.drop_p = 0. }
    else perturb
  in
  let descr0 =
    { seed; topology; graph_seed; traffic_rate; deviants = []; perturb; fault = None }
  in
  let g = graph_of descr0 in
  let n = Graph.n g in
  let deviants =
    if Rng.bernoulli rng 0.3 then begin
      (* A coalition: one principal with a checker-caught construction
         deviation, shielded by a strict subset of its neighbors. *)
      let p = Rng.int rng n in
      let d = Rng.choose rng coalition_menu in
      let nbrs = Array.of_list (Graph.neighbors g p) in
      Rng.shuffle rng nbrs;
      let deg = Array.length nbrs in
      (* strict neighbor subset, capped so campaigns stay 1..3 deviants
         (each deviant costs one unilateral baseline run when grading) *)
      let k = if deg <= 1 then 0 else Rng.int_in rng 1 (min 2 (deg - 1)) in
      (p, d)
      :: List.init k (fun j -> (nbrs.(j), Adversary.Collude_with p))
    end
    else begin
      let ndev = Rng.int_in rng 1 (min 3 (n - 1)) in
      let nodes = Rng.subset rng ndev n in
      List.map (fun v -> (v, Rng.choose rng Adversary.library)) nodes
    end
  in
  (* Mixed-mode draws come strictly after every stock draw, so with
     [mix = stock] the sampler is bit-for-bit the historical one. *)
  let deviants =
    if mix.faults && Rng.bernoulli rng 0.3 then
      (* promote one deviant to a fail-arbitrary peer (fixed seeded plan) *)
      match deviants with
      | (i, _) :: rest -> (i, Adversary.Byzantine_arbitrary (seed_bits rng)) :: rest
      | [] -> deviants
    else deviants
  in
  let deviants =
    enforce_scope g deviants |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  let deviants =
    match mix.epsilon with
    | None -> deviants
    | Some e ->
        List.map (fun (i, d) -> (i, Adversary.Epsilon_rational (e, d))) deviants
  in
  let fault =
    if not mix.faults then None
    else begin
      let phase () =
        match Rng.int rng 3 with 0 -> `Costs | 1 -> `Routing | _ -> `Pricing
      in
      let link =
        if Rng.bernoulli rng 0.7 then
          Some
            {
              Fault.loss_p = Rng.sample rng [| 0.01; 0.03; 0.05 |];
              reorder_p = Rng.sample rng [| 0.; 0.1; 0.2 |];
              reorder_delay = 1.5;
            }
        else None
      in
      let partition =
        if Rng.bernoulli rng 0.35 then begin
          let k = Rng.int_in rng 1 (max 1 (n / 3)) in
          let at = Rng.float_in rng 0.5 3. in
          Some
            {
              Fault.island = Rng.subset rng k n;
              part_phase = phase ();
              at;
              heals_at = at +. Rng.float_in rng 1. 4.;
            }
        end
        else None
      in
      let crash =
        if Rng.bernoulli rng 0.35 then begin
          let at = Rng.float_in rng 0.5 3. in
          Some
            {
              Fault.node = Rng.int rng n;
              crash_phase = phase ();
              at;
              recovers_at = at +. Rng.float_in rng 1. 4.;
            }
        end
        else None
      in
      let spec = { Fault.seed = seed_bits rng; link; partition; crash } in
      (* a --faults campaign always injects something *)
      let spec =
        if Fault.is_none spec then
          {
            spec with
            Fault.link =
              Some { Fault.loss_p = 0.03; reorder_p = 0.1; reorder_delay = 1.5 };
          }
        else spec
      in
      Some spec
    end
  in
  { descr0 with deviants; fault }

let params_of bank descr =
  {
    Runner.default_params with
    Runner.bank;
    perturbation = descr.perturb;
    fault = descr.fault;
    (* Faults consume restarts (link loss hits every attempt, a crash or
       partition window costs the first): give fault campaigns headroom so
       benign schedules still certify. *)
    max_restarts =
      (if descr.fault = None then Runner.default_params.Runner.max_restarts else 4);
    (* Livelocking deviations (oscillating announcements under a corrupted
       fixpoint) must fail fast, not grind out 10M events per restart
       attempt: a couple hundred thousand events is orders of magnitude
       above any honest construction at gauntlet sizes (n <= 16). *)
    max_events = 200_000;
  }

(* The oracle's input: a consistent declaration ([Declare], whichever
   deviation's plan it comes from) is one the mechanism must honor
   (strategyproofness, not checking, neutralizes it), so the centralized
   reference runs on the declared costs of the resolved profile. *)
let declared_graph g deviations =
  let g = ref g in
  Array.iteri
    (fun i d ->
      match (Adversary.plan d).Adversary.declare with
      | Adversary.Declare c -> g := Graph.with_cost !g i c
      | Adversary.True_cost | Adversary.Split _ -> ())
    deviations;
  !g

let profit_tolerance = 1e-6

let grade ?(bank = Runner.Certified) ?(obs = Obs.noop) descr =
  Obs.span obs ~cat:"gauntlet"
    ~args:
      (if Obs.enabled obs then
         [
           ("seed", Json.Int descr.seed);
           ("topology", Json.String (topology_name descr.topology));
           ("weaken", Json.String (weaken_name bank));
         ]
       else [])
    "campaign"
  @@ fun () ->
  (* One "verdict" instant closes every campaign's timeline segment. *)
  let finish gr =
    if Obs.enabled obs then
      Obs.instant obs ~cat:"gauntlet"
        ~args:
          [
            ("seed", Json.Int gr.descr.seed);
            ("verdict", Json.String (verdict_name gr.verdict));
            ( "violation_kind",
              match gr.violation_kind with
              | Some k -> Json.String k
              | None -> Json.Null );
            ( "max_delta",
              match gr.max_delta with
              | Some d -> Json.Float d
              | None -> Json.Null );
          ]
        "verdict";
    gr
  in
  let g = graph_of descr in
  let n = Graph.n g in
  let traffic = Traffic.uniform ~n ~rate:descr.traffic_rate in
  let params = params_of bank descr in
  (* ε-rational resolution: an ε-agent runs its inner deviation only when
     the unilateral gain exceeds its threshold (the Definition 8
     comparison, measured on this very campaign); otherwise it stays
     faithful. Theorem 1 keeps every gain non-positive on the stock
     mechanism, so ε-agents activate only against weakened banks. *)
  let epsilon_active = ref [] in
  let deviations = Array.make n Adversary.Faithful in
  List.iter
    (fun (i, d) ->
      match Adversary.epsilon d with
      | None -> deviations.(i) <- d
      | Some (e, inner) ->
          let gain =
            Runner.utility_gain ~params ~graph:g ~traffic ~node:i ~deviation:inner
              ()
          in
          let active = gain > e in
          epsilon_active := (i, active) :: !epsilon_active;
          deviations.(i) <- (if active then inner else Adversary.Faithful))
    descr.deviants;
  let epsilon_active = List.rev !epsilon_active in
  (* Only the campaign's own run carries the sink: ε-resolution and the
     unilateral baselines would otherwise flood the timeline with
     counterfactual runs. *)
  let full =
    Runner.run ~params:{ params with Runner.obs = obs } ~graph:g ~traffic
      ~deviations ()
  in
  let detections =
    List.map (fun d -> (d.Bank.rule, d.Bank.culprit)) full.Runner.detections
  in
  let attributed i =
    List.find_map
      (fun (rule, c) -> if c = Some i then Some rule else None)
      detections
  in
  (* Blame correctness, asserted on fault campaigns only: with the bank in
     fault-tolerant evidence mode, accusing a node that ran the faithful
     code — whether untouched by the sampler or an ε-agent that chose not
     to activate — is a mechanism failure regardless of anything else the
     run did. Stock campaigns are exempt: there a deviant *checker* frames
     its honest principal by design (drop-copies forces a mismatch the
     stock bank attributes to the principal and punishes with a restart),
     which is the documented collective-punishment behavior, not a bug. *)
  let honest_accused =
    descr.fault <> None
    && List.exists
         (fun (_, c) ->
           match c with
           | Some i -> deviations.(i) = Adversary.Faithful
           | None -> false)
         detections
  in
  (* The oracle and the unilateral baselines grade certified tables: a run
     that never certified has none, and every node eats the progress
     penalty. *)
  let tables_match, deltas, max_delta =
    if not full.Runner.completed then (None, [], None)
    else begin
      let tables_match =
        match full.Runner.tables with
        | None -> false
        | Some t ->
            let oracle = Pricing.compute (declared_graph g deviations) in
            Tables.routing_equal t oracle && Tables.prices_equal t oracle
      in
      (* Unilateral baselines: deviant i against the same campaign with only
         its own deviation reverted. With one deviant this is the
         Definition 8 comparison. Theorem 1 is ex post Nash and assumes the
         others faithful, so with several deviants the comparison is
         stricter than the theorem, and it has an open counterexample
         (replay 772341180993425955: a misreporter gains while a neighbour
         misroutes). *)
      let deltas =
        List.map
          (fun (i, _) ->
            let dev' = Array.copy deviations in
            dev'.(i) <- Adversary.Faithful;
            let base = Runner.run ~params ~graph:g ~traffic ~deviations:dev' () in
            let delta =
              if base.Runner.completed then
                full.Runner.utilities.(i) -. base.Runner.utilities.(i)
              else neg_infinity
            in
            (i, delta))
          descr.deviants
      in
      ( Some tables_match,
        deltas,
        Some (List.fold_left (fun acc (_, d) -> Float.max acc d) neg_infinity deltas) )
    end
  in
  let undetected =
    List.filter (fun (i, _) -> attributed i = None) descr.deviants
  in
  let profit =
    List.exists
      (fun (i, _) ->
        match List.assoc_opt i deltas with
        | Some d -> d > profit_tolerance
        | None -> false)
      undetected
  in
  let integrity = tables_match = Some false && undetected <> [] in
  (* The detection round: the phase a stuck run stopped in, else the rule
     of the first detection naming a deviant. A violation names none,
     except a false accusation in a stuck run, which keeps the phase. *)
  let caught =
    match full.Runner.stuck_phase with
    | Some _ as phase -> phase
    | None -> List.find_map (fun (i, _) -> attributed i) descr.deviants
  in
  let verdict, violation_kind, detected_in =
    if honest_accused then
      (Violation, Some "false-accusation", full.Runner.stuck_phase)
    else if profit then (Violation, Some "profit", None)
    else if integrity then (Violation, Some "integrity", None)
    else if caught <> None then (Detected, None, caught)
    else (Undetected_unprofitable, None, None)
  in
  finish
    {
      descr;
      verdict;
      violation_kind;
      epsilon_active;
      completed = full.Runner.completed;
      stuck_phase = full.Runner.stuck_phase;
      detected_in;
      restarts = full.Runner.restarts;
      detections;
      deltas;
      max_delta;
      tables_match;
      sim_time = full.Runner.sim_time;
    }

(* --- greedy shrinking --- *)

let max_deviant_id descr =
  List.fold_left (fun m (i, _) -> max m i) 0 descr.deviants

let topology_shrinks descr =
  let fits topo = topology_n topo > max_deviant_id descr in
  let cands =
    match descr.topology with
    | Mesh (r, c) ->
        (if r > 2 then [ Mesh (r - 1, c) ] else [])
        @ if c > 2 then [ Mesh (r, c - 1) ] else []
    | Torus (r, c) ->
        (if r > 3 then [ Torus (r - 1, c) ] else [])
        @ if c > 3 then [ Torus (r, c - 1) ] else []
    | Chordal (n, k) ->
        if n > 5 then [ Chordal (n - 1, min k (n - 4)) ] else []
    | Er (n, p) -> if n > 5 then [ Er (n - 1, p) ] else []
  in
  List.filter fits cands |> List.map (fun t -> { descr with topology = t })

let shrink ?bank graded =
  if graded.verdict <> Violation then graded
  else begin
    let budget = ref 60 in
    let regrade d =
      if !budget <= 0 then None
      else begin
        decr budget;
        let g = grade ?bank d in
        if g.verdict = Violation then Some g else None
      end
    in
    let current = ref graded in
    let progress = ref true in
    while !progress && !budget > 0 do
      progress := false;
      let d = !current.descr in
      let p = d.perturb in
      let candidates =
        (if List.length d.deviants > 1 then
           List.map
             (fun (i, _) ->
               {
                 d with
                 deviants = List.filter (fun (j, _) -> j <> i) d.deviants;
               })
             d.deviants
         else [])
        @ (if p.Runner.drop_budget > 0 then
             [ { d with perturb = { p with Runner.drop_budget = 0; drop_p = 0. } } ]
           else [])
        @ (if p.Runner.dup_p > 0. then
             [ { d with perturb = { p with Runner.dup_p = 0. } } ]
           else [])
        @ (if p.Runner.jitter > 0. then
             [ { d with perturb = { p with Runner.jitter = 0. } } ]
           else [])
        @ (match d.fault with
          | None -> []
          | Some f ->
              [ { d with fault = None } ]
              @ (if f.Fault.link <> None then
                   [ { d with fault = Some { f with Fault.link = None } } ]
                 else [])
              @ (if f.Fault.partition <> None then
                   [ { d with fault = Some { f with Fault.partition = None } } ]
                 else [])
              @
              if f.Fault.crash <> None then
                [ { d with fault = Some { f with Fault.crash = None } } ]
              else [])
        @ (if List.exists (fun (_, dv) -> Adversary.epsilon dv <> None) d.deviants
           then
             [
               {
                 d with
                 deviants =
                   List.map
                     (fun (i, dv) ->
                       match Adversary.epsilon dv with
                       | Some (_, inner) -> (i, inner)
                       | None -> (i, dv))
                     d.deviants;
               };
             ]
           else [])
        @ topology_shrinks d
      in
      match List.find_map regrade candidates with
      | Some smaller ->
          current := smaller;
          progress := true
      | None -> ()
    done;
    !current
  end

(* --- batch driving and reporting --- *)

let campaign_seed ~master i = seed_bits (Rng.fork (Rng.create master) i)

let run_batch ?bank ?(mix = stock) ?obs ~campaigns ~seed () =
  List.init campaigns (fun i ->
      grade ?bank ?obs (of_seed ~mix (campaign_seed ~master:seed i)))

let json_opt f = function None -> Json.Null | Some v -> f v

let json_of_fault f =
  Json.Obj
    [
      ("seed", Json.Int f.Fault.seed);
      ( "link",
        json_opt
          (fun (l : Fault.link) ->
            Json.Obj
              [
                ("loss_p", Json.Float l.Fault.loss_p);
                ("reorder_p", Json.Float l.Fault.reorder_p);
                ("reorder_delay", Json.Float l.Fault.reorder_delay);
              ])
          f.Fault.link );
      ( "partition",
        json_opt
          (fun (pt : Fault.partition) ->
            Json.Obj
              [
                ( "island",
                  Json.List (List.map (fun i -> Json.Int i) pt.Fault.island) );
                ("phase", Json.String (Fault.phase_name pt.Fault.part_phase));
                ("at", Json.Float pt.Fault.at);
                ("heals_at", Json.Float pt.Fault.heals_at);
              ])
          f.Fault.partition );
      ( "crash",
        json_opt
          (fun (c : Fault.crash) ->
            Json.Obj
              [
                ("node", Json.Int c.Fault.node);
                ("phase", Json.String (Fault.phase_name c.Fault.crash_phase));
                ("at", Json.Float c.Fault.at);
                ("recovers_at", Json.Float c.Fault.recovers_at);
              ])
          f.Fault.crash );
    ]

(* Mixed-mode fields are emitted only when present, so stock-mode output
   (faults off, no ε) stays byte-identical to the damd-gauntlet/1 era. *)
let json_of_graded gr =
  let d = gr.descr in
  let p = d.perturb in
  Json.Obj
    ([
      ("seed", Json.Int d.seed);
      ("topology", Json.String (topology_name d.topology));
      ("n", Json.Int (topology_n d.topology));
      ("traffic_rate", Json.Float d.traffic_rate);
      ( "deviations",
        Json.List
          (List.map
             (fun (i, dev) ->
               Json.Obj
                 [
                   ("node", Json.Int i);
                   ("deviation", Json.String (Adversary.name dev));
                 ])
             d.deviants) );
      ( "perturb",
        Json.Obj
          [
            ("jitter", Json.Float p.Runner.jitter);
            ("dup_p", Json.Float p.Runner.dup_p);
            ("drop_p", Json.Float p.Runner.drop_p);
            ("drop_budget", Json.Int p.Runner.drop_budget);
          ] );
    ]
    @ (match d.fault with
      | None -> []
      | Some f -> [ ("fault", json_of_fault f) ])
    @ (if gr.epsilon_active = [] then []
       else
         [
           ( "epsilon_active",
             Json.List
               (List.map
                  (fun (i, a) ->
                    Json.Obj [ ("node", Json.Int i); ("active", Json.Bool a) ])
                  gr.epsilon_active) );
         ])
    @ [
      ("verdict", Json.String (verdict_name gr.verdict));
      ("violation_kind", json_opt (fun s -> Json.String s) gr.violation_kind);
      ("completed", Json.Bool gr.completed);
      ("stuck_phase", json_opt (fun s -> Json.String s) gr.stuck_phase);
      ("detected_in", json_opt (fun s -> Json.String s) gr.detected_in);
      ("restarts", Json.Int gr.restarts);
      ( "detections",
        Json.List
          (List.map
             (fun (rule, culprit) ->
               Json.Obj
                 [
                   ("rule", Json.String rule);
                   ("culprit", json_opt (fun c -> Json.Int c) culprit);
                 ])
             gr.detections) );
      ( "deltas",
        Json.List
          (List.map
             (fun (i, delta) ->
               Json.Obj [ ("node", Json.Int i); ("delta", Json.Float delta) ])
             gr.deltas) );
      ("max_delta", json_opt (fun x -> Json.Float x) gr.max_delta);
      ("tables_match", json_opt (fun b -> Json.Bool b) gr.tables_match);
      ("sim_time", Json.Float gr.sim_time);
    ])

let report ?(shrunk = []) ~bank ~seed gradeds =
  let count v =
    List.length (List.filter (fun gr -> gr.verdict = v) gradeds)
  in
  let mixed =
    List.exists
      (fun gr -> gr.descr.fault <> None || gr.epsilon_active <> [])
      gradeds
  in
  Json.Obj
    [
      ( "schema",
        Json.String (if mixed then "damd-gauntlet/2" else "damd-gauntlet/1") );
      ("master_seed", Json.Int seed);
      ("campaigns", Json.Int (List.length gradeds));
      ("weaken", Json.String (weaken_name bank));
      ( "summary",
        Json.Obj
          [
            ("detected", Json.Int (count Detected));
            ( "undetected_unprofitable",
              Json.Int (count Undetected_unprofitable) );
            ("violation", Json.Int (count Violation));
          ] );
      ("results", Json.List (List.map json_of_graded gradeds));
      ("violations_shrunk", Json.List (List.map json_of_graded shrunk));
    ]
