module Action = Damd_core.Action
module Rng = Damd_util.Rng

type t =
  | Faithful
  | Misreport_cost of float
  | Inconsistent_cost of float * float
  | Corrupt_cost_forward of float
  | Drop_routing_copies
  | Drop_pricing_copies
  | Corrupt_routing_copies of float
  | Corrupt_pricing_copies of float
  | Spoof_routing_update of float
  | Spoof_pricing_update of float
  | Miscompute_routing of float
  | Miscompute_pricing of float
  | Underreport_payments of float
  | Misroute_packets
  | Misattribute_payments
  | Silent_in_construction
  | Combined_routing_attack of float
  | Combined_pricing_attack of float
  | Lying_checker
  | Collude_with of int
  | Byzantine_arbitrary of int
  | Epsilon_rational of float * t

type declare = True_cost | Declare of float | Split of float * float

type distortion = Honest | Distort of float | Withhold

type table_plan = { announce : distortion; copies : distortion; spoof : float option }

type shield = Nobody | Everyone | Principal of int

type plan = {
  declare : declare;
  forward : float option;
  routing : table_plan;
  pricing : table_plan;
  misroute : bool;
  underreport : float option;
  misattribute : bool;
  shield : shield;
}

let honest_table = { announce = Honest; copies = Honest; spoof = None }

let faithful =
  {
    declare = True_cost;
    forward = None;
    routing = honest_table;
    pricing = honest_table;
    misroute = false;
    underreport = None;
    misattribute = false;
    shield = Nobody;
  }

let tampers_with (t : table_plan) =
  t.announce <> Honest || t.copies <> Honest || Option.is_some t.spoof

(* Some table the node sends differs from the suggested one: evidence the
   bank sees only through the node's checkers (BANK1/BANK2). *)
let tampers p = tampers_with p.routing || tampers_with p.pricing

let execution p = p.misroute || Option.is_some p.underreport || p.misattribute

(* DATA1 components: the bank's global digest comparison sees an
   inconsistent declaration or a corrupted forward. A consistent [Declare]
   is not one: it is a legal revelation action, neutralized by
   strategyproofness rather than by checking. *)
let corrupts_costs p =
  (match p.declare with Split _ -> true | True_cost | Declare _ -> false)
  || Option.is_some p.forward

(* Components that reach the bank over evidence no checker mediates. *)
let unmediated p = corrupts_costs p || execution p

let active p = tampers p || unmediated p

(* A cost pair read one way: the same cost to every neighbour is the
   consistent declaration [Declare a], two costs are a [Split]. *)
let declare_pair a b = if Float.equal a b then Declare a else Split (a, b)

(* The plan is a *fixed* function of the seed, sampled once: a Byzantine
   node that re-randomized per message would never converge its own
   announcement loop (every recomputation would differ), turning every
   campaign into a livelock instead of an interesting adversary. Fixing
   the behaviors at creation keeps the node deterministic — arbitrary in
   choice, not in time. The draws run in a fixed order, the under-report
   first and the cost pair last; seeded replay depends on it. A drawn
   pair of equal costs is the consistent [Declare], which is not active
   on its own. *)
let plan_of_seed seed =
  let rng = Rng.create (0x42595A + seed) in
  let maybe p f = if Rng.bernoulli rng p then Some (f ()) else None in
  let draw lo hi () = float_of_int (Rng.int_in rng lo hi) in
  let distortion f = Option.value (maybe 0.4 f) ~default:Honest in
  let announce lo hi = distortion (fun () -> Distort (draw lo hi ())) in
  let copies () =
    distortion (fun () -> if Rng.bool rng then Withhold else Distort (draw 1 4 ()))
  in
  let underreport = maybe 0.3 (fun () -> 0.25 *. draw 0 3 ()) in
  let misroute = Rng.bernoulli rng 0.3 in
  let pricing_announce = announce 1 3 in
  let pricing_copies = copies () in
  let routing_announce = announce (-3) 3 in
  let routing_copies = copies () in
  let forward = maybe 0.3 (draw 1 4) in
  let cost_pair =
    maybe 0.3 (fun () ->
        let a = draw 1 9 () in
        let b = draw 1 9 () in
        (a, b))
  in
  let plan =
    {
      faithful with
      declare =
        (match cost_pair with Some (a, b) -> declare_pair a b | None -> True_cost);
      forward;
      routing = { honest_table with announce = routing_announce; copies = routing_copies };
      pricing = { honest_table with announce = pricing_announce; copies = pricing_copies };
      misroute;
      underreport;
    }
  in
  if active plan then plan
  else { plan with routing = { plan.routing with announce = Distort (-2.) } }

let routing table_plan = { faithful with routing = table_plan }
let pricing table_plan = { faithful with pricing = table_plan }

let rec plan = function
  | Faithful -> faithful
  | Misreport_cost c -> { faithful with declare = Declare c }
  | Inconsistent_cost (a, b) -> { faithful with declare = declare_pair a b }
  | Corrupt_cost_forward delta -> { faithful with forward = Some delta }
  | Drop_routing_copies -> routing { honest_table with copies = Withhold }
  | Drop_pricing_copies -> pricing { honest_table with copies = Withhold }
  | Corrupt_routing_copies delta -> routing { honest_table with copies = Distort delta }
  | Corrupt_pricing_copies delta -> pricing { honest_table with copies = Distort delta }
  | Spoof_routing_update delta -> routing { honest_table with spoof = Some delta }
  | Spoof_pricing_update delta -> pricing { honest_table with spoof = Some delta }
  | Miscompute_routing delta -> routing { honest_table with announce = Distort delta }
  | Miscompute_pricing delta -> pricing { honest_table with announce = Distort delta }
  | Underreport_payments f -> { faithful with underreport = Some f }
  | Misroute_packets -> { faithful with misroute = true }
  | Misattribute_payments -> { faithful with misattribute = true }
  | Silent_in_construction ->
      let silent = { honest_table with announce = Withhold } in
      { faithful with routing = silent; pricing = silent }
  | Combined_routing_attack delta ->
      routing { announce = Distort (-.delta); copies = Distort delta; spoof = Some delta }
  | Combined_pricing_attack delta ->
      pricing { announce = Distort delta; copies = Distort delta; spoof = Some delta }
  | Lying_checker -> { faithful with shield = Everyone }
  | Collude_with p -> { faithful with shield = Principal p }
  | Byzantine_arbitrary seed -> plan_of_seed seed
  | Epsilon_rational (_, inner) -> plan inner

let shields p ~principal =
  match p.shield with Nobody -> false | Everyone -> true | Principal q -> q = principal

module Dev = Damd_speccheck.Dev

let rec label = function
  | Faithful -> Dev.Faithful
  | Misreport_cost _ -> Dev.Misreport_cost
  | Inconsistent_cost _ -> Dev.Inconsistent_cost
  | Corrupt_cost_forward _ -> Dev.Corrupt_cost_forward
  | Drop_routing_copies -> Dev.Drop_routing_copies
  | Drop_pricing_copies -> Dev.Drop_pricing_copies
  | Corrupt_routing_copies _ -> Dev.Corrupt_routing_copies
  | Corrupt_pricing_copies _ -> Dev.Corrupt_pricing_copies
  | Spoof_routing_update _ -> Dev.Spoof_routing_update
  | Spoof_pricing_update _ -> Dev.Spoof_pricing_update
  | Miscompute_routing _ -> Dev.Miscompute_routing
  | Miscompute_pricing _ -> Dev.Miscompute_pricing
  | Underreport_payments _ -> Dev.Underreport_payments
  | Misroute_packets -> Dev.Misroute_packets
  | Misattribute_payments -> Dev.Misattribute_payments
  | Silent_in_construction -> Dev.Silent_in_construction
  | Combined_routing_attack _ -> Dev.Combined_routing_attack
  | Combined_pricing_attack _ -> Dev.Combined_pricing_attack
  | Lying_checker -> Dev.Lying_checker
  | Collude_with _ -> Dev.Collude_with
  | Byzantine_arbitrary _ -> Dev.Byzantine_arbitrary
  (* the wrapper is a meta-deviation — a gain threshold over an inner
     behavior — so its catalogue label is the inner's: when it activates
     it plays exactly that deviation, when it does not it is [Faithful] *)
  | Epsilon_rational (_, inner) -> label inner

(* The epsilon wrapper carries its inner deviation's label, so it
   spells its own prefix. *)
let rec name d =
  let tag = Dev.to_string (label d) in
  match d with
  | Faithful | Drop_routing_copies | Drop_pricing_copies | Misroute_packets
  | Misattribute_payments | Silent_in_construction | Lying_checker ->
      tag
  | Misreport_cost x | Combined_routing_attack x | Combined_pricing_attack x ->
      Printf.sprintf "%s(%g)" tag x
  | Inconsistent_cost (a, b) -> Printf.sprintf "%s(%g|%g)" tag a b
  | Corrupt_cost_forward d
  | Corrupt_routing_copies d
  | Corrupt_pricing_copies d
  | Spoof_routing_update d
  | Spoof_pricing_update d ->
      Printf.sprintf "%s(+%g)" tag d
  | Miscompute_routing d | Miscompute_pricing d -> Printf.sprintf "%s(%+g)" tag d
  | Underreport_payments f -> Printf.sprintf "%s(x%g)" tag f
  | Collude_with i | Byzantine_arbitrary i -> Printf.sprintf "%s(%d)" tag i
  | Epsilon_rational (eps, inner) ->
      Printf.sprintf "epsilon-rational(%g|%s)" eps (name inner)

let rec classify = function
  | Faithful -> []
  | Misreport_cost _ | Inconsistent_cost _ -> [ Action.Information_revelation ]
  | Corrupt_cost_forward _ -> [ Action.Message_passing ]
  | Drop_routing_copies | Drop_pricing_copies -> [ Action.Message_passing ]
  | Corrupt_routing_copies _ | Corrupt_pricing_copies _ -> [ Action.Message_passing ]
  | Spoof_routing_update _ | Spoof_pricing_update _ -> [ Action.Message_passing ]
  | Miscompute_routing _ | Miscompute_pricing _ -> [ Action.Computation ]
  | Underreport_payments _ -> [ Action.Computation ]
  | Misroute_packets -> [ Action.Message_passing ]
  | Misattribute_payments -> [ Action.Computation ]
  | Silent_in_construction -> [ Action.Message_passing; Action.Computation ]
  | Combined_routing_attack _ | Combined_pricing_attack _ ->
      [ Action.Message_passing; Action.Computation ]
  | Lying_checker | Collude_with _ -> [ Action.Computation ]
  | Byzantine_arbitrary _ -> [ Action.Message_passing; Action.Computation ]
  | Epsilon_rational (_, inner) -> classify inner

let library =
  [
    Misreport_cost 5.;
    Inconsistent_cost (1., 8.);
    Corrupt_cost_forward 3.;
    Drop_routing_copies;
    Drop_pricing_copies;
    Corrupt_routing_copies 2.;
    Corrupt_pricing_copies 2.;
    Spoof_routing_update 3.;
    Spoof_pricing_update 3.;
    Miscompute_routing (-2.);
    Miscompute_routing 2.;
    Miscompute_pricing 2.;
    Underreport_payments 0.5;
    Misroute_packets;
    Misattribute_payments;
    Silent_in_construction;
    Combined_routing_attack 2.;
    Combined_pricing_attack 2.;
    Lying_checker;
  ]

let all_labels =
  List.sort_uniq compare (* poly-ok: constant Dev.t constructors *)
    (List.map label (Faithful :: Collude_with 0 :: Byzantine_arbitrary 0 :: library))

let is_construction t =
  let p = plan t in
  tampers p || corrupts_costs p || p.shield <> Nobody

let is_execution t = execution (plan t)
let detectable t = active (plan t)
let colluding t ~principal = shields (plan t) ~principal

(* Shieldable by a neighbourhood coalition: every active component tampers
   with a table, which the bank sees only through the node's own checkers
   (the BANK1/BANK2 mirror and announcement comparison of §4.2). Withheld
   announcements count: silence too reaches the bank as checker evidence. *)
let caught_by_checkers p = tampers p && not (unmediated p)
let checker_caught t = caught_by_checkers (plan t)

let detectable_in ~neighbors ~profile i =
  let plan_at v = plan profile.(v) in
  let caught p =
    let d = plan_at p in
    active d
    && ((not (caught_by_checkers d))
       || List.exists (fun c -> not (shields (plan_at c) ~principal:p)) (neighbors p))
  in
  match (plan_at i).shield with
  | Principal p when p >= 0 && p < Array.length profile ->
      (* A colluder is exposed exactly when the coalition fails: the
         principal it shields is still caught by some honest checker. *)
      caught p
  | Nobody | Everyone | Principal _ -> caught i

let epsilon = function Epsilon_rational (eps, inner) -> Some (eps, inner) | _ -> None
