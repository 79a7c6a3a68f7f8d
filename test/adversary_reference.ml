(* The scope predicates written constructor by constructor, each with its
   own reading of a Byzantine plan. This is the oracle for the plan-based
   predicates of [Damd_faithful.Adversary]: the tests assert equal answers
   on every library deviation, on sampled Byzantine seeds and on
   [Epsilon_rational] wrappers, and equal [detectable_in] verdicts on
   sampled coalition profiles. Two entries differ from the predicates as
   they first stood: [checker_caught] includes [Silent_in_construction],
   since withheld announcements reach the bank only through the silent
   node's checkers, so a coalition covering its neighbourhood shields it;
   and a cost pair (a, b) — an [Inconsistent_cost] or a Byzantine plan's
   drawn pair — is inconsistent only when a <> b. A pair of equal costs
   tells every neighbour the same cost: the consistent declaration of
   [Misreport_cost a], legal and undetectable. *)

module Adversary = Damd_faithful.Adversary
open Adversary

(* Which components of a Byzantine plan were drawn. [cost_pair] is an
   inconsistent pair, two different costs; a drawn pair of equal costs
   is a consistent declaration and counts as no component. *)
type byz = {
  cost_pair : bool;
  forward : bool;
  tables : bool;  (** any announce or copies distortion, either table *)
  misroute : bool;
  underreport : bool;
}

let byz seed =
  let p = plan_of_seed seed in
  let active (t : table_plan) = t.announce <> Honest || t.copies <> Honest in
  {
    cost_pair =
      (match p.declare with
      | Split (a, b) -> not (Float.equal a b)
      | True_cost | Declare _ -> false);
    forward = p.forward <> None;
    tables = active p.routing || active p.pricing;
    misroute = p.misroute;
    underreport = p.underreport <> None;
  }

let rec is_construction = function
  | Inconsistent_cost (a, b) -> not (Float.equal a b)
  | Corrupt_cost_forward _ | Drop_routing_copies
  | Drop_pricing_copies | Corrupt_routing_copies _ | Corrupt_pricing_copies _
  | Spoof_routing_update _ | Spoof_pricing_update _ | Miscompute_routing _
  | Miscompute_pricing _ | Silent_in_construction | Lying_checker | Collude_with _
  | Combined_routing_attack _ | Combined_pricing_attack _ ->
      true
  | Byzantine_arbitrary seed ->
      let p = byz seed in
      p.cost_pair || p.forward || p.tables
  | Epsilon_rational (_, inner) -> is_construction inner
  | Faithful | Misreport_cost _ | Underreport_payments _ | Misroute_packets
  | Misattribute_payments ->
      false

let rec is_execution = function
  | Underreport_payments _ | Misroute_packets | Misattribute_payments -> true
  | Byzantine_arbitrary seed ->
      let p = byz seed in
      p.misroute || p.underreport
  | Epsilon_rational (_, inner) -> is_execution inner
  | _ -> false

let rec detectable = function
  | Faithful | Misreport_cost _ -> false
  | Inconsistent_cost (a, b) -> not (Float.equal a b)
  | Lying_checker -> false
  | Collude_with _ -> false
  | Byzantine_arbitrary _ -> true (* every plan has at least one active component *)
  | Epsilon_rational (_, inner) -> detectable inner
  | _ -> true

let rec colluding t ~principal =
  match t with
  | Lying_checker -> true
  | Collude_with p -> p = principal
  | Epsilon_rational (_, inner) -> colluding inner ~principal
  | _ -> false

let rec checker_caught = function
  | Drop_routing_copies | Drop_pricing_copies | Corrupt_routing_copies _
  | Corrupt_pricing_copies _ | Spoof_routing_update _ | Spoof_pricing_update _
  | Miscompute_routing _ | Miscompute_pricing _ | Combined_routing_attack _
  | Combined_pricing_attack _ | Silent_in_construction ->
      true
  | Byzantine_arbitrary seed ->
      (* shieldable only when every active component is checker-mediated *)
      let p = byz seed in
      (not p.cost_pair) && (not p.forward) && (not p.misroute) && not p.underreport
  | Epsilon_rational (_, inner) -> checker_caught inner
  | _ -> false

let detectable_in ~neighbors ~profile i =
  let caught_principal p =
    let d = profile.(p) in
    detectable d
    && ((not (checker_caught d))
       || List.exists
            (fun c -> not (colluding profile.(c) ~principal:p))
            (neighbors p))
  in
  match profile.(i) with
  | Collude_with p when p >= 0 && p < Array.length profile -> caught_principal p
  | _ -> caught_principal i
