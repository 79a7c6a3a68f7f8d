type ('theta, 'strategy) deviation = {
  name : string;
  classes : Action.t list;
  build : int -> 'strategy;
  applies_to : int -> bool;
}

let deviation ?(applies_to = fun _ -> true) ~name ~classes build =
  { name; classes; build; applies_to }

type violation = {
  deviation_name : string;
  agent : int;
  profile_index : int;
  gain : float;
}

type report = {
  property : string;
  profiles_tested : int;
  deviations_tested : int;
  comparisons : int;
  violations : violation list;
  max_gain : float;
}

let holds r = r.violations = []

let pp_report ppf r =
  Format.fprintf ppf "@[<v>%s: %s@,profiles=%d deviations=%d comparisons=%d max_gain=%g@]"
    r.property
    (if holds r then "HOLDS" else Printf.sprintf "VIOLATED (%d)" (List.length r.violations))
    r.profiles_tested r.deviations_tested r.comparisons r.max_gain

(* Utility differences at or below this are float noise, not a gain. *)
let epsilon = 1e-9

let check ~property ~rng ~profiles ~sample_types ~deviations dm =
  let comparisons = ref 0 in
  let violations = ref [] in
  for profile_index = 0 to profiles - 1 do
    let types = sample_types rng in
    (* The faithful utilities are shared across all deviation comparisons
       for this profile. *)
    let faithful_outcome = Dmech.suggested_outcome dm types in
    List.iter
      (fun d ->
        for agent = 0 to dm.Dmech.n - 1 do
          if d.applies_to agent then begin
            incr comparisons;
            let deviant_outcome =
              dm.Dmech.outcome (Dmech.unilateral dm agent (d.build agent)) types
            in
            let faithful = dm.Dmech.utility agent types.(agent) faithful_outcome in
            let deviant = dm.Dmech.utility agent types.(agent) deviant_outcome in
            let gain = deviant -. faithful in
            if gain > epsilon then
              violations :=
                { deviation_name = d.name; agent; profile_index; gain } :: !violations
          end
        done)
      deviations
  done;
  let violations = List.sort (fun a b -> Float.compare b.gain a.gain) !violations in
  {
    property;
    profiles_tested = profiles;
    deviations_tested = List.length deviations;
    comparisons = !comparisons;
    violations;
    max_gain = (match violations with [] -> 0. | v :: _ -> v.gain);
  }

let filter_classes pred deviations =
  List.filter (fun d -> pred d.classes) deviations

let ex_post_nash ~rng ~profiles ~sample_types ~deviations dm =
  check ~property:"ex post Nash (faithfulness)" ~rng ~profiles ~sample_types ~deviations dm

let strong_cc ~rng ~profiles ~sample_types ~deviations dm =
  let deviations =
    filter_classes (fun cs -> List.mem Action.Message_passing cs) deviations
  in
  check ~property:"strong-CC" ~rng ~profiles ~sample_types ~deviations dm

let strong_ac ~rng ~profiles ~sample_types ~deviations dm =
  let deviations = filter_classes (fun cs -> List.mem Action.Computation cs) deviations in
  check ~property:"strong-AC" ~rng ~profiles ~sample_types ~deviations dm

let best_response_dynamics ~start ~candidates ~types ~max_rounds dm =
  let n = dm.Dmech.n in
  if Array.length start <> n then invalid_arg "best_response_dynamics: arity";
  let profile = Array.copy start in
  let utility_of i strategy =
    let trial = Array.copy profile in
    trial.(i) <- strategy;
    dm.Dmech.utility i types.(i) (dm.Dmech.outcome trial types)
  in
  let rec rounds k =
    if k >= max_rounds then `No_convergence (Array.copy profile)
    else begin
      let switched = ref false in
      for i = 0 to n - 1 do
        let current_u = utility_of i profile.(i) in
        let best = ref profile.(i) and best_u = ref current_u in
        List.iter
          (fun candidate ->
            if candidate <> profile.(i) then begin
              let u = utility_of i candidate in
              if u > !best_u +. epsilon then begin
                best := candidate;
                best_u := u
              end
            end)
          (candidates i);
        if !best <> profile.(i) then begin
          profile.(i) <- !best;
          switched := true
        end
      done;
      if !switched then rounds (k + 1) else `Converged (Array.copy profile, k + 1)
    end
  in
  rounds 0

let incentive_compatible ~rng ~profiles ~sample_types ~deviations dm =
  let deviations =
    filter_classes (fun cs -> cs = [ Action.Information_revelation ]) deviations
  in
  check ~property:"IC" ~rng ~profiles ~sample_types ~deviations dm
