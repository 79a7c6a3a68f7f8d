type 'theta violation = {
  profile : 'theta array;
  agent : int;
  lie : 'theta;
  truthful_utility : float;
  deviant_utility : float;
  gain : float;
}

type 'theta report = {
  trials : int;
  violations : 'theta violation list;
  max_gain : float;
}

(* Gains at or below this are floating-point noise. *)
let epsilon = 1e-9

let try_lie mech profile agent lie acc =
  let truthful_utility = Mechanism.utility mech agent profile.(agent) profile in
  let reports = Array.copy profile in
  reports.(agent) <- lie;
  let deviant_utility = Mechanism.utility mech agent profile.(agent) reports in
  let gain = deviant_utility -. truthful_utility in
  if gain > epsilon then
    { profile = Array.copy profile; agent; lie; truthful_utility; deviant_utility; gain }
    :: acc
  else acc

let finish trials violations =
  let violations = List.sort (fun a b -> Float.compare b.gain a.gain) violations in
  let max_gain = match violations with [] -> 0. | v :: _ -> v.gain in
  { trials; violations; max_gain }

let check ~rng ~profiles ~lies_per_agent ~sample_profile ~sample_lie mech =
  let trials = ref 0 in
  let violations = ref [] in
  for _ = 1 to profiles do
    let profile = sample_profile rng in
    for agent = 0 to mech.Mechanism.n - 1 do
      for _ = 1 to lies_per_agent do
        let lie = sample_lie rng agent profile.(agent) in
        incr trials;
        violations := try_lie mech profile agent lie !violations
      done
    done
  done;
  finish !trials !violations

let check_exhaustive ~profiles ~lies mech =
  let trials = ref 0 in
  let violations = ref [] in
  List.iter
    (fun profile ->
      for agent = 0 to mech.Mechanism.n - 1 do
        List.iter
          (fun lie ->
            incr trials;
            violations := try_lie mech profile agent lie !violations)
          (lies agent profile.(agent))
      done)
    profiles;
  finish !trials !violations

let is_strategyproof r = r.violations = []
