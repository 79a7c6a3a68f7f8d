type report = {
  trials : int;
  failures : int;
  worst : float;
}

let sweep ~rng ~trials ~sample_profile measure =
  let failures = ref 0 and worst = ref 0. in
  for _ = 1 to trials do
    let profile = sample_profile rng in
    let violation = measure profile in
    if violation > 0. then begin
      incr failures;
      if violation > !worst then worst := violation
    end
  done;
  { trials; failures = !failures; worst = -. !worst }

(* Shortfalls at or below this are float noise, not a failure. *)
let epsilon = 1e-9

let individually_rational ~rng ~trials ~sample_profile mech =
  sweep ~rng ~trials ~sample_profile (fun profile ->
      let worst = ref 0. in
      for i = 0 to mech.Mechanism.n - 1 do
        let u = Mechanism.utility mech i profile.(i) profile in
        if u < -.epsilon && -.u > !worst then worst := -.u
      done;
      !worst)

let budget_balanced ~rng ~trials ~sample_profile mech =
  sweep ~rng ~trials ~sample_profile (fun profile ->
      let paid_out = Mechanism.budget mech profile in
      if paid_out > epsilon then paid_out else 0.)

let efficient ~rng ~trials ~sample_profile ~candidates mech =
  sweep ~rng ~trials ~sample_profile (fun profile ->
      let chosen, _ = mech.Mechanism.run profile in
      let welfare o = Mechanism.social_welfare mech profile o in
      let best =
        List.fold_left (fun acc o -> Float.max acc (welfare o)) (welfare chosen)
          candidates
      in
      let shortfall = best -. welfare chosen in
      if shortfall > epsilon then shortfall else 0.)

let all_pass r = r.failures = 0
