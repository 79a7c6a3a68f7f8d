module Rng = Damd_util.Rng

type theta = { power : float; cost : float }

type outcome = { leader : int; runner_up_score : float }

let score ~benefit (t : theta) = (benefit *. t.power) -. t.cost

let naive ~n =
  let run (reports : theta array) =
    if Array.length reports <> n then invalid_arg "Leader_election.naive: arity";
    let best = ref 0 in
    for i = 1 to n - 1 do
      if reports.(i).power > reports.(!best).power then best := i
    done;
    ({ leader = !best; runner_up_score = 0. }, Array.make n 0.)
  in
  {
    Mechanism.n;
    run;
    valuation = (fun i theta o -> if o.leader = i then -.theta.cost else 0.);
  }

let second_score_outcome ~benefit (reports : theta array) =
  let n = Array.length reports in
  let best = ref 0 in
  for i = 1 to n - 1 do
    if score ~benefit reports.(i) > score ~benefit reports.(!best) then best := i
  done;
  let runner_up = ref 0. and found = ref false in
  for i = 0 to n - 1 do
    if i <> !best then begin
      let s = score ~benefit reports.(i) in
      if (not !found) || s > !runner_up then begin
        runner_up := s;
        found := true
      end
    end
  done;
  { leader = !best; runner_up_score = (if !found then !runner_up else 0.) }

let second_score ~n ~benefit =
  let run (reports : theta array) =
    if Array.length reports <> n then
      invalid_arg "Leader_election.second_score: arity";
    (second_score_outcome ~benefit reports, Array.make n 0.)
  in
  {
    Mechanism.n;
    run;
    valuation =
      (fun i theta o ->
        (* Verified delivery: the winner is paid against its *true* power,
           so the payment lives in the valuation, not the transfer vector
           (which the mechanism computes from reports alone). *)
        if o.leader = i then
          (benefit *. theta.power) -. o.runner_up_score -. theta.cost
        else 0.);
  }

let most_powerful profile =
  let best = ref 0 in
  Array.iteri (fun i t -> if t.power > profile.(!best).power then best := i) profile;
  !best

let welfare_optimal ~benefit profile =
  let best = ref 0 in
  Array.iteri
    (fun i t -> if score ~benefit t > score ~benefit profile.(!best) then best := i)
    profile;
  !best

let sample_theta rng = { power = Rng.float_in rng 1. 10.; cost = Rng.float_in rng 0. 5. }

let sample_profile ~n rng = Array.init n (fun _ -> sample_theta rng)

let sample_lie rng _i (theta : theta) =
  {
    power = Float.max 0. (theta.power +. Rng.float_in rng (-5.) 5.);
    cost = Float.max 0. (theta.cost +. Rng.float_in rng (-3.) 3.);
  }

let selfish_report (theta : theta) = { theta with power = 0. }
