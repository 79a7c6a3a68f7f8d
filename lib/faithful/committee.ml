type behavior = Honest_replica | Always_approve | Always_restart

type verdict = Green_light | Restart of Bank.detection list

let decide committee ~evidence =
  if committee = [] then invalid_arg "Committee.decide: empty committee";
  let votes_restart =
    List.fold_left
      (fun acc b ->
        match b with
        | Honest_replica -> if evidence <> [] then acc + 1 else acc
        | Always_approve -> acc
        | Always_restart -> acc + 1)
      0 committee
  in
  let total = List.length committee in
  if 2 * votes_restart >= total then
    if evidence <> [] then Restart evidence
    else
      Restart
        [
          {
            Bank.rule = "COMMITTEE";
            culprit = None;
            detail = "restart forced by corrupt committee majority (no evidence)";
          };
        ]
  else Green_light

let tolerates ~replicas ~corrupt = 2 * corrupt < replicas
