type 'state t = {
  name : string;
  run : attempt:int -> 'state -> 'state;
  certify : 'state -> (unit, string) result;
}

type 'state progress = {
  state : 'state;
  restarts : (string * string) list;
}

type 'state outcome =
  | Completed of 'state progress
  | Stuck of { phase : string; reason : string; progress : 'state progress }

let execute ~max_restarts initial phases =
  let rec run_phase progress phase attempt =
    let state = phase.run ~attempt progress.state in
    match phase.certify state with
    | Ok () -> Ok { progress with state }
    | Error reason ->
        let progress =
          { state; restarts = progress.restarts @ [ (phase.name, reason) ] }
        in
        if attempt > max_restarts then Error (phase.name, reason, progress)
        else run_phase progress phase (attempt + 1)
  in
  let rec go progress = function
    | [] -> Completed progress
    | phase :: rest -> (
        match run_phase progress phase 1 with
        | Ok progress -> go progress rest
        | Error (name, reason, progress) -> Stuck { phase = name; reason; progress })
  in
  go { state = initial; restarts = [] } phases

let total_restarts p = List.length p.restarts
