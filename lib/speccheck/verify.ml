module Json = Damd_util.Json

type report = {
  spec : string;
  topology : string;
  mutation : string option;
  flow : (string * Ir.input list * Ir.input list) list;
  verdicts : (Dev.t * Explore.verdict) list;
  stats : Explore.stats;
  findings : Check.finding list;
}

let sort_inputs inputs =
  List.sort_uniq
    (fun a b -> String.compare (Taint.input_to_string a) (Taint.input_to_string b))
    inputs

let run ?adversary ?mutation ?bound ?obs ?por ?domains ?audit ~observed ~graph
    ~topology ir =
  let ir, graph = Mutate.apply_opt mutation (ir, graph) in
  let static = Check.check_ir ?adversary ir @ Check.check_topology graph in
  let flow_findings = Taint.check ir ~observed in
  let explored = Explore.run ?bound ?adversary ?obs ?por ?domains ?audit ~graph ir in
  let flow =
    List.filter_map
      (fun (o : Taint.observation) ->
        match Ir.find_action ir o.Taint.action with
        | None -> None
        | Some a ->
            Some (o.Taint.action, sort_inputs a.Ir.inputs, sort_inputs o.Taint.deps))
      observed
  in
  {
    spec = ir.Ir.name;
    topology;
    mutation;
    flow;
    verdicts = explored.Explore.verdicts;
    stats = explored.Explore.stats;
    findings = static @ flow_findings @ explored.Explore.findings;
  }

let detection_complete r =
  List.for_all
    (fun (_, v) ->
      match v with
      | Explore.Detected _ | Explore.Exempt _ -> true
      | Explore.Undetected _ | Explore.Truncated -> false)
    r.verdicts

let no_false_accusation r =
  not (List.exists (fun (f : Check.finding) -> f.Check.id = "false-accusation") r.findings)

let error_count r = List.length (Check.errors r.findings)

let exit_code r = if error_count r = 0 then 0 else 1

let verdict_json v =
  match v with
  | Explore.Detected { depth; certifier } ->
      Json.Obj
        [
          ("kind", Json.String "detected");
          ("depth", Json.Int depth);
          ( "certifier",
            match certifier with
            | Some c -> Json.String c
            | None -> Json.Null (* the progress timeout, not a rule *) );
        ]
  | Explore.Undetected { witness } ->
      Json.Obj
        [ ("kind", Json.String "undetected"); ("witness", Json.String witness) ]
  | Explore.Exempt { reason } ->
      Json.Obj [ ("kind", Json.String "exempt"); ("reason", Json.String reason) ]
  | Explore.Truncated -> Json.Obj [ ("kind", Json.String "truncated") ]

let to_json r =
  Json.Obj
    (Report.provenance ~schema:"damd-verify/1" ~spec:r.spec
       ~topology:r.topology ~mutation:r.mutation ~errors:(error_count r)
    @ [
      ( "stats",
        Json.Obj
          [
            ("states_explored", Json.Int r.stats.Explore.states_explored);
            ("frontier_peak", Json.Int r.stats.Explore.frontier_peak);
            ("scenarios", Json.Int r.stats.Explore.scenarios);
            ("truncated", Json.Bool r.stats.Explore.truncated);
            ("elapsed_s", Json.Float r.stats.Explore.elapsed_s);
            ( "states_per_sec",
              Json.Float
                (if r.stats.Explore.elapsed_s > 0. then
                   float_of_int r.stats.Explore.states_explored
                   /. r.stats.Explore.elapsed_s
                 else 0.) );
            ("por", Json.Bool r.stats.Explore.por);
            ("domains", Json.Int r.stats.Explore.domains);
          ] );
      ( "properties",
        Json.Obj
          [
            ("detection_complete", Json.Bool (detection_complete r));
            ("no_false_accusation", Json.Bool (no_false_accusation r));
          ] );
      ( "flow",
        Json.List
          (List.map
             (fun (action, declared, observed) ->
               Json.Obj
                 [
                   ("action", Json.String action);
                   ( "declared",
                     Json.List
                       (List.map
                          (fun i -> Json.String (Taint.input_to_string i))
                          declared) );
                   ( "observed",
                     Json.List
                       (List.map
                          (fun i -> Json.String (Taint.input_to_string i))
                          observed) );
                 ])
             r.flow) );
      ( "verdicts",
        Json.List
          (List.map
             (fun (lbl, v) ->
               Json.Obj
                 [
                   ("deviation", Json.String (Dev.to_string lbl));
                   ("verdict", verdict_json v);
                 ])
             r.verdicts) );
      ("findings", Report.findings_json r.findings);
    ])
