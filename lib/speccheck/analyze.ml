module Json = Damd_util.Json

type report = {
  spec : string;
  topology : string;
  mutation : string option;
  result : Absint.t;
  explore : Explore.outcome option;
  findings : Check.finding list;
}

let run ?adversary ?mutation ?bound ?(differential = false) ?explore_bound
    ?obs ~graph ~topology ir =
  let ir, graph = Mutate.apply_opt mutation (ir, graph) in
  let result = Absint.run ?bound ?adversary ?obs ~graph ir in
  let explore, diff_findings =
    if differential then
      let dyn =
        Explore.run ?bound:explore_bound ?adversary ?obs ~graph ir
      in
      (Some dyn, Absint.differential result dyn)
    else (None, [])
  in
  {
    spec = ir.Ir.name;
    topology;
    mutation;
    result;
    explore;
    findings = result.Absint.findings @ diff_findings;
  }

let blind_spots r =
  List.length
    (List.filter
       (fun fr ->
         match fr.Absint.fr_verdict with Absint.Sblind _ -> true | _ -> false)
       r.result.Absint.frontier)

let frontier_sound r =
  match r.explore with
  | None -> None
  | Some _ ->
      Some
        (not
           (List.exists
              (fun (f : Check.finding) -> f.Check.id = "static-frontier-gap")
              r.findings))

let error_count r = List.length (Check.errors r.findings)

let exit_code r = if error_count r = 0 then 0 else 1

let sverdict_json v =
  match v with
  | Absint.Scertified { depth; certifier; phase } ->
      Json.Obj
        [
          ("kind", Json.String "certified");
          ("depth", Json.Int depth);
          ( "certifier",
            match certifier with
            | Some c -> Json.String c
            | None -> Json.Null (* the progress timeout, not a rule *) );
          ("phase", Json.Int phase);
        ]
  | Absint.Sblind { witness } ->
      Json.Obj
        [ ("kind", Json.String "blind"); ("witness", Json.String witness) ]
  | Absint.Sexempt { reason } ->
      Json.Obj [ ("kind", Json.String "exempt"); ("reason", Json.String reason) ]
  | Absint.Struncated -> Json.Obj [ ("kind", Json.String "truncated") ]

let to_json r =
  Json.Obj
    (Report.provenance ~schema:"damd-analyze/1" ~spec:r.spec
       ~topology:r.topology ~mutation:r.mutation ~errors:(error_count r)
    @ [
        ( "stats",
          Json.Obj
            [
              ("states_explored", Json.Int r.result.Absint.states_explored);
              ("elapsed_s", Json.Float r.result.Absint.elapsed_s);
              ("differential", Json.Bool (r.explore <> None));
            ] );
        ( "properties",
          Json.Obj
            [
              ("blind_spots", Json.Int (blind_spots r));
              ( "frontier_sound",
                match frontier_sound r with
                | None -> Json.Null
                | Some b -> Json.Bool b );
            ] );
        ( "flow",
          Json.List
            (List.map
               (fun sm ->
                 Json.Obj
                   [
                     ("action", Json.String sm.Absint.sm_action);
                     ("taint", Json.String (Taint.to_string sm.Absint.sm_out));
                     ( "path",
                       Json.List
                         (List.map
                            (fun a -> Json.String a)
                            sm.Absint.sm_path) );
                   ])
               r.result.Absint.flows) );
        ( "frontier",
          Json.List
            (List.map
               (fun fr ->
                 Json.Obj
                   [
                     ("deviation", Json.String (Dev.to_string fr.Absint.fr_dev));
                     ("verdict", sverdict_json fr.Absint.fr_verdict);
                     ( "certifier",
                       match fr.Absint.fr_certifier with
                       | Some c -> Json.String c
                       | None -> Json.Null );
                     ( "phase",
                       match fr.Absint.fr_phase with
                       | Some p -> Json.String p
                       | None -> Json.Null );
                     ( "phase_distance",
                       match fr.Absint.fr_distance with
                       | Some d -> Json.Int d
                       | None -> Json.Null );
                   ])
               r.result.Absint.frontier) );
        ("findings", Report.findings_json r.findings);
      ])
