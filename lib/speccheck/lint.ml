module Json = Damd_util.Json

type report = {
  spec : string;
  topology : string;
  mutation : string option;
  findings : Check.finding list;
}

let run ?adversary ?mutation ~graph ~topology ir =
  let ir, graph = Mutate.apply_opt mutation (ir, graph) in
  let findings = Check.check_ir ?adversary ir @ Check.check_topology graph in
  { spec = ir.Ir.name; topology; mutation; findings }

let error_count r = List.length (Check.errors r.findings)

let exit_code r = if error_count r = 0 then 0 else 1

let to_json r =
  Json.Obj
    (Report.provenance ~schema:"damd-lint/1" ~spec:r.spec ~topology:r.topology
       ~mutation:r.mutation ~errors:(error_count r)
    @ [ ("findings", Report.findings_json r.findings) ])
