module Graph = Damd_graph.Graph
module Biconnect = Damd_graph.Biconnect

let map_action id f (ir : Ir.t) =
  {
    ir with
    Ir.actions =
      List.map
        (fun (a : Ir.action) -> if a.Ir.id = id then f a else a)
        ir.Ir.actions;
  }

let map_phase pname f (ir : Ir.t) =
  {
    ir with
    Ir.phases =
      List.map
        (fun (p : Ir.phase) -> if p.Ir.pname = pname then f p else p)
        ir.Ir.phases;
  }

(* Remove edges (in sorted order) until the graph stops being 2-connected:
   the first cut that matters, whatever the topology. *)
let cut_checker_edge g =
  let costs = Graph.costs g in
  let n = Graph.n g in
  let rec go edges =
    let g' = Graph.create ~n ~costs ~edges in
    if not (Biconnect.is_biconnected g') then g'
    else match edges with [] -> g' | _ :: rest -> go rest
  in
  go (List.tl (Graph.edges g))

(* One row per mutation: the finding each checker must produce on it.
   [lint] is the one error finding [Lint.run] must report. [verify] is the
   flow/exploration finding [Verify.run] must additionally produce:
   annotation-level mutations surface as escapes in the product space, the
   input-annotation mutation in the taint diff, the shape mutations as
   coverage and reentry violations. [analyze] is the finding [Analyze.run]
   must produce. The last three rows are invisible to the syntactic checks
   (lint exits 0 on them, so [lint] and [verify] are [None]) and exist
   precisely to exercise the flow-sensitive layer: a private value
   laundered through an intermediate computation, a leak through the
   digest channel, and a checkpoint whose evidence sources are silently
   defanged. *)
type mutation = {
  name : string;
  lint : string option;
  verify : string option;
  analyze : string;
  edit : Ir.t * Graph.t -> Ir.t * Graph.t;
}

let on_ir f (ir, g) = (f ir, g)

let add_private_input (a : Ir.action) = { a with Ir.inputs = Ir.Private_info :: a.Ir.inputs }

let mutations =
  [
    {
      name = "drop-checkpoint";
      lint = Some "missing-checkpoint";
      verify = Some "undetected-deviation";
      analyze = "certifier-blind-spot";
      edit = on_ir (map_phase "construction-2a" (fun p -> { p with Ir.checkpoint = None }));
    };
    {
      name = "unclassify-action";
      lint = Some "unclassified-action";
      verify = Some "undetected-deviation";
      analyze = "certifier-blind-spot";
      edit = on_ir (map_action "recompute-routing" (fun a -> { a with Ir.cls = None }));
    };
    {
      name = "orphan-deviation";
      lint = Some "orphan-deviation";
      verify = Some "undetected-deviation";
      analyze = "certifier-blind-spot";
      edit =
        on_ir
          (map_action "forward-packets" (fun a ->
               {
                 a with
                 Ir.deviations =
                   List.filter (fun d -> d <> Dev.Misroute_packets) a.Ir.deviations;
               }));
    };
    {
      name = "leak-private-info";
      lint = Some "cc-private-leak";
      verify = Some "decl-flow-slack";
      analyze = "cc-private-leak-flow";
      edit = on_ir (map_action "forward-routing-copies" add_private_input);
    };
    {
      name = "unmirror-computation";
      lint = Some "ac-unmirrored";
      verify = Some "undetected-deviation";
      analyze = "ac-unmirrored-flow";
      edit = on_ir (map_action "recompute-pricing" (fun a -> { a with Ir.mirrored = false }));
    };
    {
      name = "undigest-computation";
      lint = Some "ac-undigested";
      verify = Some "undetected-deviation";
      analyze = "ac-undigested-flow";
      edit = on_ir (map_action "report-payments" (fun a -> { a with Ir.digested = false }));
    };
    {
      name = "cut-checker-edge";
      lint = Some "checker-cut";
      verify = Some "undetected-deviation";
      analyze = "certifier-blind-spot";
      edit = (fun (ir, g) -> (ir, cut_checker_edge g));
    };
    {
      name = "dead-state";
      lint = Some "dead-state";
      verify = Some "unexplored-state";
      analyze = "unexplored-state";
      edit = on_ir (fun ir -> { ir with Ir.states = ir.Ir.states @ [ "limbo" ] });
    };
    {
      name = "loop-forever";
      lint = Some "non-termination";
      verify = Some "phase-reentry";
      analyze = "phase-reentry";
      (* suggested play at the halting state loops back into execution *)
      edit =
        on_ir (fun ir ->
            {
              ir with
              Ir.transitions =
                ir.Ir.transitions
                @ [ { Ir.src = "halt"; act = "forward-packets"; dst = "exec-forward" } ];
              suggested = ir.Ir.suggested @ [ ("halt", "forward-packets") ];
            });
    };
    {
      name = "launder-private-taint";
      lint = None;
      verify = None;
      analyze = "cc-private-leak-flow";
      (* the private cost flows into the mirrored routing computation,
         whose output then reaches later message-passing actions through
         protocol state — every individual declaration still looks
         innocent, so the syntactic CC scan stays silent *)
      edit = on_ir (map_action "recompute-routing" add_private_input);
    };
    {
      name = "private-digest-channel";
      lint = None;
      verify = None;
      analyze = "cc-private-leak-flow";
      (* same laundering, but through the bank-digest reporting channel *)
      edit = on_ir (map_action "report-digests" add_private_input);
    };
    {
      name = "starve-checkpoint-evidence";
      lint = None;
      verify = None;
      analyze = "checkpoint-starved";
      (* construction-1 keeps its DATA1 certifier, but both of the phase's
         evidence sources are defanged: the cost announcement loses its
         digest and the flood loses its enforcement rule — syntactically
         legal (digests and rules are optional), statically fatal *)
      edit =
        on_ir (fun ir ->
            map_action "declare-cost"
              (fun a -> { a with Ir.digested = false })
              (map_action "flood-costs" (fun a -> { a with Ir.rules = [] }) ir));
    };
  ]

let column f = List.filter_map (fun m -> Option.map (fun id -> (m.name, id)) (f m)) mutations
let all = column (fun m -> m.lint)
let expected name = List.assoc_opt name all
let all_verify = column (fun m -> m.verify)
let expected_verify name = List.assoc_opt name all_verify
let all_analyze = List.map (fun m -> (m.name, m.analyze)) mutations
let expected_analyze name = List.assoc_opt name all_analyze
let names = List.map (fun m -> m.name) mutations
let known name = List.mem_assoc name all_analyze

let apply name pair =
  List.find_opt (fun m -> String.equal m.name name) mutations
  |> Option.map (fun m -> m.edit pair)

let apply_opt mutation pair =
  match mutation with
  | None -> pair
  | Some name -> (
      match apply name pair with
      | Some pair -> pair
      | None ->
          invalid_arg
            (Printf.sprintf "unknown mutation %S (expected one of %s)" name
               (String.concat " | " names)))
