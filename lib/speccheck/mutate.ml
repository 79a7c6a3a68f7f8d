module Graph = Damd_graph.Graph
module Biconnect = Damd_graph.Biconnect

let all =
  [
    ("drop-checkpoint", "missing-checkpoint");
    ("unclassify-action", "unclassified-action");
    ("orphan-deviation", "orphan-deviation");
    ("leak-private-info", "cc-private-leak");
    ("unmirror-computation", "ac-unmirrored");
    ("undigest-computation", "ac-undigested");
    ("cut-checker-edge", "checker-cut");
    ("dead-state", "dead-state");
    ("loop-forever", "non-termination");
  ]

let expected name = List.assoc_opt name all

(* The dynamic counterpart: the flow/exploration finding [Verify.run] must
   additionally produce for each mutation. Annotation-level mutations
   surface as escapes in the product space; the input-annotation mutation
   surfaces in the taint diff; the shape mutations surface as coverage and
   reentry violations. *)
let all_verify =
  [
    ("drop-checkpoint", "undetected-deviation");
    ("unclassify-action", "undetected-deviation");
    ("orphan-deviation", "undetected-deviation");
    ("leak-private-info", "decl-flow-slack");
    ("unmirror-computation", "undetected-deviation");
    ("undigest-computation", "undetected-deviation");
    ("cut-checker-edge", "undetected-deviation");
    ("dead-state", "unexplored-state");
    ("loop-forever", "phase-reentry");
  ]

let expected_verify name = List.assoc_opt name all_verify

(* The static-analysis counterpart: the finding [Analyze.run] must produce
   for each mutation. The last three mutations are invisible to the
   syntactic checks (lint exits 0 on them) and exist precisely to exercise
   the flow-sensitive layer: a private value laundered through an
   intermediate computation, a leak through the digest channel, and a
   checkpoint whose evidence sources are silently defanged. *)
let all_analyze =
  [
    ("drop-checkpoint", "certifier-blind-spot");
    ("unclassify-action", "certifier-blind-spot");
    ("orphan-deviation", "certifier-blind-spot");
    ("leak-private-info", "cc-private-leak-flow");
    ("unmirror-computation", "ac-unmirrored-flow");
    ("undigest-computation", "ac-undigested-flow");
    ("cut-checker-edge", "certifier-blind-spot");
    ("dead-state", "unexplored-state");
    ("loop-forever", "phase-reentry");
    ("launder-private-taint", "cc-private-leak-flow");
    ("private-digest-channel", "cc-private-leak-flow");
    ("starve-checkpoint-evidence", "checkpoint-starved");
  ]

let expected_analyze name = List.assoc_opt name all_analyze

let names = List.map fst all_analyze

let known name = List.mem_assoc name all_analyze

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

let apply name ((ir : Ir.t), g) =
  match name with
  | "drop-checkpoint" ->
      Some
        ( map_phase "construction-2a"
            (fun p -> { p with Ir.checkpoint = None })
            ir,
          g )
  | "unclassify-action" ->
      Some (map_action "recompute-routing" (fun a -> { a with Ir.cls = None }) ir, g)
  | "orphan-deviation" ->
      Some
        ( map_action "forward-packets"
            (fun a ->
              {
                a with
                Ir.deviations =
                  List.filter (fun d -> d <> Dev.Misroute_packets) a.Ir.deviations;
              })
            ir,
          g )
  | "leak-private-info" ->
      Some
        ( map_action "forward-routing-copies"
            (fun a -> { a with Ir.inputs = Ir.Private_info :: a.Ir.inputs })
            ir,
          g )
  | "unmirror-computation" ->
      Some
        ( map_action "recompute-pricing"
            (fun a -> { a with Ir.mirrored = false })
            ir,
          g )
  | "undigest-computation" ->
      Some
        ( map_action "report-payments"
            (fun a -> { a with Ir.digested = false })
            ir,
          g )
  | "cut-checker-edge" -> Some (ir, cut_checker_edge g)
  | "launder-private-taint" ->
      (* the private cost flows into the mirrored routing computation,
         whose output then reaches later message-passing actions through
         protocol state — every individual declaration still looks
         innocent, so the syntactic CC scan stays silent *)
      Some
        ( map_action "recompute-routing"
            (fun a -> { a with Ir.inputs = Ir.Private_info :: a.Ir.inputs })
            ir,
          g )
  | "private-digest-channel" ->
      (* same laundering, but through the bank-digest reporting channel *)
      Some
        ( map_action "report-digests"
            (fun a -> { a with Ir.inputs = Ir.Private_info :: a.Ir.inputs })
            ir,
          g )
  | "starve-checkpoint-evidence" ->
      (* construction-1 keeps its DATA1 certifier, but both of the phase's
         evidence sources are defanged: the cost announcement loses its
         digest and the flood loses its enforcement rule — syntactically
         legal (digests and rules are optional), statically fatal *)
      Some
        ( map_action "declare-cost"
            (fun a -> { a with Ir.digested = false })
            (map_action "flood-costs" (fun a -> { a with Ir.rules = [] }) ir),
          g )
  | "dead-state" -> Some ({ ir with Ir.states = ir.Ir.states @ [ "limbo" ] }, g)
  | "loop-forever" ->
      (* suggested play at the halting state loops back into execution *)
      Some
        ( {
            ir with
            Ir.transitions =
              ir.Ir.transitions
              @ [ { Ir.src = "halt"; act = "forward-packets"; dst = "exec-forward" } ];
            suggested = ir.Ir.suggested @ [ ("halt", "forward-packets") ];
          },
          g )
  | _ -> None

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
