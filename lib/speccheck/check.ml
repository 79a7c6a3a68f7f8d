module Action = Damd_core.Action
module Biconnect = Damd_graph.Biconnect

type severity = Error | Warning | Info

type finding = {
  id : string;
  severity : severity;
  location : string;
  message : string;
}

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let error id location message = { id; severity = Error; location; message }
let warning id location message = { id; severity = Warning; location; message }

let duplicates xs =
  let sorted = List.sort compare xs (* poly-ok: generic helper, used on atoms *) in
  let rec scan acc = function
    | a :: (b :: _ as rest) ->
        scan (if a = b && not (List.mem a acc) then a :: acc else acc) rest
    | _ -> List.rev acc
  in
  scan [] sorted

let check_well_formed (ir : Ir.t) =
  let dup_states =
    List.map
      (fun s ->
        error "duplicate-id" s (Printf.sprintf "state %S declared twice" s))
      (duplicates ir.Ir.states)
  in
  let dup_actions =
    List.map
      (fun a ->
        error "duplicate-id" a (Printf.sprintf "action %S declared twice" a))
      (duplicates (List.map (fun (a : Ir.action) -> a.Ir.id) ir.Ir.actions))
  in
  let known_state s = List.mem s ir.Ir.states in
  let known_action a = Ir.find_action ir a <> None in
  let bad_ref loc what name =
    error "undefined-ref" loc (Printf.sprintf "%s %S is not declared" what name)
  in
  let initial =
    if known_state ir.Ir.initial then []
    else [ bad_ref "initial" "initial state" ir.Ir.initial ]
  in
  let transitions =
    List.concat_map
      (fun (t : Ir.transition) ->
        let loc = Printf.sprintf "%s --%s--> %s" t.Ir.src t.Ir.act t.Ir.dst in
        List.concat
          [
            (if known_state t.Ir.src then [] else [ bad_ref loc "state" t.Ir.src ]);
            (if known_state t.Ir.dst then [] else [ bad_ref loc "state" t.Ir.dst ]);
            (if known_action t.Ir.act then [] else [ bad_ref loc "action" t.Ir.act ]);
          ])
      ir.Ir.transitions
  in
  let suggested =
    List.concat_map
      (fun (s, a) ->
        List.concat
          [
            (if known_state s then [] else [ bad_ref ("suggested@" ^ s) "state" s ]);
            (if known_action a then [] else [ bad_ref ("suggested@" ^ s) "action" a ]);
          ])
      ir.Ir.suggested
  in
  let phases =
    List.concat_map
      (fun (p : Ir.phase) ->
        List.filter_map
          (fun m ->
            if known_state m then None
            else Some (bad_ref ("phase " ^ p.Ir.pname) "state" m))
          p.Ir.members)
      ir.Ir.phases
  in
  List.concat [ dup_states; dup_actions; initial; transitions; suggested; phases ]

(* Reachability over the full transition table (any strategy), then the
   suggested-play termination walk. *)
let check_states (ir : Ir.t) =
  let reachable = Hashtbl.create 16 in
  let rec visit s =
    if not (Hashtbl.mem reachable s) then begin
      Hashtbl.add reachable s ();
      List.iter
        (fun (t : Ir.transition) -> if t.Ir.src = s then visit t.Ir.dst)
        ir.Ir.transitions
    end
  in
  visit ir.Ir.initial;
  let dead =
    List.filter_map
      (fun s ->
        if Hashtbl.mem reachable s then None
        else
          Some
            (error "dead-state" s
               (Printf.sprintf
                  "state %S is unreachable from %S under any strategy" s
                  ir.Ir.initial)))
      ir.Ir.states
  in
  let unused =
    List.filter_map
      (fun (a : Ir.action) ->
        if List.exists (fun (t : Ir.transition) -> t.Ir.act = a.Ir.id)
             ir.Ir.transitions
        then None
        else
          Some
            (warning "unused-action" a.Ir.id
               (Printf.sprintf "action %S appears in no transition" a.Ir.id)))
      ir.Ir.actions
  in
  let termination =
    let bound = List.length ir.Ir.states + 1 in
    let rec walk s steps =
      match Ir.suggested_action ir s with
      | None -> []
      | Some a ->
          if steps >= bound then
            [
              error "non-termination" s
                (Printf.sprintf
                   "suggested play is still running after %d steps (cycle \
                    through %S): the mechanism never reaches a halting state"
                   steps s);
            ]
          else walk (match Ir.step ir s a with Some d -> d | None -> s) (steps + 1)
    in
    walk ir.Ir.initial 0
  in
  List.concat [ dead; unused; termination ]

let check_classification (ir : Ir.t) =
  List.filter_map
    (fun (a : Ir.action) ->
      match a.Ir.cls with
      | Some _ -> None
      | None ->
          Some
            (error "unclassified-action" a.Ir.id
               (Printf.sprintf
                  "action %S has no section-3.4 class: the proof cannot \
                   assign it to an IC / strong-CC / strong-AC obligation"
                  a.Ir.id)))
    ir.Ir.actions

let check_phases (ir : Ir.t) =
  let overlaps =
    List.filter_map
      (fun s ->
        let owners =
          List.filter (fun (p : Ir.phase) -> List.mem s p.Ir.members) ir.Ir.phases
        in
        match owners with
        | [] | [ _ ] -> None
        | _ ->
            Some
              (error "phase-overlap" s
                 (Printf.sprintf "state %S belongs to phases %s: phases must \
                                  be disjoint (section 3.8)"
                    s
                    (String.concat ", "
                       (List.map (fun (p : Ir.phase) -> p.Ir.pname) owners)))))
      ir.Ir.states
  in
  let gaps =
    List.filter_map
      (fun s ->
        (* halting states carry no action and need no phase *)
        if Ir.suggested_action ir s = None then None
        else if Ir.phase_of_state ir s <> None then None
        else
          Some
            (warning "phase-gap" s
               (Printf.sprintf
                  "active state %S belongs to no phase: its action escapes \
                   the phase-local proof decomposition" s)))
      ir.Ir.states
  in
  let checkpoints =
    List.filter_map
      (fun (p : Ir.phase) ->
        match p.Ir.checkpoint with
        | Some _ -> None
        | None ->
            Some
              (error "missing-checkpoint" p.Ir.pname
                 (Printf.sprintf
                    "phase %S does not end in a certified checkpoint: a \
                     deviation inside it is never caught at a phase boundary \
                     (section 3.9)" p.Ir.pname)))
      ir.Ir.phases
  in
  let straddlers =
    List.filter_map
      (fun (a : Ir.action) ->
        match Ir.phases_of_action ir a.Ir.id with
        | [] | [ _ ] -> None
        | ps ->
            Some
              (warning "multi-phase-action" a.Ir.id
                 (Printf.sprintf
                    "action %S runs in phases %s: its obligation straddles a \
                     checkpoint, so phase-local reasoning (section 3.8) \
                     attributes it ambiguously"
                    a.Ir.id
                    (String.concat ", "
                       (List.map (fun (p : Ir.phase) -> p.Ir.pname) ps)))))
      ir.Ir.actions
  in
  List.concat [ overlaps; gaps; checkpoints; straddlers ]

let check_cc (ir : Ir.t) =
  List.filter_map
    (fun (a : Ir.action) ->
      match a.Ir.cls with
      | Some Action.Message_passing when List.mem Ir.Private_info a.Ir.inputs ->
          Some
            (error "cc-private-leak" a.Ir.id
               (Printf.sprintf
                  "message-passing action %S depends on private information: \
                   strong-CC (Def. 12) requires forwarded content to be a \
                   function of received messages only" a.Ir.id))
      | _ -> None)
    ir.Ir.actions

let check_ac (ir : Ir.t) =
  List.concat_map
    (fun (a : Ir.action) ->
      match a.Ir.cls with
      | Some Action.Computation ->
          List.concat
            [
              (if a.Ir.mirrored then []
               else
                 [
                   error "ac-unmirrored" a.Ir.id
                     (Printf.sprintf
                        "computational action %S is not mirrored by any \
                         checker rule: strong-AC (Def. 13) has no witness to \
                         compare against" a.Ir.id);
                 ]);
              (if a.Ir.digested then []
               else
                 [
                   error "ac-undigested" a.Ir.id
                     (Printf.sprintf
                        "computational action %S is not covered by a bank \
                         digest: the mirror's disagreement could never reach \
                         the checkpoint" a.Ir.id);
                 ]);
            ]
      | _ -> [])
    ir.Ir.actions

let check_deviations ~adversary (ir : Ir.t) =
  let targeted =
    List.concat_map (fun (a : Ir.action) -> a.Ir.deviations) ir.Ir.actions
    |> List.sort_uniq compare (* poly-ok: constant Dev.t constructors *)
  in
  let orphans =
    List.filter_map
      (fun d ->
        if d = Dev.Faithful || List.mem d targeted then None
        else
          Some
            (error "orphan-deviation" (Dev.to_string d)
               (Printf.sprintf
                  "adversary constructor %S targets no catalogue action: the \
                   detection case analysis (section 4.3) does not cover it"
                  (Dev.to_string d))))
      (List.sort_uniq compare adversary) (* poly-ok: constant Dev.t constructors *)
  in
  let unmapped =
    List.filter_map
      (fun d ->
        if List.mem d adversary then None
        else
          Some
            (error "unmapped-deviation" (Dev.to_string d)
               (Printf.sprintf
                  "catalogue deviation %S has no adversary constructor: the \
                   claimed attack is untestable" (Dev.to_string d))))
      targeted
  in
  orphans @ unmapped

let check_ir ?(adversary = Dev.all) (ir : Ir.t) =
  List.concat
    [
      check_well_formed ir;
      check_states ir;
      check_classification ir;
      check_phases ir;
      check_cc ir;
      check_ac ir;
      check_deviations ~adversary ir;
    ]

let check_topology g =
  if Biconnect.is_biconnected g then []
  else
    let cuts = Biconnect.articulation_points g in
    let location =
      if cuts = [] then "graph"
      else String.concat "," (List.map string_of_int cuts)
    in
    [
      error "checker-cut" location
        (if cuts = [] then
           "topology is disconnected: some principal has no checker path to \
            the bank's comparison set"
         else
           Printf.sprintf
             "topology is not 2-connected (articulation point%s %s): removing \
              one node isolates some principal from every honest checker, \
              breaking the neighborhood assumption of detectable_in"
             (if List.length cuts > 1 then "s" else "")
             location);
    ]

let errors findings = List.filter (fun f -> f.severity = Error) findings

let dedup findings =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun f ->
      let key = (f.id, f.location) in
      let first = not (Hashtbl.mem seen key) in
      if first then Hashtbl.add seen key ();
      first)
    findings
