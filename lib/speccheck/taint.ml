type label = Public | Received | Private

let of_input = function
  | Ir.Protocol_state -> Public
  | Ir.Received_messages -> Received
  | Ir.Private_info -> Private

let to_string = function
  | Public -> "public"
  | Received -> "received"
  | Private -> "private"

let rank = function Public -> 0 | Received -> 1 | Private -> 2

let leq a b = rank a <= rank b

let join a b = if leq a b then b else a

let summary inputs =
  List.fold_left (fun acc i -> join acc (of_input i)) Public inputs

type observation = { action : string; deps : Ir.input list }

let input_to_string = function
  | Ir.Private_info -> "private-info"
  | Ir.Received_messages -> "received-messages"
  | Ir.Protocol_state -> "protocol-state"

let input_rank = function
  | Ir.Private_info -> 0
  | Ir.Received_messages -> 1
  | Ir.Protocol_state -> 2

let normalize inputs =
  List.sort_uniq (fun a b -> Int.compare (input_rank a) (input_rank b)) inputs

let names inputs = String.concat ", " (List.map input_to_string inputs)

let check (ir : Ir.t) ~observed =
  List.concat_map
    (fun { action; deps } ->
      match Ir.find_action ir action with
      | None -> []
      | Some a ->
          let declared = normalize a.Ir.inputs in
          let observed = normalize deps in
          let missing =
            List.filter (fun i -> not (List.mem i declared)) observed
          in
          let slack =
            List.filter (fun i -> not (List.mem i observed)) declared
          in
          let cls_name =
            match a.Ir.cls with
            | Some c -> Damd_core.Action.to_string c
            | None -> "unclassified"
          in
          let mismatch =
            if missing = [] then []
            else
              [
                Check.error "decl-flow-mismatch" action
                  (Printf.sprintf
                     "%s action %S actually depends on {%s} (taint %s) but \
                      declares only {%s}: the static CC/AC case split is \
                      arguing about a different function than the one the \
                      node runs"
                     cls_name action (names missing)
                     (to_string (summary observed))
                     (names declared));
              ]
          in
          let slack_findings =
            if slack = [] then []
            else
              [
                Check.warning "decl-flow-slack" action
                  (Printf.sprintf
                     "action %S declares {%s} but no perturbation of %s ever \
                      reached its output: the annotation overclaims, or the \
                      implementation silently dropped a declared dependency"
                     action (names slack) (names slack));
              ]
          in
          mismatch @ slack_findings)
    observed
