(* The table checkpoints as first written: one digest per query, and the
   principal's own inputs digest computed up front in the fault-tolerant
   body. This is the oracle for [Damd_faithful.Bank.checkpoint], which
   hashes each distinct table once per call: the tests assert the same
   detections (rule, culprit and detail, in order) at both checkpoints in
   both evidence modes. *)

module Adversary = Damd_faithful.Adversary
module Bank = Damd_faithful.Bank
module Node = Damd_faithful.Node

let announced_digest_of st node ~principal =
  Option.map st.Node.digest (List.assoc_opt principal (st.Node.slot node).Node.heard)

let claimed_announced_digest st node =
  Option.map st.Node.digest (st.Node.slot node).Node.announced

let checkpoint_stock st nodes =
  let rule = st.Node.bank_rule in
  let detections = ref [] in
  Array.iter
    (fun (node : Node.t) ->
      let p = node.Node.id in
      let expected = Node.self_digest st node in
      let problems = ref [] in
      List.iter
        (fun c ->
          let checker = nodes.(c) in
          if Adversary.shields checker.Node.plan ~principal:p then ()
          else begin
            let mirror = Node.mirror_digest st checker ~principal:p in
            if not (String.equal mirror expected) then
              problems := Printf.sprintf "checker %d mirror disagrees" c :: !problems;
            match announced_digest_of st checker ~principal:p with
            | None -> problems := Printf.sprintf "no announcement seen by %d" c :: !problems
            | Some announced ->
                if not (String.equal announced expected) then
                  problems :=
                    Printf.sprintf "announcement to %d disagrees with internal state" c
                    :: !problems
          end)
        node.Node.neighbors;
      if !problems <> [] then
        detections :=
          {
            Bank.rule;
            culprit = Some p;
            detail = String.concat "; " (List.rev !problems);
          }
          :: !detections)
    nodes;
  List.rev !detections

let checkpoint_ft st nodes =
  let rule = st.Node.bank_rule in
  let detections = ref [] in
  let omissions = ref [] in
  Array.iter
    (fun (node : Node.t) ->
      let p = node.Node.id in
      let expected = Node.self_digest st node in
      let claimed = claimed_announced_digest st node in
      let own_inputs = st.Node.inputs_digest node in
      let contradictions = ref [] in
      let omitted = ref [] in
      List.iter
        (fun c ->
          let checker = nodes.(c) in
          if Adversary.shields checker.Node.plan ~principal:p then ()
          else begin
            let mirror = Node.mirror_digest st checker ~principal:p in
            if not (String.equal mirror expected) then begin
              if
                String.equal (st.Node.mirror_inputs_digest checker ~principal:p)
                  own_inputs
              then
                contradictions :=
                  Printf.sprintf "checker %d mirror disagrees on matching inputs" c
                  :: !contradictions
              else
                omitted :=
                  Printf.sprintf "checker %d mirror ran on different inputs" c
                  :: !omitted
            end;
            match announced_digest_of st checker ~principal:p with
            | None -> omitted := Printf.sprintf "no announcement seen by %d" c :: !omitted
            | Some announced ->
                if String.equal announced expected then ()
                else if Option.equal String.equal (Some announced) claimed then
                  contradictions :=
                    Printf.sprintf
                      "announcement to %d contradicts certified internal state" c
                    :: !contradictions
                else
                  omitted :=
                    Printf.sprintf "stale announcement held by %d" c :: !omitted
          end)
        node.Node.neighbors;
      if !contradictions <> [] then
        detections :=
          {
            Bank.rule;
            culprit = Some p;
            detail = String.concat "; " (List.rev !contradictions);
          }
          :: !detections
      else if !omitted <> [] then
        omissions :=
          Printf.sprintf "node %d: %s" p (String.concat "; " (List.rev !omitted))
          :: !omissions)
    nodes;
  let detections = List.rev !detections in
  if detections = [] && !omissions <> [] then
    [
      {
        Bank.rule;
        culprit = None;
        detail =
          Printf.sprintf "omission evidence (restart, no blame): %s"
            (String.concat " | " (List.rev !omissions));
      };
    ]
  else detections

let checkpoint ~fault_tolerant st nodes =
  if fault_tolerant then checkpoint_ft st nodes else checkpoint_stock st nodes
