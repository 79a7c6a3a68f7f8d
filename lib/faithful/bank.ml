module Dijkstra = Damd_graph.Dijkstra
module Signer = Damd_crypto.Signer

type detection = {
  rule : string;
  culprit : int option;
  detail : string;
}

let pp_detection ppf d =
  Format.fprintf ppf "[%s]%s %s" d.rule
    (match d.culprit with Some c -> Printf.sprintf " node %d:" c | None -> "")
    d.detail

let all_equal = function
  | [] -> true
  | x :: rest -> List.for_all (String.equal x) rest

let checkpoint_costs nodes =
  let digests = Array.to_list (Array.map Node.costs_digest nodes) in
  if all_equal digests then []
  else
    [
      {
        rule = "DATA1";
        culprit = None;
        detail = "transit-cost tables disagree across nodes (inconsistent revelation)";
      };
    ]

(* The digests of one checkpoint call, each distinct table hashed once.
   A lookup tries physical identity, then the stage's [equal], which
   holds exactly when the two serializations are the same bytes, so a
   reused digest is the digest of the table asked about. A checker's
   heard copy is the very table its principal announced, and an honest
   mirror, recomputed by the checker, equals the principal's table. *)
let digest_memo st =
  let seen = ref [] in
  fun table ->
    match List.find_opt (fun (t, _) -> t == table) !seen with
    | Some (_, d) -> d
    | None -> (
        match List.find_opt (fun (t, _) -> st.Node.equal t table) !seen with
        | Some (_, d) -> d
        | None ->
            let d = st.Node.digest table in
            seen := (table, d) :: !seen;
            d)

(* One body for both evidence modes. Per principal, every checker that
   does not shield it states two digests, its mirror recomputation and
   the announcement it heard, and the bank compares each with the
   principal's self digest. The modes fail a checkpoint on the same
   disagreements and differ only in whom one names. The stock mode
   blames the principal for every disagreement. Under injected link
   faults a lost copy or a stale announcement produces the same
   mismatch as a lie, so the fault-tolerant mode (DESIGN.md §14) blames
   only a contradiction between signed statements: a mirror that differs
   from the self-report although checker and principal consumed inputs
   with equal digests (same inputs, different function), or a held
   announcement that equals what the principal claims to have announced
   yet differs from its certified state. Every other disagreement is an
   omission, evidence that a message was lost rather than of who is at
   fault; omissions fail the checkpoint with one [culprit = None]
   detection, and a deviation that keeps producing them ends in a stuck
   phase, collective punishment with no one accused. *)
let checkpoint ~fault_tolerant st nodes =
  let rule = st.Node.bank_rule in
  let digest = digest_memo st in
  let detections = ref [] in
  let omissions = ref [] in
  Array.iter
    (fun (node : Node.t) ->
      let p = node.Node.id in
      let expected = digest (st.Node.get node) in
      (* Read by the fault-tolerant mode only, at a disagreement. *)
      let own_inputs = lazy (st.Node.inputs_digest node) in
      let claimed = lazy (Option.map digest (st.Node.slot node).Node.announced) in
      let blamed = ref [] and omitted = ref [] in
      let blame fmt = Printf.ksprintf (fun d -> blamed := d :: !blamed) fmt in
      (* The stock mode blames the principal for an omission too. *)
      let omission = if fault_tolerant then omitted else blamed in
      let omit fmt = Printf.ksprintf (fun d -> omission := d :: !omission) fmt in
      List.iter
        (fun c ->
          let checker = nodes.(c) in
          (* A shielding checker echoes the principal's self-report for
             both of its digests, a coordinated lie that contributes no
             evidence. Honest checkers (if any remain) still catch the
             deviation; a full-neighborhood coalition escapes, the
             paper's "without collusion" boundary (experiment E14). *)
          if not (Adversary.shields checker.Node.plan ~principal:p) then begin
            if not (String.equal (digest (st.Node.mirror checker ~principal:p)) expected)
            then
              if not fault_tolerant then blame "checker %d mirror disagrees" c
              else if
                String.equal (st.Node.mirror_inputs_digest checker ~principal:p)
                  (Lazy.force own_inputs)
              then blame "checker %d mirror disagrees on matching inputs" c
              else omit "checker %d mirror ran on different inputs" c;
            match List.assoc_opt p (st.Node.slot checker).Node.heard with
            | None -> omit "no announcement seen by %d" c
            | Some announced ->
                let announced = digest announced in
                if String.equal announced expected then ()
                else if not fault_tolerant then
                  blame "announcement to %d disagrees with internal state" c
                else if Option.equal String.equal (Some announced) (Lazy.force claimed)
                then blame "announcement to %d contradicts certified internal state" c
                else omit "stale announcement held by %d" c
          end)
        node.Node.neighbors;
      if !blamed <> [] then
        detections :=
          { rule; culprit = Some p; detail = String.concat "; " (List.rev !blamed) }
          :: !detections
      else if !omitted <> [] then
        omissions :=
          Printf.sprintf "node %d: %s" p (String.concat "; " (List.rev !omitted))
          :: !omissions)
    nodes;
  if !detections = [] && !omissions <> [] then
    [
      {
        rule;
        culprit = None;
        detail =
          Printf.sprintf "omission evidence (restart, no blame): %s"
            (String.concat " | " (List.rev !omissions));
      };
    ]
  else List.rev !detections

let checkpoint_routing nodes = checkpoint ~fault_tolerant:false Node.routing_stage nodes
let checkpoint_pricing nodes = checkpoint ~fault_tolerant:false Node.pricing_stage nodes

let checkpoint_bytes phase nodes =
  (* DATA1: one digest per node; BANK1 and BANK2: per principal one
     self-digest plus two digests (mirror + announced) per checker. Each
     digest is 32 bytes plus a 64-byte signed envelope. *)
  let per_digest = 32 + 64 in
  Array.fold_left
    (fun acc (node : Node.t) ->
      match phase with
      | `Costs -> acc + per_digest
      | `Routing | `Pricing ->
          acc + (per_digest * (1 + (2 * List.length node.Node.neighbors))))
    0 nodes

let serialize_report entries =
  entries
  |> List.sort (fun (a, x) (b, y) ->
         let c = Int.compare a b in
         if c <> 0 then c else Float.compare x y)
  |> List.map (fun (k, v) -> Printf.sprintf "%d=%h" k v)
  |> String.concat ";"

type settlement = {
  outlays : float array;
  incomes : float array;
  penalties : float array;
  delivered : float array;
  detections : detection list;
}

(* The certified view: node s's own tables (which, after a clean
   checkpoint, equal every checker's mirror). *)
let certified_path (nodes : Node.t array) s dst =
  match nodes.(s).Node.routing.(dst) with
  | Some e -> Some e.Dijkstra.path
  | None -> None

let deliveries_for (nodes : Node.t array) ~src ~dst =
  List.filter_map
    (fun (s, rate, trace) -> if s = src then Some (rate, trace) else None)
    nodes.(dst).Node.deliveries

let settle ~obs ~checking ~epsilon ~registry ~nodes ~traffic =
  (* The whole settlement runs under one span; the runner's [note] emits
     the per-detection accusation instants, so the bank only marks the
     stage structure. *)
  Damd_obs.Obs.span obs ~cat:"bank"
    ~args:[ ("checking", Damd_util.Json.Bool checking) ]
    "bank.settle"
  @@ fun () ->
  let n = Array.length nodes in
  let outlays = Array.make n 0. in
  let incomes = Array.make n 0. in
  let penalties = Array.make n 0. in
  let delivered = Array.make n 0. in
  let detections = ref [] in
  let detect rule culprit detail = detections := { rule; culprit; detail } :: !detections in
  (* Signed DATA4 reports. The signature is produced with the node's own
     key; deviations lie inside the payload, which signing cannot (and
     should not) prevent — it prevents third-party tampering. *)
  let reports =
    Array.init n (fun i ->
        let entries = Node.payment_report nodes.(i) traffic in
        let key = Signer.key_of registry i in
        let signed = Signer.sign ~key ~signer:i (serialize_report entries) in
        if not (Signer.verify registry signed) then
          detect "EXEC" (Some i) "payment report signature invalid";
        entries)
  in
  (* Delivery accounting, shared by both modes. *)
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst && traffic.(src).(dst) > 0. then
        List.iter (fun (rate, _) -> delivered.(src) <- delivered.(src) +. rate)
          (deliveries_for nodes ~src ~dst)
    done
  done;
  (* Clearing credits each source's outlay and its transits' incomes
     from one DATA4 ledger: the signed reports when naive, the DATA4 the
     bank recomputes from the certified pricing tables when verified. *)
  let ledger =
    if checking then Array.map (fun node -> Node.payments node traffic) nodes else reports
  in
  Array.iteri
    (fun s entries ->
      List.iter
        (fun (k, amount) ->
          outlays.(s) <- outlays.(s) +. amount;
          if k >= 0 && k < n then incomes.(k) <- incomes.(k) +. amount)
        entries)
    ledger;
  if checking then begin
    (* Verified clearing: each report against the ledger. *)
    for s = 0 to n - 1 do
      let reported = List.fold_left (fun acc (_, v) -> acc +. v) 0. reports.(s) in
      let delta = Float.abs (reported -. outlays.(s)) in
      if delta > 1e-6 then begin
        detect "EXEC" (Some s)
          (Printf.sprintf "payment report off by %g (reported %g, owed %g)" delta
             reported outlays.(s));
        penalties.(s) <- penalties.(s) +. delta +. epsilon
      end
      else begin
        (* Totals agree: also verify per-transit attribution against the
           certified tables — shifting money between transits is fraud
           against the shorted transit. *)
        let misattributed =
          List.fold_left
            (fun acc (k, amount) ->
              let claimed = Option.value ~default:0. (List.assoc_opt k reports.(s)) in
              acc +. Float.abs (claimed -. amount))
            0. ledger.(s)
        in
        if misattributed > 1e-6 then begin
          detect "EXEC" (Some s)
            (Printf.sprintf "payment report misattributes %g across transits"
               misattributed);
          penalties.(s) <- penalties.(s) +. epsilon
        end
      end
    done;
    (* Route audit: delivered traces must follow certified paths; missing
       deliveries are traced to the node that forwarded off-path. *)
    for src = 0 to n - 1 do
      for dst = 0 to n - 1 do
        let rate = traffic.(src).(dst) in
        if src <> dst && rate > 0. then
          match certified_path nodes src dst with
          | None -> ()
          | Some path -> (
              let arrivals = deliveries_for nodes ~src ~dst in
              match arrivals with
              | [] -> (
                  detect "EXEC" None
                    (Printf.sprintf "flow %d->%d never delivered" src dst);
                  (* find a witness of off-path carriage *)
                  let transits = Dijkstra.transit_nodes path in
                  let off_path_from =
                    Array.to_list nodes
                    |> List.find_map (fun (v : Node.t) ->
                           if List.mem v.Node.id transits || v.Node.id = src then None
                           else
                             List.find_map
                               (fun (s, d, _, from) ->
                                 if s = src && d = dst then Some from else None)
                               v.Node.carried)
                  in
                  match off_path_from with
                  | Some from ->
                      detect "EXEC" (Some from)
                        (Printf.sprintf "node %d forwarded flow %d->%d off-path" from
                           src dst);
                      penalties.(from) <- penalties.(from) +. epsilon
                  | None -> ())
              | _ ->
                  List.iter
                    (fun (_, trace) ->
                      if trace <> path then begin
                        (* first divergence: the node that made the wrong
                           forwarding decision is the one before it *)
                        let rec diverge_at i t p =
                          match (t, p) with
                          | x :: t', y :: p' when x = y -> diverge_at (i + 1) t' p'
                          | _ -> i
                        in
                        let i = diverge_at 0 trace path in
                        let culprit = if i = 0 then src else List.nth trace (i - 1) in
                        detect "EXEC" (Some culprit)
                          (Printf.sprintf "flow %d->%d strayed from certified path" src
                             dst);
                        penalties.(culprit) <- penalties.(culprit) +. epsilon
                      end)
                    arrivals)
      done
    done
  end;
  { outlays; incomes; penalties; delivered; detections = List.rev !detections }
