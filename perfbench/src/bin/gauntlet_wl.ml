(* Workload [gauntlet]: grade adversarial campaigns.

   The corpus is [campaigns] descriptors of one fixed master seed,
   alternating the stock mix with the mixed-failure mix. The workload
   seed draws the grading order: op [i] grades corpus entry
   [order.(i mod k)], so each campaign is graded several times in a run
   and every repeat must reproduce the first grade's JSON digest.

   Why a fixed corpus: campaign cost spans 10 ms (stock, n = 8) to
   250 ms (faults, n = 16), and a corpus drawn per seed moves the
   medians by 10-15% from composition alone, even stratified by size
   and fault class. A fixed corpus leaves only timing noise between
   seeds. *)

open Measure
module Campaign = Damd_gauntlet.Campaign
module Graph = Damd_graph.Graph
module Engine = Damd_sim.Engine
module Node = Damd_faithful.Node
module Bank = Damd_faithful.Bank
module Protocol = Damd_faithful.Protocol
module Adversary = Damd_faithful.Adversary
module Sha256 = Damd_crypto.Sha256

let fault_mix = { Campaign.stock with Campaign.faults = true }
let is_fault i = i land 1 = 1

let master = 42
let campaigns = 96

let fixtures ~seed =
  let corpus =
    Array.init campaigns (fun i ->
        let d =
          Campaign.of_seed
            ~mix:(if is_fault i then fault_mix else Campaign.stock)
            (Campaign.campaign_seed ~master i)
        in
        (d, Campaign.graph_of d))
  in
  (corpus, Damd_util.Rng.permutation (Damd_util.Rng.create seed) campaigns)

let doc_digest g =
  Digest.to_hex (Digest.string (Json.to_string (Campaign.json_of_graded g)))

(* Correctness state for one run: the first grade of each campaign fixes
   its digest, later grades must match it, and an optional expectation
   (from an earlier run with the same seed) must match too. *)
type checker = {
  seen : string option array;
  expect : string option array;
  mutable why : string list;  (** failure reasons, newest first *)
}

let check ck idx g =
  let dg = doc_digest g in
  let replay_ok =
    match ck.seen.(idx) with
    | None ->
        ck.seen.(idx) <- Some dg;
        true
    | Some d -> String.equal d dg
  in
  let expect_ok =
    match ck.expect.(idx) with None -> true | Some e -> String.equal e dg
  in
  let why =
    if g.Campaign.verdict = Campaign.Violation then Some "violation"
    else if not replay_ok then Some "replay digest differs from the first grade"
    else if not expect_ok then Some "digest differs from the expectation"
    else None
  in
  Option.iter (fun w -> ck.why <- Printf.sprintf "campaign %d: %s" idx w :: ck.why) why;
  why = None

(* --- the traced split --- *)

(* Byte-for-byte copies of the table serializations the bank digests
   ([Protocol.serialize_routing]/[serialize_pricing] are not exported);
   they let the benchmark hash exactly the bytes a checkpoint hashes. *)
let serialize_routing (t : Protocol.routing_table) =
  let buf = Buffer.create 256 in
  Array.iteri
    (fun j e ->
      Buffer.add_string buf (string_of_int j);
      (match e with
      | None -> Buffer.add_string buf ":-"
      | Some e ->
          Buffer.add_string buf (Printf.sprintf ":%h:" e.Damd_graph.Dijkstra.cost);
          List.iter
            (fun v -> Buffer.add_string buf (string_of_int v ^ ","))
            e.Damd_graph.Dijkstra.path);
      Buffer.add_char buf ';')
    t;
  Buffer.contents buf

let serialize_pricing (t : Protocol.pricing_table) =
  let buf = Buffer.create 256 in
  Array.iteri
    (fun j entries ->
      Buffer.add_string buf (string_of_int j);
      Buffer.add_char buf ':';
      List.iter
        (fun (pe : Protocol.price_entry) ->
          Buffer.add_string buf
            (Printf.sprintf "%d=%h[" pe.Protocol.transit pe.Protocol.price);
          List.iter
            (fun tag -> Buffer.add_string buf (string_of_int tag ^ ","))
            pe.Protocol.tags;
          Buffer.add_char buf ']')
        entries;
      Buffer.add_char buf ';')
    t;
  Buffer.contents buf

let serialize_costs costs =
  let buf = Buffer.create 64 in
  Array.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%h;" c)) costs;
  Buffer.contents buf

type shadow = {
  sh_handler_frac : float;
      (** node-handler share of engine-run time (sends excluded) *)
  sh_digest_share : float;  (** SHA-256 share of checkpoint time *)
  sh_sha_bytes : int;  (** bytes one full set of checkpoints hashes *)
  sh_sha_ms : float;
}

(* A faithful construction of the campaign's graph driven through the
   public [Engine]/[Node]/[Bank] calls with every handler, send and
   checkpoint timed. [Runner] installs its handlers internally, so this
   is the only way to split engine dispatch from node work without
   touching the library; the split is applied as a ratio to the traced
   phase spans of the real campaign. *)
let shadow g =
  let n = Graph.n g in
  let neighbor_sets = Array.init n (Graph.neighbors g) in
  let nodes =
    Array.init n (fun id ->
        Node.create ~id ~n ~neighbor_sets ~true_cost:(Graph.cost g id)
          ~deviation:Adversary.Faithful ())
  in
  let engine = Engine.create ~n () in
  let handler_ns = ref 0. and send_ns = ref 0. and run_ns = ref 0. in
  let bank_ns = ref 0. in
  let sends =
    Array.init n (fun src ~dst msg ->
        let t0 = now () in
        Engine.send engine ~src ~dst msg;
        send_ns := !send_ns +. ns_since t0)
  in
  let install f =
    for i = 0 to n - 1 do
      Engine.set_handler engine i (fun ~sender msg ->
          let t0 = now () in
          f i ~sender msg;
          handler_ns := !handler_ns +. ns_since t0)
    done
  in
  let stage f =
    let t0 = now () in
    f ();
    ignore (Engine.run engine);
    run_ns := !run_ns +. ns_since t0
  in
  let bank f =
    let t0 = now () in
    let ds = f nodes in
    bank_ns := !bank_ns +. ns_since t0;
    if ds <> [] then failwith "shadow construction: faithful checkpoint failed"
  in
  install (fun i ~sender msg ->
      match msg with
      | Protocol.Update u -> Node.on_cost_msg nodes.(i) sends.(i) ~sender u
      | _ -> ());
  stage (fun () -> Array.iteri (fun i nd -> Node.announce_cost nd sends.(i)) nodes);
  bank (fun nodes ->
      if Array.for_all Node.finalize_costs nodes then Bank.checkpoint_costs nodes
      else failwith "shadow construction: costs incomplete");
  install (fun i ~sender msg -> Node.on_routing_msg nodes.(i) sends.(i) ~sender msg);
  stage (fun () -> Array.iteri (fun i nd -> Node.start_routing nd sends.(i)) nodes);
  bank (fun nodes -> Bank.checkpoint_routing nodes);
  install (fun i ~sender msg -> Node.on_pricing_msg nodes.(i) sends.(i) ~sender msg);
  stage (fun () -> Array.iteri (fun i nd -> Node.start_pricing nd sends.(i)) nodes);
  bank (fun nodes -> Bank.checkpoint_pricing nodes);
  (* The digests a stock checkpoint set computes: one DATA1 digest per
     node, and per principal one self digest plus a mirror and an
     announced digest per checker in each of BANK1 and BANK2 — on a
     faithful run all three hash the principal's own table. *)
  let inputs =
    Array.to_list nodes
    |> List.concat_map (fun (nd : Node.t) ->
           let copies = 1 + (2 * List.length nd.Node.neighbors) in
           serialize_costs nd.Node.costs
           :: List.init copies (fun _ -> serialize_routing nd.Node.routing)
           @ List.init copies (fun _ -> serialize_pricing nd.Node.pricing))
  in
  let t0 = now () in
  List.iter (fun s -> ignore (Sha256.digest_hex s)) inputs;
  let sha_ns = ns_since t0 in
  let handler = !handler_ns -. !send_ns in
  {
    sh_handler_frac = (if !run_ns > 0. then handler /. !run_ns else 0.);
    sh_digest_share = (if !bank_ns > 0. then Float.min 1. (sha_ns /. !bank_ns) else 0.);
    sh_sha_bytes = List.fold_left (fun a s -> a + String.length s) 0 inputs;
    sh_sha_ms = sha_ns /. 1e6;
  }

(* Pricing.compute on the declared-cost graph: the grader's VCG oracle,
   timed from here because [Campaign.grade] does not span it. *)
let oracle_ms (d, g) =
  let declared =
    List.fold_left
      (fun g (i, dev) ->
        match dev with Adversary.Misreport_cost c -> Graph.with_cost g i c | _ -> g)
      g d.Campaign.deviants
  in
  snd (timed (fun () -> ignore (Damd_fpss.Pricing.compute declared)))

let phase_names =
  [
    ("costs", "construction-1 (costs)");
    ("routing", "construction-2a (routing)");
    ("pricing", "construction-2b (pricing)");
    ("execution", "execution");
  ]

type traced = {
  t_op_ms : float;
  t_phase : (string * float) list;
  t_attempts : int;
  t_checkpoints : int;
  t_failed_cp : int;
  t_checkpoint_ms : float;
  t_settle_ms : float;
  t_events : int;
  t_lost : int;
  t_queue_peak : float;
  t_delivered : int;
  t_completed : bool;
  t_fault : bool;
}

(* One grade under a memory sink, read back into layer totals. A bank
   checkpoint runs between the end of a phase span and the "checkpoint"
   instant the runner emits when the bank returns, so its duration is
   read off that gap. *)
let traced_grade ck idx (d, _) =
  let sink = sink () in
  let g, op_ms = timed (fun () -> Campaign.grade ~obs:sink d) in
  if Obs.dropped sink > 0 then failwith "trace ring buffer wrapped";
  let ok = check ck idx g in
  let ss = spans sink in
  let phase_spans = List.filter (fun s -> String.equal s.scat "phase") ss in
  let cps =
    List.filter_map
      (fun (name, ts, args) ->
        if String.equal name "checkpoint" then
          let failed = List.assoc_opt "outcome" args = Some (Json.String "failed") in
          let last_end =
            List.fold_left
              (fun acc s ->
                let e = s.ts +. s.dur in
                if e <= ts && e > acc then e else acc)
              0. phase_spans
          in
          Some (failed, (ts -. last_end) /. 1e6)
        else None)
      (instants sink)
  in
  let epochs = [ "engine.construction"; "engine.execution" ] in
  let csum name = List.fold_left (fun a e -> a + counter sink (e ^ "." ^ name)) 0 epochs in
  ( ok,
    {
      t_op_ms = op_ms;
      t_phase =
        List.map
          (fun (key, full) ->
            (key, span_ms (fun s -> String.equal s.sname full) phase_spans))
          phase_names;
      t_attempts =
        List.length
          (List.filter (fun s -> not (String.equal s.sname "execution")) phase_spans);
      t_checkpoints = List.length cps;
      t_failed_cp = List.length (List.filter fst cps);
      t_checkpoint_ms = sum (List.map snd cps);
      t_settle_ms = span_ms (fun s -> String.equal s.sname "bank.settle") ss;
      t_events = csum "events_processed";
      t_lost = csum "messages_lost";
      t_queue_peak =
        List.fold_left (fun a e -> Float.max a (gauge_max sink (e ^ ".queue_peak"))) 0. epochs;
      t_delivered = csum "messages_delivered";
      t_completed = g.Campaign.completed;
      t_fault = d.Campaign.fault <> None;
    } )

let run ~seed ~seconds ~trace ~expect =
  let k = campaigns in
  let (fx, order), setup = setup (fun () -> fixtures ~seed) in
  let ck =
    {
      seen = Array.make k None;
      expect = Array.init k (fun i -> List.assoc_opt i expect);
      why = [];
    }
  in
  let attempted = ref 0 and failed = ref 0 in
  let lat = ref [] and stock = ref [] and fault = ref [] in
  let gc0 = gc_mark () in
  let stop = deadline (if trace then seconds /. 2. else seconds) in
  while before stop do
    if not trace then setup_again setup;
    let idx = order.(!attempted mod k) in
    incr attempted;
    match timed (fun () -> Campaign.grade (fst fx.(idx))) with
    | g, ms ->
        if not (check ck idx g) then incr failed;
        lat := op setup idx ms :: !lat;
        if is_fault idx then fault := ms :: !fault else stock := ms :: !stock
    | exception e ->
        incr failed;
        ck.why <- Printf.sprintf "campaign %d: %s" idx (Printexc.to_string e) :: ck.why
  done;
  let minor, majors = gc_delta gc0 in
  let ops = !attempted in
  let first_pass =
    if Array.for_all Option.is_some ck.seen then
      Some
        (Digest.to_hex
           (Digest.string (String.concat "" (Array.to_list (Array.map Option.get ck.seen)))))
    else None
  in
  let info =
    count_info ~setup !lat
    @ [
      ("corpus_master", Json.Int master);
      ("campaigns", Json.Int k);
      ("failures", Json.List (List.rev_map (fun w -> Json.String w) ck.why));
      ("stock_ops", Json.Int (List.length !stock));
      ("fault_ops", Json.Int (List.length !fault));
      ( "replay_digest",
        match first_pass with Some d -> Json.String d | None -> Json.Null );
      ( "campaign_digests",
        Json.List
          (Array.to_list
             (Array.map
                (function Some d -> Json.String d | None -> Json.Null)
                ck.seen)) );
    ]
  in
  if not trace then
    {
      attempted = ops;
      failed = !failed;
      metrics = end_to_end ~setup !lat;
      info;
    }
  else begin
    (* The same campaigns again, each under its own memory sink. *)
    let untraced_ms = sum (wall !lat) in
    let shadows = Hashtbl.create k in
    let per_op = ref [] in
    for i = 0 to ops - 1 do
      let idx = order.(i mod k) in
      match traced_grade ck idx fx.(idx) with
      | ok, t ->
          if not ok then incr failed;
          let sh =
            match Hashtbl.find_opt shadows idx with
            | Some s -> s
            | None ->
                let s = shadow (snd fx.(idx)) in
                Hashtbl.add shadows idx s;
                s
          in
          let oracle = if t.t_completed then oracle_ms fx.(idx) else 0. in
          per_op := (t, sh, oracle) :: !per_op
      | exception _ -> incr failed
    done;
    let per_op = !per_op in
    let nops = float_of_int (max 1 (List.length per_op)) in
    let tot f = List.fold_left (fun a x -> a +. f x) 0. per_op in
    let avg f = tot f /. nops in
    let traced_ms = tot (fun (t, _, _) -> t.t_op_ms) in
    let phase key = avg (fun (t, _, _) -> List.assoc key t.t_phase) in
    let phase_total (t, _, _) = sum (List.map snd t.t_phase) in
    let node_ms = avg (fun ((_, sh, _) as x) -> phase_total x *. sh.sh_handler_frac) in
    let engine_ms = avg phase_total -. node_ms in
    let events = avg (fun (t, _, _) -> float_of_int t.t_events) in
    let calls = avg (fun (t, _, _) -> float_of_int t.t_delivered) in
    let checkpoint_ms = avg (fun (t, _, _) -> t.t_checkpoint_ms) in
    let settle_ms = avg (fun (t, _, _) -> t.t_settle_ms) in
    let oracle = avg (fun (_, _, o) -> o) in
    let op_ms = avg (fun (t, _, _) -> t.t_op_ms) in
    let attributed = avg phase_total +. checkpoint_ms +. settle_ms +. oracle in
    let sha_ms = tot (fun (_, sh, _) -> sh.sh_sha_ms) in
    let sha_bytes = tot (fun (_, sh, _) -> float_of_int sh.sh_sha_bytes) in
    (* Where the stock/fault gap comes from: the same totals per class. *)
    let by_class fault =
      let xs = List.filter (fun (t, _, _) -> t.t_fault = fault) per_op in
      let n = float_of_int (max 1 (List.length xs)) in
      let avg f = List.fold_left (fun a x -> a +. f x) 0. xs /. n in
      Json.Obj
        [
          ("ops", Json.Int (List.length xs));
          ("op_ms", Json.Float (avg (fun (t, _, _) -> t.t_op_ms)));
          ("phase_ms", Json.Float (avg phase_total));
          ("checkpoint_ms", Json.Float (avg (fun (t, _, _) -> t.t_checkpoint_ms)));
          ("attempts", Json.Float (avg (fun (t, _, _) -> float_of_int t.t_attempts)));
          ("failed_checkpoints", Json.Float (avg (fun (t, _, _) -> float_of_int t.t_failed_cp)));
          ("events", Json.Float (avg (fun (t, _, _) -> float_of_int t.t_events)));
          ("messages_lost", Json.Float (avg (fun (t, _, _) -> float_of_int t.t_lost)));
          ("completed", Json.Float (avg (fun (t, _, _) -> if t.t_completed then 1. else 0.)));
        ]
    in
    {
      attempted = ops * 2;
      failed = !failed;
      metrics =
        [
          metric "gauntlet.stock_p50_ms" "ms" (median !stock);
          metric "gauntlet.fault_p50_ms" "ms" (median !fault);
          metric "engine.events" "count" events;
          metric "engine.self_ms" "ms" engine_ms;
          metric "engine.ns_per_event" "ns"
            (if events > 0. then engine_ms *. 1e6 /. events else 0.);
          metric "engine.queue_peak" "count"
            (List.fold_left (fun a (t, _, _) -> Float.max a t.t_queue_peak) 0. per_op);
          metric "engine.messages_lost" "count" (avg (fun (t, _, _) -> float_of_int t.t_lost));
          metric "node.handler_calls" "count" calls;
          metric "node.handler_ms" "ms" node_ms;
          metric "node.ns_per_call" "ns" (if calls > 0. then node_ms *. 1e6 /. calls else 0.);
          metric "bank.checkpoints" "count" (avg (fun (t, _, _) -> float_of_int t.t_checkpoints));
          metric "bank.failed_checkpoints" "count"
            (avg (fun (t, _, _) -> float_of_int t.t_failed_cp));
          metric "bank.checkpoint_ms" "ms" checkpoint_ms;
          metric "bank.settle_ms" "ms" settle_ms;
          metric "bank.digest_share" "fraction" (avg (fun (_, sh, _) -> sh.sh_digest_share));
          metric "sha256.bytes" "bytes" (sha_bytes /. nops);
          metric "sha256.mb_per_s" "MB/s"
            (if sha_ms > 0. then sha_bytes /. 1048576. /. (sha_ms /. 1e3) else 0.);
          metric "phase.costs_ms" "ms" (phase "costs");
          metric "phase.routing_ms" "ms" (phase "routing");
          metric "phase.pricing_ms" "ms" (phase "pricing");
          metric "phase.execution_ms" "ms" (phase "execution");
          metric "phase.attempts" "count" (avg (fun (t, _, _) -> float_of_int t.t_attempts));
          metric "grader.oracle_ms" "ms" oracle;
          metric "grader.self_ms" "ms" (op_ms -. attributed);
          metric "gc.minor_words_per_op" "words" (minor /. float_of_int (max 1 ops));
          metric "gc.major_collections" "count" (float_of_int majors);
          metric "obs.overhead_frac" "fraction"
            (if untraced_ms > 0. then (traced_ms /. untraced_ms) -. 1. else 0.);
          metric "attributed.share" "fraction" (if op_ms > 0. then attributed /. op_ms else 0.);
        ];
      info =
        info
        @ [
            ("stock", by_class false);
            ("fault", by_class true);
            ( "unattributed",
              Json.String
                "Runner.run for the unilateral baselines and epsilon resolution \
                 (Campaign.grade runs them without the sink), graph rebuild and \
                 verdict assembly" );
          ];
    }
  end
