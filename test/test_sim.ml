(* Tests for Damd_sim.Engine: delivery semantics, deterministic ordering,
   per-link FIFO, timers, accounting, the environment shaper and down
   nodes, and repeated run-to-quiescence — the execution pattern the
   faithful protocol uses — and for the seeded Damd_sim.Fault schedules. *)

module Engine = Damd_sim.Engine

let check = Alcotest.check

let test_basic_delivery () =
  let e = Engine.create ~n:2 () in
  let got = ref [] in
  Engine.set_handler e 1 (fun ~sender msg -> got := (sender, msg) :: !got);
  Engine.send e ~src:0 ~dst:1 "hello";
  check Alcotest.bool "quiescent" true (Engine.run e = Engine.Quiescent);
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
    "delivered" [ (0, "hello") ] !got

let test_time_advances_by_latency () =
  let e = Engine.create ~latency:(fun ~src:_ ~dst:_ -> 2.5) ~n:2 () in
  let at = ref 0. in
  Engine.set_handler e 1 (fun ~sender:_ _ -> at := Engine.now e);
  Engine.send e ~src:0 ~dst:1 ();
  ignore (Engine.run e);
  Alcotest.check (Alcotest.float 1e-9) "latency" 2.5 !at

let test_fifo_per_link () =
  let e = Engine.create ~n:2 () in
  let got = ref [] in
  Engine.set_handler e 1 (fun ~sender:_ msg -> got := msg :: !got);
  List.iter (fun m -> Engine.send e ~src:0 ~dst:1 m) [ 1; 2; 3; 4; 5 ];
  ignore (Engine.run e);
  check (Alcotest.list Alcotest.int) "fifo" [ 1; 2; 3; 4; 5 ] (List.rev !got)

let test_cascading_sends () =
  (* A ring relay: 0 -> 1 -> 2 -> 0 decrementing a hop counter. *)
  let e = Engine.create ~n:3 () in
  let hops = ref 0 in
  for i = 0 to 2 do
    Engine.set_handler e i (fun ~sender:_ ttl ->
        incr hops;
        if ttl > 0 then Engine.send e ~src:i ~dst:((i + 1) mod 3) (ttl - 1))
  done;
  Engine.send e ~src:0 ~dst:1 9;
  ignore (Engine.run e);
  check Alcotest.int "10 deliveries" 10 !hops

let test_event_limit () =
  (* Two nodes ping-pong forever; the event limit must stop it. *)
  let e = Engine.create ~n:2 () in
  Engine.set_handler e 0 (fun ~sender:_ () -> Engine.send e ~src:0 ~dst:1 ());
  Engine.set_handler e 1 (fun ~sender:_ () -> Engine.send e ~src:1 ~dst:0 ());
  Engine.send e ~src:0 ~dst:1 ();
  check Alcotest.bool "limited" true (Engine.run ~max_events:100 e = Engine.Event_limit)

let test_no_handler_discards () =
  let e = Engine.create ~n:2 () in
  Engine.send e ~src:0 ~dst:1 "lost";
  check Alcotest.bool "quiescent" true (Engine.run e = Engine.Quiescent);
  check Alcotest.int "still counted" 1 (Engine.messages_delivered e)

let test_timers_interleave () =
  let e = Engine.create ~n:1 () in
  let order = ref [] in
  Engine.set_handler e 0 (fun ~sender:_ tag -> order := tag :: !order);
  Engine.schedule e ~delay:0.5 (fun () -> order := "timer-early" :: !order);
  Engine.send e ~src:0 ~dst:0 "msg-at-1";
  Engine.schedule e ~delay:2.0 (fun () -> order := "timer-late" :: !order);
  ignore (Engine.run e);
  check (Alcotest.list Alcotest.string) "time order"
    [ "timer-early"; "msg-at-1"; "timer-late" ]
    (List.rev !order)

let test_negative_delay_rejected () =
  let e = Engine.create ~n:1 () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: negative delay") (fun () ->
      Engine.schedule e ~delay:(-1.) (fun () -> ()))

let test_out_of_range_send_rejected () =
  let e : unit Engine.t = Engine.create ~n:2 () in
  Alcotest.check_raises "bad dst" (Invalid_argument "Engine.send: node out of range")
    (fun () -> Engine.send e ~src:0 ~dst:7 ())

let test_stats_accounting () =
  let e = Engine.create ~n:3 () in
  Engine.set_size e String.length;
  Engine.set_handler e 1 (fun ~sender:_ _ -> ());
  Engine.set_handler e 2 (fun ~sender:_ _ -> ());
  Engine.send e ~src:0 ~dst:1 "four";
  Engine.send e ~src:0 ~dst:2 "sixsix";
  Engine.send e ~src:1 ~dst:2 "a";
  ignore (Engine.run e);
  check Alcotest.int "sent" 3 (Engine.messages_sent e);
  check Alcotest.int "delivered" 3 (Engine.messages_delivered e);
  check Alcotest.int "bytes" 11 (Engine.bytes_sent e);
  Engine.reset_stats e;
  check Alcotest.int "reset" 0 (Engine.messages_sent e)

let test_rerun_after_quiescence () =
  (* The faithful protocol's pattern: run to quiescence, act (bank
     checkpoint), inject new messages, run again. Time must persist. *)
  let e = Engine.create ~n:2 () in
  let log = ref [] in
  Engine.set_handler e 1 (fun ~sender:_ msg -> log := (Engine.now e, msg) :: !log);
  Engine.send e ~src:0 ~dst:1 "phase1";
  check Alcotest.bool "first run" true (Engine.run e = Engine.Quiescent);
  Engine.send e ~src:0 ~dst:1 "phase2";
  check Alcotest.bool "second run" true (Engine.run e = Engine.Quiescent);
  match List.rev !log with
  | [ (t1, "phase1"); (t2, "phase2") ] ->
      check Alcotest.bool "time persists" true (t2 > t1)
  | _ -> Alcotest.fail "unexpected log"

let test_deterministic_replay () =
  (* Two identical runs produce identical delivery traces. *)
  let trace () =
    let e = Engine.create ~n:4 () in
    let log = ref [] in
    for i = 0 to 3 do
      Engine.set_handler e i (fun ~sender msg ->
          log := (i, sender, msg) :: !log;
          if msg > 0 then Engine.send e ~src:i ~dst:((i + msg) mod 4) (msg - 1))
    done;
    Engine.send e ~src:0 ~dst:1 5;
    Engine.send e ~src:0 ~dst:2 5;
    ignore (Engine.run e);
    List.rev !log
  in
  check Alcotest.bool "identical traces" true (trace () = trace ())

let test_self_send () =
  let e = Engine.create ~n:1 () in
  let got = ref false in
  Engine.set_handler e 0 (fun ~sender msg ->
      got := sender = 0 && msg = "self");
  Engine.send e ~src:0 ~dst:0 "self";
  ignore (Engine.run e);
  check Alcotest.bool "self delivered" true !got

let test_heterogeneous_latency_ordering () =
  (* A slower link's message arrives after a faster link's later send. *)
  let latency ~src ~dst:_ = if src = 0 then 5.0 else 1.0 in
  let e = Engine.create ~latency ~n:3 () in
  let got = ref [] in
  Engine.set_handler e 2 (fun ~sender msg -> got := (sender, msg) :: !got);
  Engine.send e ~src:0 ~dst:2 "slow";
  Engine.send e ~src:1 ~dst:2 "fast";
  ignore (Engine.run e);
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
    "fast first"
    [ (1, "fast"); (0, "slow") ]
    (List.rev !got)

let test_fifo_preserved_per_link_with_heterogeneous_latency () =
  let latency ~src ~dst:_ = if src = 0 then 3.0 else 1.0 in
  let e = Engine.create ~latency ~n:2 () in
  let got = ref [] in
  Engine.set_handler e 1 (fun ~sender:_ msg -> got := msg :: !got);
  List.iter (fun m -> Engine.send e ~src:0 ~dst:1 m) [ 1; 2; 3 ];
  ignore (Engine.run e);
  check (Alcotest.list Alcotest.int) "per-link fifo" [ 1; 2; 3 ] (List.rev !got)

let test_default_size_is_one_byte () =
  let e = Engine.create ~n:2 () in
  Engine.send e ~src:0 ~dst:1 "whatever";
  check Alcotest.int "one byte" 1 (Engine.bytes_sent e)

let test_run_on_empty_engine () =
  let e : unit Engine.t = Engine.create ~n:0 () in
  check Alcotest.bool "empty quiescent" true (Engine.run e = Engine.Quiescent)

let test_timer_can_send () =
  let e = Engine.create ~n:2 () in
  let got = ref false in
  Engine.set_handler e 1 (fun ~sender:_ () -> got := true);
  Engine.schedule e ~delay:2. (fun () -> Engine.send e ~src:0 ~dst:1 ());
  ignore (Engine.run e);
  check Alcotest.bool "timer-driven send delivered" true !got

let test_equal_time_cross_link_order () =
  (* Three messages on distinct links all arrive at t=1.0; the sequence
     number assigned at enqueue time must break the tie, so delivery
     follows send order — the guarantee gauntlet replay rests on. *)
  let e = Engine.create ~n:4 () in
  let got = ref [] in
  Engine.set_handler e 3 (fun ~sender msg -> got := (sender, msg) :: !got);
  Engine.send e ~src:2 ~dst:3 "c";
  Engine.send e ~src:0 ~dst:3 "a";
  Engine.send e ~src:1 ~dst:3 "b";
  ignore (Engine.run e);
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
    "enqueue order at equal timestamps"
    [ (2, "c"); (0, "a"); (1, "b") ]
    (List.rev !got)

let test_identical_traces_with_timers_and_ties () =
  (* Interleaved cascading sends and a timer, with many equal timestamps
     (every link has latency 1): two independent engines must produce
     identical (time, node, sender, msg) traces and identical processed
     event counts. *)
  let trace () =
    let e = Engine.create ~n:3 () in
    let log = ref [] in
    for i = 0 to 2 do
      Engine.set_handler e i (fun ~sender msg ->
          log := (Engine.now e, i, sender, msg) :: !log;
          if msg > 0 then begin
            Engine.send e ~src:i ~dst:((i + 1) mod 3) (msg - 1);
            Engine.send e ~src:i ~dst:((i + 2) mod 3) (msg - 1)
          end)
    done;
    Engine.schedule e ~delay:1. (fun () ->
        log := (Engine.now e, -1, -1, 99) :: !log);
    Engine.send e ~src:0 ~dst:1 3;
    Engine.send e ~src:0 ~dst:2 3;
    ignore (Engine.run e);
    let p1 = Engine.events_processed e in
    (* Warm-start epoch: [reset_stats] zeroes [events_processed] too, so
       replaying the same sends gives the same per-phase schedule-length
       fingerprint (minus the timer, which is not rescheduled) instead of
       a cumulative count mixing epochs. *)
    Engine.reset_stats e;
    Engine.send e ~src:0 ~dst:1 3;
    Engine.send e ~src:0 ~dst:2 3;
    ignore (Engine.run e);
    check Alcotest.int "warm-start epoch fingerprint" (p1 - 1)
      (Engine.events_processed e);
    (List.rev !log, p1)
  in
  check Alcotest.bool "identical traces and event counts" true
    (trace () = trace ())

let test_reset_stats_keeps_clock_and_processed () =
  (* reset_stats zeroes every counter — including [events_processed],
     which it used to miss, silently mixing epochs across warm-start
     runs — but must not rewind simulated time. *)
  let e = Engine.create ~n:2 () in
  Engine.set_handler e 1 (fun ~sender:_ _ -> ());
  Engine.send e ~src:0 ~dst:1 ();
  ignore (Engine.run e);
  let t1 = Engine.now e in
  check Alcotest.int "one event in epoch 1" 1 (Engine.events_processed e);
  Engine.reset_stats e;
  check Alcotest.int "counters reset" 0 (Engine.messages_sent e);
  check (Alcotest.float 1e-9) "clock untouched" t1 (Engine.now e);
  check Alcotest.int "processed reset with the other counters" 0
    (Engine.events_processed e);
  Engine.send e ~src:0 ~dst:1 ();
  Engine.send e ~src:0 ~dst:1 ();
  ignore (Engine.run e);
  check Alcotest.bool "clock monotone after reset" true (Engine.now e > t1);
  check Alcotest.int "epoch 2 counts only its own events" 2
    (Engine.events_processed e)

let test_event_limit_vs_quiescent_boundary () =
  (* The queue is consulted before the budget: a run that drains on
     exactly its last allowed event is Quiescent (the old budget-first
     check misreported this boundary as Event_limit). Event_limit now
     means events genuinely remain pending, and they stay queued so the
     run resumes. *)
  let fresh () =
    let e = Engine.create ~n:2 () in
    Engine.set_handler e 1 (fun ~sender:_ _ -> ());
    for _ = 1 to 5 do
      Engine.send e ~src:0 ~dst:1 ()
    done;
    e
  in
  let e = fresh () in
  check Alcotest.bool "budget above count quiesces" true
    (Engine.run ~max_events:6 e = Engine.Quiescent);
  let e = fresh () in
  check Alcotest.bool "exact budget quiesces" true
    (Engine.run ~max_events:5 e = Engine.Quiescent);
  check Alcotest.int "all events processed" 5 (Engine.events_processed e);
  let e = fresh () in
  check Alcotest.bool "short budget limits" true
    (Engine.run ~max_events:4 e = Engine.Event_limit);
  check Alcotest.int "only budgeted events processed" 4 (Engine.events_processed e);
  check Alcotest.bool "resumes to quiescence" true
    (Engine.run e = Engine.Quiescent);
  check Alcotest.int "resumed run delivers the remainder" 5
    (Engine.events_processed e)

let test_out_of_range_set_handler_rejected () =
  let e : unit Engine.t = Engine.create ~n:2 () in
  Alcotest.check_raises "bad handler index"
    (Invalid_argument "Engine.set_handler: node out of range") (fun () ->
      Engine.set_handler e 2 (fun ~sender:_ () -> ()));
  Alcotest.check_raises "negative handler index"
    (Invalid_argument "Engine.set_handler: node out of range") (fun () ->
      Engine.set_handler e (-1) (fun ~sender:_ () -> ()))

let test_out_of_range_src_rejected () =
  let e : unit Engine.t = Engine.create ~n:2 () in
  Alcotest.check_raises "bad src" (Invalid_argument "Engine.send: node out of range")
    (fun () -> Engine.send e ~src:(-1) ~dst:1 ())

(* --- fault injection: shaper, down nodes, seeded schedules --- *)

module Fault = Damd_sim.Fault

(* [Fault] decides; the caller owns the engine's shaper hook. *)
let install e spec =
  let ctl = Fault.create ~n:(Engine.n e) spec in
  Engine.set_shaper e (Fault.shape ctl);
  ctl

let test_shaper_lose_delay_and_clear () =
  let e = Engine.create ~n:3 () in
  let got = ref [] in
  for i = 1 to 2 do
    Engine.set_handler e i (fun ~sender:_ msg -> got := (i, msg) :: !got)
  done;
  Engine.set_shaper e (fun ~src:_ ~dst ~now:_ msg ->
      if dst = 1 && msg = "lose" then Engine.Lose
      else if msg = "slow" then Engine.Delay 5.
      else Engine.Pass);
  Engine.send e ~src:0 ~dst:1 "lose";
  Engine.send e ~src:0 ~dst:2 "slow";
  (* same link, sent after "slow", but undelayed: overtakes it *)
  Engine.send e ~src:0 ~dst:2 "fast";
  ignore (Engine.run e);
  check Alcotest.int "shaper Lose counted" 1 (Engine.messages_lost e);
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
    "Delay reorders within the link"
    [ (2, "fast"); (2, "slow") ]
    (List.rev !got);
  Engine.clear_shaper e;
  Engine.send e ~src:0 ~dst:1 "lose";
  ignore (Engine.run e);
  check Alcotest.bool "clear_shaper restores delivery" true
    (List.mem (1, "lose") !got)

let test_down_node_loses_both_directions () =
  let e = Engine.create ~n:2 () in
  let got = ref 0 in
  Engine.set_handler e 0 (fun ~sender:_ () -> incr got);
  Engine.set_handler e 1 (fun ~sender:_ () -> incr got);
  Engine.set_down e 1 true;
  check Alcotest.bool "is_down" true (Engine.is_down e 1);
  Engine.send e ~src:0 ~dst:1 ();
  Engine.send e ~src:1 ~dst:0 ();
  ignore (Engine.run e);
  check Alcotest.int "lost at send and at delivery" 2 (Engine.messages_lost e);
  check Alcotest.int "nothing delivered" 0 !got;
  Engine.all_up e;
  check Alcotest.bool "all_up revives" false (Engine.is_down e 1);
  Engine.send e ~src:0 ~dst:1 ();
  ignore (Engine.run e);
  check Alcotest.int "delivery restored" 1 !got

let test_fault_loss_deterministic () =
  let run_once () =
    let e = Engine.create ~n:4 () in
    let log = ref [] in
    for i = 0 to 3 do
      Engine.set_handler e i (fun ~sender msg ->
          log := (i, sender, msg) :: !log;
          if msg > 0 then Engine.send e ~src:i ~dst:((i + 1) mod 4) (msg - 1))
    done;
    let spec =
      {
        Fault.seed = 77;
        link = Some { Fault.loss_p = 0.3; reorder_p = 0.3; reorder_delay = 2.5 };
        partition = None;
        crash = None;
      }
    in
    ignore (install e spec);
    Engine.send e ~src:0 ~dst:1 30;
    Engine.send e ~src:2 ~dst:3 30;
    ignore (Engine.run e);
    (List.rev !log, Engine.messages_lost e, Engine.events_processed e)
  in
  let a = run_once () in
  let b = run_once () in
  check Alcotest.bool "same seed, bit-identical trace" true (a = b);
  let _, lost, _ = a in
  check Alcotest.bool "losses actually occurred" true (lost > 0)

let test_fault_crash_window () =
  let e = Engine.create ~n:2 () in
  let delivered = ref [] in
  Engine.set_handler e 0 (fun ~sender:_ _ -> ());
  Engine.set_handler e 1 (fun ~sender:_ msg -> delivered := msg :: !delivered);
  let spec =
    {
      Fault.seed = 1;
      link = None;
      partition = None;
      crash =
        Some { Fault.node = 1; crash_phase = `Routing; at = 2.; recovers_at = 5. };
    }
  in
  let ctl = install e spec in
  (* anchored to `Routing: arming `Costs does nothing *)
  Fault.arm e ctl ~phase:`Costs;
  Engine.send e ~src:0 ~dst:1 "costs-phase";
  ignore (Engine.run e);
  check Alcotest.bool "not down before its phase" false (Engine.is_down e 1);
  let crashed = ref (-1.) in
  let recovered = ref (-1.) in
  let t0 = Engine.now e in
  Fault.arm e ctl ~phase:`Routing
    ~on_crash:(fun i ->
      check Alcotest.int "crash callback node" 1 i;
      crashed := Engine.now e)
    ~on_recover:(fun _ -> recovered := Engine.now e);
  (* lands at t0+4, inside the down window [t0+2, t0+5) *)
  Engine.schedule e ~delay:3. (fun () -> Engine.send e ~src:0 ~dst:1 "mid");
  Engine.schedule e ~delay:6. (fun () -> Engine.send e ~src:0 ~dst:1 "after");
  ignore (Engine.run e);
  check (Alcotest.float 1e-9) "crash offset from phase start" (t0 +. 2.) !crashed;
  check (Alcotest.float 1e-9) "recover offset" (t0 +. 5.) !recovered;
  check Alcotest.bool "in-window message lost" true
    (not (List.mem "mid" !delivered));
  check Alcotest.bool "post-recovery message delivered" true
    (List.mem "after" !delivered)

let test_fault_partition_window_and_heal () =
  let e = Engine.create ~n:4 () in
  let got = ref [] in
  for i = 0 to 3 do
    Engine.set_handler e i (fun ~sender:_ msg -> got := msg :: !got)
  done;
  let spec =
    {
      Fault.seed = 3;
      link = None;
      partition =
        Some { Fault.island = [ 0; 1 ]; part_phase = `Costs; at = 0.; heals_at = 4. };
      crash = None;
    }
  in
  let ctl = install e spec in
  Fault.arm e ctl ~phase:`Costs;
  Engine.send e ~src:0 ~dst:2 "cross-early";
  Engine.send e ~src:0 ~dst:1 "intra-island";
  Engine.send e ~src:2 ~dst:3 "outside-island";
  Engine.schedule e ~delay:5. (fun () -> Engine.send e ~src:0 ~dst:2 "cross-late");
  ignore (Engine.run e);
  check Alcotest.bool "cut message lost in window" true
    (not (List.mem "cross-early" !got));
  check Alcotest.bool "intra-island passes" true (List.mem "intra-island" !got);
  check Alcotest.bool "outside-island passes" true
    (List.mem "outside-island" !got);
  check Alcotest.bool "link heals" true (List.mem "cross-late" !got);
  check Alcotest.int "exactly the cut message lost" 1 (Engine.messages_lost e)

let test_fault_deactivate_stops_injection () =
  let e = Engine.create ~n:2 () in
  let got = ref 0 in
  Engine.set_handler e 1 (fun ~sender:_ () -> incr got);
  let spec =
    {
      Fault.seed = 5;
      link = Some { Fault.loss_p = 1.; reorder_p = 0.; reorder_delay = 0. };
      partition = None;
      crash = None;
    }
  in
  let ctl = install e spec in
  Engine.send e ~src:0 ~dst:1 ();
  ignore (Engine.run e);
  check Alcotest.int "total loss while active" 0 !got;
  check Alcotest.bool "active" true (Fault.active ctl);
  Fault.deactivate e ctl;
  Engine.send e ~src:0 ~dst:1 ();
  ignore (Engine.run e);
  check Alcotest.int "delivery restored after deactivate" 1 !got;
  check Alcotest.bool "inactive" false (Fault.active ctl)

let test_fault_validate_rejects_malformed () =
  let e : unit Engine.t = Engine.create ~n:3 () in
  let bad l p c = { Fault.seed = 0; link = l; partition = p; crash = c } in
  List.iter
    (fun spec ->
      check Alcotest.bool "malformed spec rejected" true
        (match install e spec with
        | exception Invalid_argument _ -> true
        | _ -> false))
    [
      bad (Some { Fault.loss_p = 1.5; reorder_p = 0.; reorder_delay = 0. }) None None;
      bad (Some { Fault.loss_p = 0.1; reorder_p = -0.1; reorder_delay = 0. }) None
        None;
      bad None
        (Some { Fault.island = [ 3 ]; part_phase = `Costs; at = 0.; heals_at = 1. })
        None;
      bad None
        (Some { Fault.island = [ 0 ]; part_phase = `Costs; at = 2.; heals_at = 1. })
        None;
      bad None None
        (Some { Fault.node = -1; crash_phase = `Costs; at = 0.; recovers_at = 1. });
      bad None None
        (Some { Fault.node = 0; crash_phase = `Costs; at = 3.; recovers_at = 1. });
    ]

(* --- obs-layer counter semantics under faults --- *)

module Obs = Damd_obs.Obs
module Metrics = Damd_obs.Metrics

let test_obs_kind_counters_under_faults () =
  (* Shaper losses and crashed src/dst losses are all counted as sent and
     then lost, each classified per message kind for the obs layer; only
     the shaper's are shaper decisions. *)
  let e = Engine.create ~n:4 () in
  Engine.set_obs e (Obs.memory ()) ~kinds:[| "a"; "b" |] ~kind_of:(fun m -> m);
  for i = 0 to 3 do
    Engine.set_handler e i (fun ~sender:_ _ -> ())
  done;
  Engine.set_shaper e (fun ~src:_ ~dst ~now:_ msg ->
      if dst = 1 && msg = 1 then Engine.Lose else Engine.Pass);
  Engine.set_down e 3 true;
  Engine.send e ~src:0 ~dst:1 0 (* delivered, kind a *);
  Engine.send e ~src:0 ~dst:1 1 (* shaper-lost, kind b *);
  Engine.send e ~src:0 ~dst:3 1 (* lost at delivery: crashed dst, kind b *);
  Engine.send e ~src:3 ~dst:1 0 (* lost at send: crashed src, kind a *);
  ignore (Engine.run e);
  check Alcotest.int "sent includes lost" 4 (Engine.messages_sent e);
  check Alcotest.int "bytes include lost" 4 (Engine.bytes_sent e);
  check Alcotest.int "delivered" 1 (Engine.messages_delivered e);
  check Alcotest.int "lost = shaper + down-dst + down-src" 3
    (Engine.messages_lost e);
  check Alcotest.int "shaper losses" 1 (Engine.shaper_losses e);
  check Alcotest.int "shaper delays" 0 (Engine.shaper_delays e);
  check Alcotest.bool "queue peak positive" true (Engine.queue_peak e > 0);
  check Alcotest.bool "per-kind counters" true
    (Engine.kind_stats e = [ ("a", 2, 1, 1); ("b", 2, 0, 2) ])

let test_reset_stats_zeroes_obs_counters () =
  (* Regression guard for the PR-5 events_processed bug class: every
     counter the obs layer snapshots must be zeroed by reset_stats —
     shaper decisions, queue peak and the per-kind arrays included. *)
  let e = Engine.create ~n:4 () in
  Engine.set_obs e (Obs.memory ()) ~kinds:[| "a"; "b" |] ~kind_of:(fun m -> m);
  for i = 0 to 3 do
    Engine.set_handler e i (fun ~sender:_ _ -> ())
  done;
  Engine.set_shaper e (fun ~src:_ ~dst:_ ~now:_ msg ->
      if msg = 1 then Engine.Lose else Engine.Delay 0.5);
  Engine.send e ~src:0 ~dst:1 0;
  Engine.send e ~src:0 ~dst:1 1;
  ignore (Engine.run e);
  check Alcotest.bool "counters moved" true
    (Engine.messages_sent e > 0 && Engine.shaper_losses e > 0
    && Engine.shaper_delays e > 0 && Engine.queue_peak e > 0);
  Engine.reset_stats e;
  check Alcotest.int "sent" 0 (Engine.messages_sent e);
  check Alcotest.int "delivered" 0 (Engine.messages_delivered e);
  check Alcotest.int "lost" 0 (Engine.messages_lost e);
  check Alcotest.int "bytes" 0 (Engine.bytes_sent e);
  check Alcotest.int "events processed" 0 (Engine.events_processed e);
  check Alcotest.int "shaper losses" 0 (Engine.shaper_losses e);
  check Alcotest.int "shaper delays" 0 (Engine.shaper_delays e);
  check Alcotest.int "queue peak" 0 (Engine.queue_peak e);
  check Alcotest.bool "per-kind zeroed" true
    (Engine.kind_stats e = [ ("a", 0, 0, 0); ("b", 0, 0, 0) ])

let test_obs_metrics_snapshot () =
  let e = Engine.create ~n:2 () in
  Engine.set_obs e (Obs.memory ()) ~kinds:[| "a" |] ~kind_of:(fun _ -> 0);
  Engine.set_handler e 1 (fun ~sender:_ _ -> ());
  Engine.send e ~src:0 ~dst:1 ();
  ignore (Engine.run e);
  let reg = Metrics.create () in
  Engine.obs_metrics ~prefix:"epoch" e reg;
  let counter name = Metrics.counter_value (Metrics.counter reg name) in
  check Alcotest.int "prefixed sent" 1 (counter "epoch.messages_sent");
  check Alcotest.int "prefixed per-kind" 1 (counter "epoch.delivered.a")

let suites =
  [
    ( "sim.engine",
      [
        Alcotest.test_case "basic delivery" `Quick test_basic_delivery;
        Alcotest.test_case "latency" `Quick test_time_advances_by_latency;
        Alcotest.test_case "fifo per link" `Quick test_fifo_per_link;
        Alcotest.test_case "cascading sends" `Quick test_cascading_sends;
        Alcotest.test_case "event limit" `Quick test_event_limit;
        Alcotest.test_case "no handler discards" `Quick test_no_handler_discards;
        Alcotest.test_case "timers interleave" `Quick test_timers_interleave;
        Alcotest.test_case "negative delay rejected" `Quick test_negative_delay_rejected;
        Alcotest.test_case "out of range rejected" `Quick test_out_of_range_send_rejected;
        Alcotest.test_case "stats accounting" `Quick test_stats_accounting;
        Alcotest.test_case "rerun after quiescence" `Quick test_rerun_after_quiescence;
        Alcotest.test_case "deterministic replay" `Quick test_deterministic_replay;
        Alcotest.test_case "self send" `Quick test_self_send;
        Alcotest.test_case "heterogeneous latency ordering" `Quick
          test_heterogeneous_latency_ordering;
        Alcotest.test_case "fifo with heterogeneous latency" `Quick
          test_fifo_preserved_per_link_with_heterogeneous_latency;
        Alcotest.test_case "default size" `Quick test_default_size_is_one_byte;
        Alcotest.test_case "empty engine" `Quick test_run_on_empty_engine;
        Alcotest.test_case "timer can send" `Quick test_timer_can_send;
        Alcotest.test_case "equal-time cross-link order" `Quick
          test_equal_time_cross_link_order;
        Alcotest.test_case "identical traces with ties" `Quick
          test_identical_traces_with_timers_and_ties;
        Alcotest.test_case "reset_stats keeps clock" `Quick
          test_reset_stats_keeps_clock_and_processed;
        Alcotest.test_case "event limit boundary" `Quick
          test_event_limit_vs_quiescent_boundary;
        Alcotest.test_case "out of range set_handler" `Quick
          test_out_of_range_set_handler_rejected;
        Alcotest.test_case "out of range src" `Quick
          test_out_of_range_src_rejected;
        Alcotest.test_case "shaper lose/delay/clear" `Quick
          test_shaper_lose_delay_and_clear;
        Alcotest.test_case "down node loses both ways" `Quick
          test_down_node_loses_both_directions;
        Alcotest.test_case "obs kind counters under faults" `Quick
          test_obs_kind_counters_under_faults;
        Alcotest.test_case "reset_stats zeroes obs counters" `Quick
          test_reset_stats_zeroes_obs_counters;
        Alcotest.test_case "obs_metrics snapshot prefixing" `Quick
          test_obs_metrics_snapshot;
      ] );
    ( "sim.fault",
      [
        Alcotest.test_case "seeded loss deterministic" `Quick
          test_fault_loss_deterministic;
        Alcotest.test_case "crash window offsets" `Quick
          test_fault_crash_window;
        Alcotest.test_case "partition window heals" `Quick
          test_fault_partition_window_and_heal;
        Alcotest.test_case "deactivate ends injection" `Quick
          test_fault_deactivate_stops_injection;
        Alcotest.test_case "validate rejects malformed" `Quick
          test_fault_validate_rejects_malformed;
      ] );
  ]
