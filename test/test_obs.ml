(* Tests for Damd_obs: monotonic clock, metrics registry (counters,
   gauges, histogram percentiles), sink semantics (noop hot-path
   allocation freedom, ring wrap-around, span nesting/exceptions), and
   both export formats (damd-trace/1 and Chrome trace_event). *)

module Clock = Damd_obs.Clock
module Metrics = Damd_obs.Metrics
module Obs = Damd_obs.Obs
module Export = Damd_obs.Export
module Json = Damd_util.Json

let check = Alcotest.check
let checkf = Alcotest.check (Alcotest.float 1e-9)

(* --- clock --- *)

let test_clock_monotone () =
  let a = Clock.now_ns () in
  let b = Clock.now_ns () in
  let c = Clock.now_ns () in
  check Alcotest.bool "b >= a" true (Int64.compare b a >= 0);
  check Alcotest.bool "c >= b" true (Int64.compare c b >= 0)

let test_clock_advances () =
  let t0 = Clock.now_ns () in
  (* burn enough work that even a coarse clock must tick *)
  let acc = ref 0 in
  for i = 1 to 2_000_000 do
    acc := !acc + i
  done;
  ignore (Sys.opaque_identity !acc);
  check Alcotest.bool "elapsed > 0" true (Clock.s_since t0 > 0.)

let test_clock_conversions () =
  checkf "ns_to_s" 1.5 (Clock.ns_to_s 1_500_000_000L);
  checkf "ns_to_us" 2.5 (Clock.ns_to_us 2_500L)

(* --- metrics --- *)

let test_counter_and_gauge () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "sent" in
  Metrics.incr c;
  Metrics.incr c;
  Metrics.add c 3;
  check Alcotest.int "counter" 5 (Metrics.counter_value c);
  let g = Metrics.gauge reg "depth" in
  Metrics.set g 4.;
  Metrics.set g 9.;
  Metrics.set g 2.;
  checkf "gauge holds last" 2. (Metrics.gauge_value g);
  checkf "gauge max" 9. (Metrics.gauge_max g);
  (* same name returns the same instrument *)
  Metrics.incr (Metrics.counter reg "sent");
  check Alcotest.int "interned" 6 (Metrics.counter_value c)

let test_histogram_exact_percentiles () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg "lat" in
  for i = 1 to 100 do
    Metrics.observe h (float_of_int i)
  done;
  (* below reservoir capacity: percentiles are exact (Stats.percentile) *)
  checkf "p50" 50.5 (Metrics.percentile h 50.);
  checkf "p95" 95.05 (Metrics.percentile h 95.);
  checkf "p99" 99.01 (Metrics.percentile h 99.);
  check Alcotest.int "count" 100 (Metrics.hist_count h)

let test_histogram_overflow_percentiles () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg "lat" in
  (* push past the reservoir so the bucket-interpolation path runs *)
  let n = Metrics.reservoir_capacity + 5000 in
  for i = 1 to n do
    Metrics.observe h (float_of_int (i mod 1000))
  done;
  let p50 = Metrics.percentile h 50. in
  let p99 = Metrics.percentile h 99. in
  check Alcotest.bool "p50 plausible" true (p50 > 100. && p50 < 900.);
  check Alcotest.bool "p99 >= p50" true (p99 >= p50);
  check Alcotest.bool "p99 bounded by max" true (p99 <= 999.)

let test_histogram_empty_nan () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg "empty" in
  check Alcotest.bool "nan when empty" true
    (Float.is_nan (Metrics.percentile h 50.))

let test_metrics_to_json () =
  let reg = Metrics.create () in
  Metrics.incr (Metrics.counter reg "c");
  Metrics.set (Metrics.gauge reg "g") 7.;
  Metrics.observe (Metrics.histogram reg "h") 3.;
  match Metrics.to_json reg with
  | Json.Obj fields ->
      check Alcotest.bool "counters" true (List.mem_assoc "counters" fields);
      check Alcotest.bool "gauges" true (List.mem_assoc "gauges" fields);
      check Alcotest.bool "histograms" true (List.mem_assoc "histograms" fields)
  | _ -> Alcotest.fail "metrics json not an object"

(* --- sinks --- *)

let test_noop_is_disabled_and_transparent () =
  check Alcotest.bool "disabled" false (Obs.enabled Obs.noop);
  check Alcotest.bool "no metrics" true (Obs.metrics Obs.noop = None);
  check Alcotest.int "span returns" 42 (Obs.span Obs.noop "x" (fun () -> 42));
  Obs.instant Obs.noop "i";
  Obs.sample Obs.noop "s" 1.;
  check Alcotest.int "no events" 0 (List.length (Obs.events Obs.noop))

let test_noop_span_allocation_free () =
  (* the tentpole's hot-path guarantee: a noop span is a tag test plus the
     direct call — no allocation on the minor heap *)
  let f = Sys.opaque_identity (fun () -> 0) in
  ignore (Obs.span Obs.noop "warm" f);
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Obs.span Obs.noop "hot" f)
  done;
  let after = Gc.minor_words () in
  checkf "zero minor words" 0. (after -. before)

let test_memory_records_events () =
  let obs = Obs.memory () in
  check Alcotest.bool "enabled" true (Obs.enabled obs);
  check Alcotest.bool "not detailed by default" false (Obs.detailed obs);
  let r =
    Obs.span obs ~cat:"t" ~args:[ ("k", Json.Int 1) ] "outer" (fun () ->
        Obs.instant obs ~cat:"t" "mark";
        Obs.sample obs "track" 3.;
        "ok")
  in
  check Alcotest.string "span result" "ok" r;
  let events = Obs.events obs in
  check Alcotest.int "three events" 3 (List.length events);
  (* ring holds completion order: the inner instant and sample land
     before the enclosing span is recorded at exit *)
  match events with
  | [
   Obs.Instant { name = iname; ts_ns = its; _ };
   Obs.Sample { name = sname; value; _ };
   Obs.Span { name = spname; depth; ts_ns = spts; dur_ns; _ };
  ] ->
      check Alcotest.string "instant name" "mark" iname;
      check Alcotest.string "sample name" "track" sname;
      checkf "sample value" 3. value;
      check Alcotest.string "span name" "outer" spname;
      check Alcotest.int "span depth" 0 depth;
      check Alcotest.bool "span has duration" true (dur_ns >= 0L);
      check Alcotest.bool "instant inside span" true (its >= spts)
  | _ -> Alcotest.fail "unexpected event shapes"

let test_span_nesting_depth () =
  let obs = Obs.memory () in
  Obs.span obs "outer" (fun () ->
      Obs.span obs "inner" (fun () -> ()));
  let depths =
    List.filter_map
      (function
        | Obs.Span { name; depth; _ } -> Some (name, depth)
        | _ -> None)
      (Obs.events obs)
  in
  (* inner completes first; it ran under one open span *)
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "depths" [ ("inner", 1); ("outer", 0) ] depths

let test_span_exception_recorded () =
  let obs = Obs.memory () in
  (try Obs.span obs "boom" (fun () -> failwith "kaput") with
  | Failure _ -> ());
  match Obs.events obs with
  | [ Obs.Span { name; args; _ } ] ->
      check Alcotest.string "name" "boom" name;
      check Alcotest.bool "error arg" true
        (List.assoc_opt "error" args = Some (Json.Bool true))
  | _ -> Alcotest.fail "span not recorded on raise"

let test_ring_wraps_and_counts_dropped () =
  let obs = Obs.memory ~capacity:8 () in
  for i = 1 to 20 do
    Obs.instant obs ~args:[ ("i", Json.Int i) ] "e"
  done;
  let events = Obs.events obs in
  check Alcotest.int "capacity retained" 8 (List.length events);
  check Alcotest.int "dropped" 12 (Obs.dropped obs);
  (* oldest-first: the survivors are 13..20 *)
  (match (List.hd events, List.nth events 7) with
  | Obs.Instant { args = first; _ }, Obs.Instant { args = last; _ } ->
      check Alcotest.bool "oldest is 13" true
        (List.assoc_opt "i" first = Some (Json.Int 13));
      check Alcotest.bool "newest is 20" true
        (List.assoc_opt "i" last = Some (Json.Int 20))
  | _ -> Alcotest.fail "not instants");
  Obs.reset obs;
  check Alcotest.int "reset clears" 0 (List.length (Obs.events obs));
  check Alcotest.int "reset clears dropped" 0 (Obs.dropped obs)

(* --- exports --- *)

let traced_sink () =
  let obs = Obs.memory () in
  Obs.span obs ~cat:"phase" "work" (fun () ->
      Obs.instant obs ~cat:"bank" ~args:[ ("culprit", Json.Int 3) ] "accusation";
      Obs.sample obs "queue" 5.);
  Metrics.incr (Metrics.counter (Option.get (Obs.metrics obs)) "sent");
  obs

let test_export_damd_trace () =
  let obs = traced_sink () in
  match Export.to_json ~meta:[ ("k", Json.String "v") ] obs with
  | Json.Obj fields ->
      check Alcotest.bool "schema" true
        (List.assoc_opt "schema" fields = Some (Json.String "damd-trace/1"));
      check Alcotest.bool "clock" true
        (List.assoc_opt "clock" fields = Some (Json.String "monotonic"));
      check Alcotest.bool "meta" true (List.mem_assoc "meta" fields);
      (match List.assoc_opt "events" fields with
      | Some (Json.List events) ->
          check Alcotest.int "three events" 3 (List.length events);
          (* sorted by start timestamp: the span opened first *)
          (match List.hd events with
          | Json.Obj e ->
              check Alcotest.bool "span first" true
                (List.assoc_opt "type" e = Some (Json.String "span"))
          | _ -> Alcotest.fail "event not an object")
      | _ -> Alcotest.fail "no events list");
      (match List.assoc_opt "span_stats" fields with
      | Some (Json.List stats) ->
          let has_work =
            List.exists
              (function
                | Json.Obj s ->
                    List.assoc_opt "name" s = Some (Json.String "work")
                    && List.mem_assoc "p99_ns" s
                | _ -> false)
              stats
          in
          check Alcotest.bool "work span stats with p99" true has_work
      | _ -> Alcotest.fail "no span_stats");
      check Alcotest.bool "metrics" true (List.mem_assoc "metrics" fields)
  | _ -> Alcotest.fail "trace not an object"

let test_export_chrome () =
  let obs = traced_sink () in
  match Export.to_chrome obs with
  | Json.Obj fields ->
      check Alcotest.bool "displayTimeUnit" true
        (List.assoc_opt "displayTimeUnit" fields = Some (Json.String "ms"));
      (match List.assoc_opt "traceEvents" fields with
      | Some (Json.List events) ->
          (* process-name metadata + 3 events *)
          check Alcotest.int "four entries" 4 (List.length events);
          let phs =
            List.filter_map
              (function
                | Json.Obj e -> (
                    match List.assoc_opt "ph" e with
                    | Some (Json.String p) -> Some p
                    | _ -> None)
                | _ -> None)
              events
          in
          check
            (Alcotest.list Alcotest.string)
            "phases" [ "M"; "X"; "i"; "C" ]
            (List.filter (fun p -> List.mem p [ "M"; "X"; "i"; "C" ]) phs)
      | _ -> Alcotest.fail "no traceEvents")
  | _ -> Alcotest.fail "chrome trace not an object"

let test_export_write_files () =
  let obs = traced_sink () in
  let p1 = Filename.temp_file "damd_trace" ".json" in
  let p2 = Filename.temp_file "damd_chrome" ".json" in
  Export.write ~path:p1 obs;
  Export.write_chrome ~path:p2 obs;
  let slurp p =
    let ic = open_in_bin p in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let t = slurp p1 and c = slurp p2 in
  Sys.remove p1;
  Sys.remove p2;
  check Alcotest.bool "damd-trace schema on disk" true
    (Astring.String.is_infix ~affix:"damd-trace/1" t);
  check Alcotest.bool "chrome traceEvents on disk" true
    (Astring.String.is_infix ~affix:"traceEvents" c)

let suites =
  [
    ( "obs.clock",
      [
        Alcotest.test_case "monotone" `Quick test_clock_monotone;
        Alcotest.test_case "advances" `Quick test_clock_advances;
        Alcotest.test_case "conversions" `Quick test_clock_conversions;
      ] );
    ( "obs.metrics",
      [
        Alcotest.test_case "counter and gauge" `Quick test_counter_and_gauge;
        Alcotest.test_case "histogram exact percentiles" `Quick
          test_histogram_exact_percentiles;
        Alcotest.test_case "histogram overflow percentiles" `Quick
          test_histogram_overflow_percentiles;
        Alcotest.test_case "histogram empty nan" `Quick test_histogram_empty_nan;
        Alcotest.test_case "to_json shape" `Quick test_metrics_to_json;
      ] );
    ( "obs.sink",
      [
        Alcotest.test_case "noop transparent" `Quick
          test_noop_is_disabled_and_transparent;
        Alcotest.test_case "noop allocation-free" `Quick
          test_noop_span_allocation_free;
        Alcotest.test_case "memory records" `Quick test_memory_records_events;
        Alcotest.test_case "span nesting depth" `Quick test_span_nesting_depth;
        Alcotest.test_case "span exception recorded" `Quick
          test_span_exception_recorded;
        Alcotest.test_case "ring wraps" `Quick test_ring_wraps_and_counts_dropped;
      ] );
    ( "obs.export",
      [
        Alcotest.test_case "damd-trace/1" `Quick test_export_damd_trace;
        Alcotest.test_case "chrome trace_event" `Quick test_export_chrome;
        Alcotest.test_case "write files" `Quick test_export_write_files;
      ] );
  ]
