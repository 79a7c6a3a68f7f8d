(* Timing, statistics and result plumbing shared by the three workloads. *)

module Json = Damd_util.Json
module Stats = Damd_util.Stats
module Clock = Damd_obs.Clock
module Obs = Damd_obs.Obs

let now = Clock.now_ns
let ns_since t0 = Int64.to_float (Int64.sub (now ()) t0)
let ms_since t0 = ns_since t0 /. 1e6

(* [f ()] with its wall time in ms. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, ms_since t0)

let deadline seconds = Int64.add (now ()) (Int64.of_float (seconds *. 1e9))
let before d = Int64.compare (now ()) d < 0

type metric = { name : string; unit_ : string; value : float }

let metric name unit_ value = { name; unit_; value }

(* What a workload hands back. [attempted]/[failed] count the timed ops
   and also the checks a workload runs outside them (scale's cold pass,
   modelcheck's POR-off cross-check). [info] goes to the fingerprint
   line, never to the result object. *)
type outcome = {
  attempted : int;
  failed : int;
  metrics : metric list;
  info : (string * Json.t) list;
}

let sum = List.fold_left ( +. ) 0.
let median xs = if xs = [] then 0. else Stats.median xs
let pct p xs = if xs = [] then 0. else Stats.percentile p xs
let mean xs = if xs = [] then 0. else Stats.mean xs

(* The reference kernel: fixed, ordinary OCaml work that calls nothing in
   lib/ — an int map of 3 000 keys built six times, short-lived
   allocation over a cache-sized working set. On a shared VM the speed of
   this kind of code drifts by up to 2x over minutes, with no steal time
   and process CPU time equal to wall time, while a pure ALU loop does
   not move; the ops and this kernel move together. The kernel runs right
   before every set-up rebuild and op, and each time is scaled by
   [nominal_kernel_ms] over the kernel time measured beside it: a time at
   the speed where the kernel takes 4 ms. A change to the program moves
   the op, never the kernel. *)
module Int_map = Map.Make (Int)

let nominal_kernel_ms = 4.

let reference_kernel () =
  for r = 1 to 6 do
    let m = ref Int_map.empty in
    for i = 0 to 3000 do
      m := Int_map.add (((i * 7919) + r) mod 10007) (i, r) !m
    done;
    ignore (Sys.opaque_identity (Int_map.fold (fun k (a, _) acc -> k + a + acc) !m 0))
  done

let kernel_ms () = snd (timed reference_kernel)

(* Set-up is timed on its own many times in a run and reported as the
   median. The first build is the one the run uses. The op loops call
   [setup_again] once per op, so the samples span the whole run, as the op
   latencies do. Each sample is paired with the kernel time taken just
   before it. *)
type setup = {
  build : unit -> unit;
  mutable samples : (float * float) list;  (** (set-up s, kernel ms), newest first *)
  mutable kernel : float;  (** the latest kernel time, ms *)
}

let setup build =
  let k = kernel_ms () in
  let v, ms = timed build in
  ( v,
    {
      build = (fun () -> ignore (Sys.opaque_identity (build ())));
      samples = [ (ms /. 1e3, k) ];
      kernel = k;
    } )

let setup_again s =
  let k = kernel_ms () in
  let (), ms = timed s.build in
  s.kernel <- k;
  s.samples <- (ms /. 1e3, k) :: s.samples

let scaled t k = t *. nominal_kernel_ms /. k
let setup_s s = median (List.map (fun (t, k) -> scaled t k) s.samples)

(* One timed op: its input key, wall ms, and the kernel ms taken just
   before it ([setup.kernel] when the op started). *)
type op = { key : int; ms : float; kernel_ms : float }

let op setup key ms = { key; ms; kernel_ms = setup.kernel }
let wall ops = List.map (fun o -> o.ms) ops

(* Op times at the kernel's nominal speed, oldest first. An op is scaled
   by the median of the three kernel times nearest it (before it, the op
   before and the op after), which smooths the kernel's own jitter and
   still follows a drift within the run. *)
let scaled_ms ops =
  let a = Array.of_list (List.rev ops) in
  let n = Array.length a in
  List.init n (fun i ->
      let near = List.filter (fun j -> j >= 0 && j < n) [ i - 1; i; i + 1 ] in
      scaled a.(i).ms (median (List.map (fun j -> a.(j).kernel_ms) near)))

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

(* Minor words allocated and major collections completed, as deltas
   over a measurement window. *)
type gc_mark = { minor : float; majors : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  { minor = s.Gc.minor_words; majors = s.Gc.major_collections }

let gc_delta m0 =
  let m1 = gc_mark () in
  (m1.minor -. m0.minor, m1.majors - m0.majors)

let per_s lat =
  let total_ms = sum lat in
  if total_ms > 0. then float_of_int (List.length lat) *. 1e3 /. total_ms else 0.

(* The end-to-end block every workload reports, over every timed op,
   every time scaled to the kernel's nominal speed. *)
let end_to_end ~setup ops =
  let lat = scaled_ms ops in
  [
    metric "setup_s" "s" (setup_s setup);
    metric "ops_per_s" "1/s" (per_s lat);
    metric "op_p50_ms" "ms" (median lat);
    metric "op_p90_ms" "ms" (pct 90. lat);
  ]

(* Sample counts, and the same figures in wall time, for the fingerprint. *)
let count_info ~setup ops =
  let keys = List.sort_uniq Int.compare (List.map (fun o -> o.key) ops) in
  let lat = wall ops in
  [
    ("ops", Json.Int (List.length ops));
    ("distinct_inputs", Json.Int (List.length keys));
    ("setup_samples", Json.Int (List.length setup.samples));
    ("kernel_p50_ms", Json.Float (median (List.map snd setup.samples)));
    ("wall_setup_s", Json.Float (median (List.map fst setup.samples)));
    ("wall_ops_per_s", Json.Float (per_s lat));
    ("wall_op_p50_ms", Json.Float (median lat));
    ("wall_op_p90_ms", Json.Float (pct 90. lat));
  ]

(* --- reading the spans the library emits --- *)

type span = { sname : string; scat : string; ts : float; dur : float }
(** times in ns, relative to the sink's creation *)

let spans sink =
  List.filter_map
    (function
      | Obs.Span { name; cat; ts_ns; dur_ns; _ } ->
          Some
            {
              sname = name;
              scat = cat;
              ts = Int64.to_float ts_ns;
              dur = Int64.to_float dur_ns;
            }
      | _ -> None)
    (Obs.events sink)

let instants sink =
  List.filter_map
    (function
      | Obs.Instant { name; ts_ns; args; _ } -> Some (name, Int64.to_float ts_ns, args)
      | _ -> None)
    (Obs.events sink)

(* Total duration (ms) of the spans satisfying [p]. *)
let span_ms p ss =
  List.fold_left (fun acc s -> if p s then acc +. (s.dur /. 1e6) else acc) 0. ss

let counter sink name =
  match Obs.metrics sink with
  | None -> 0
  | Some reg -> Damd_obs.Metrics.(counter_value (counter reg name))

let gauge_max sink name =
  match Obs.metrics sink with
  | None -> 0.
  | Some reg -> Damd_obs.Metrics.(gauge_max (gauge reg name))

(* A fresh sink for one traced op. The default ring (65 536 events) holds
   every op here several times over; a wrap would silently drop spans, so
   callers check [Obs.dropped]. *)
let sink () = Obs.memory ()
