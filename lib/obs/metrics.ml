module Json = Damd_util.Json
module Stats = Damd_util.Stats

type counter = { mutable c : int }
type gauge = { mutable g : float; mutable g_max : float }

let reservoir_capacity = 4096

type histogram = {
  bounds : float array; (* ascending upper bounds; overflow is implicit *)
  counts : int array; (* length = Array.length bounds + 1 *)
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  reservoir : float array;
}

type t = {
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
}

let create () =
  {
    counters = Hashtbl.create 16;
    gauges = Hashtbl.create 16;
    histograms = Hashtbl.create 16;
  }

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> c
  | None ->
      let c = { c = 0 } in
      Hashtbl.replace t.counters name c;
      c

let incr c = c.c <- c.c + 1
let add c n = c.c <- c.c + n
let set_counter c n = c.c <- n
let counter_value c = c.c

let gauge t name =
  match Hashtbl.find_opt t.gauges name with
  | Some g -> g
  | None ->
      let g = { g = 0.; g_max = neg_infinity } in
      Hashtbl.replace t.gauges name g;
      g

let set g v =
  g.g <- v;
  if v > g.g_max then g.g_max <- v

let gauge_value g = g.g
let gauge_max g = g.g_max

(* 1-2-5 progression over nine decades: generic enough for nanosecond
   durations, queue depths and exploration depths alike. *)
let buckets =
  let decades = 9 in
  let b = Array.make (3 * decades) 0. in
  for d = 0 to decades - 1 do
    let scale = 10. ** float_of_int d in
    b.(3 * d) <- scale;
    b.((3 * d) + 1) <- 2. *. scale;
    b.((3 * d) + 2) <- 5. *. scale
  done;
  b

let histogram t name =
  match Hashtbl.find_opt t.histograms name with
  | Some h -> h
  | None ->
      let h =
        {
          bounds = buckets;
          counts = Array.make (Array.length buckets + 1) 0;
          h_count = 0;
          h_sum = 0.;
          h_min = infinity;
          h_max = neg_infinity;
          reservoir = Array.make reservoir_capacity 0.;
        }
      in
      Hashtbl.replace t.histograms name h;
      h

let bucket_index bounds v =
  (* Smallest i with v <= bounds.(i); Array.length bounds = overflow. *)
  let n = Array.length bounds in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if v <= bounds.(mid) then hi := mid else lo := mid + 1
  done;
  !lo

let observe h v =
  let i = bucket_index h.bounds v in
  h.counts.(i) <- h.counts.(i) + 1;
  if h.h_count < reservoir_capacity then h.reservoir.(h.h_count) <- v;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v

let hist_count h = h.h_count

let percentile h p =
  if h.h_count = 0 then nan
  else if h.h_count <= reservoir_capacity then
    (* Exact: the reservoir still holds every sample. *)
    let samples =
      Array.to_list (Array.sub h.reservoir 0 h.h_count)
    in
    Stats.percentile p samples
  else begin
    (* Interpolate inside the bucket that contains the target rank. *)
    let target = p /. 100. *. float_of_int (h.h_count - 1) in
    let rank = int_of_float (ceil target) in
    let rank = if rank >= h.h_count then h.h_count - 1 else rank in
    let nb = Array.length h.bounds in
    let cum = ref 0 and idx = ref (-1) in
    (try
       for i = 0 to nb do
         cum := !cum + h.counts.(i);
         if !cum > rank then begin
           idx := i;
           raise Exit
         end
       done
     with Exit -> ());
    let i = !idx in
    if i < 0 || i >= nb then h.h_max
    else
      let hi = min h.bounds.(i) h.h_max in
      let lo =
        if i = 0 then h.h_min else max h.h_min h.bounds.(i - 1)
      in
      let in_bucket = h.counts.(i) in
      let below = !cum - in_bucket in
      if in_bucket = 0 then lo
      else
        let frac =
          (float_of_int rank -. float_of_int below)
          /. float_of_int in_bucket
        in
        lo +. ((hi -. lo) *. frac)
  end

let reset t =
  Hashtbl.iter (fun _ c -> c.c <- 0) t.counters;
  Hashtbl.iter
    (fun _ g ->
      g.g <- 0.;
      g.g_max <- neg_infinity)
    t.gauges;
  Hashtbl.iter
    (fun _ h ->
      Array.fill h.counts 0 (Array.length h.counts) 0;
      h.h_count <- 0;
      h.h_sum <- 0.;
      h.h_min <- infinity;
      h.h_max <- neg_infinity)
    t.histograms

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let json_of_histogram h =
  let buckets =
    List.init
      (Array.length h.counts)
      (fun i ->
        let le =
          if i < Array.length h.bounds then Json.Float h.bounds.(i)
          else Json.String "+inf"
        in
        Json.Obj [ ("le", le); ("count", Json.Int h.counts.(i)) ])
  in
  Json.Obj
    [
      ("count", Json.Int h.h_count);
      ("sum", Json.Float h.h_sum);
      ("min", Json.Float (if h.h_count = 0 then nan else h.h_min));
      ("max", Json.Float (if h.h_count = 0 then nan else h.h_max));
      ("p50", Json.Float (percentile h 50.));
      ("p95", Json.Float (percentile h 95.));
      ("p99", Json.Float (percentile h 99.));
      ("buckets", Json.List buckets);
    ]

let to_json t =
  let counters =
    sorted_bindings t.counters
    |> List.map (fun (k, c) -> (k, Json.Int c.c))
  in
  let gauges =
    sorted_bindings t.gauges
    |> List.map (fun (k, g) ->
           ( k,
             Json.Obj
               [ ("value", Json.Float g.g); ("max", Json.Float g.g_max) ]
           ))
  in
  let histograms =
    sorted_bindings t.histograms
    |> List.map (fun (k, h) -> (k, json_of_histogram h))
  in
  Json.Obj
    [
      ("counters", Json.Obj counters);
      ("gauges", Json.Obj gauges);
      ("histograms", Json.Obj histograms);
    ]
