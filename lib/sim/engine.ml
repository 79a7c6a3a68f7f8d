module Pqueue = Damd_util.Pqueue
module Obs = Damd_obs.Obs
module Metrics = Damd_obs.Metrics
module Json = Damd_util.Json

type 'msg event =
  | Deliver of { src : int; dst : int; msg : 'msg }
  | Timer of (unit -> unit)

type outcome = Quiescent | Event_limit

type shaping = Pass | Lose | Delay of float

type 'msg t = {
  n : int;
  latency : src:int -> dst:int -> float;
  queue : 'msg event Pqueue.t;
  handlers : (sender:int -> 'msg -> unit) option array;
  mutable shaper : (src:int -> dst:int -> now:float -> 'msg -> shaping) option;
  down : bool array;
  mutable size_of : 'msg -> int;
  mutable clock : float;
  mutable processed : int;
  mutable sent : int;
  mutable delivered : int;
  mutable lost : int;
  mutable bytes : int;
  (* Observability (Damd_obs). [obs] defaults to the noop sink; the
     per-kind arrays are empty until [set_obs] installs a classifier,
     so the uninstrumented hot path pays one [None] check per send. *)
  mutable obs : Obs.t;
  mutable obs_detail : bool;
  mutable kind_of : ('msg -> int) option;
  mutable kind_names : string array;
  mutable k_sent : int array;
  mutable k_delivered : int array;
  mutable k_lost : int array;
  mutable shaper_losses : int;
  mutable shaper_delays : int;
  mutable queue_peak : int;
}

let create ?(latency = fun ~src:_ ~dst:_ -> 1.0) ~n () =
  if n < 0 then invalid_arg "Engine.create: negative n";
  {
    n;
    latency;
    queue = Pqueue.create ();
    handlers = Array.make n None;
    shaper = None;
    down = Array.make n false;
    size_of = (fun _ -> 1);
    clock = 0.;
    processed = 0;
    sent = 0;
    delivered = 0;
    lost = 0;
    bytes = 0;
    obs = Obs.noop;
    obs_detail = false;
    kind_of = None;
    kind_names = [||];
    k_sent = [||];
    k_delivered = [||];
    k_lost = [||];
    shaper_losses = 0;
    shaper_delays = 0;
    queue_peak = 0;
  }

let n t = t.n

let now t = t.clock

let set_handler t i h =
  if i < 0 || i >= t.n then invalid_arg "Engine.set_handler: node out of range";
  t.handlers.(i) <- Some h

let set_shaper t shaper = t.shaper <- Some shaper

let clear_shaper t = t.shaper <- None

let set_down t i down =
  if i < 0 || i >= t.n then invalid_arg "Engine.set_down: node out of range";
  t.down.(i) <- down

let is_down t i =
  if i < 0 || i >= t.n then invalid_arg "Engine.is_down: node out of range";
  t.down.(i)

let all_up t = Array.fill t.down 0 t.n false

let set_size t f = t.size_of <- f

let set_obs ?(kinds = [||]) ?kind_of t obs =
  t.obs <- obs;
  t.obs_detail <- Obs.detailed obs;
  t.kind_of <- kind_of;
  t.kind_names <- kinds;
  let nk = Array.length kinds in
  t.k_sent <- Array.make nk 0;
  t.k_delivered <- Array.make nk 0;
  t.k_lost <- Array.make nk 0

let kind_index t msg =
  match t.kind_of with
  | None -> -1
  | Some f ->
      let k = f msg in
      if k < 0 || k >= Array.length t.kind_names then -1 else k

let bump a k = if k >= 0 then a.(k) <- a.(k) + 1

let kind_name t k = if k >= 0 then t.kind_names.(k) else "?"

let note_queue_peak t =
  let depth = Pqueue.length t.queue in
  if depth > t.queue_peak then t.queue_peak <- depth

let send t ~src ~dst msg =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Engine.send: node out of range";
  t.sent <- t.sent + 1;
  t.bytes <- t.bytes + t.size_of msg;
  let k = kind_index t msg in
  bump t.k_sent k;
  (* Every send is counted before the environment decides its fate, so a
     lost message is sent and then lost. Shaper decisions are drawn in
     global send order, which is deterministic given a deterministic
     protocol, so a seeded shaper keeps runs bit-for-bit reproducible. *)
  let shaping =
    if t.down.(src) then Lose
    else
      match t.shaper with
      | None -> Pass
      | Some shape ->
          let s = shape ~src ~dst ~now:t.clock msg in
          (match s with
          | Lose -> t.shaper_losses <- t.shaper_losses + 1
          | Delay _ -> t.shaper_delays <- t.shaper_delays + 1
          | Pass -> ());
          s
  in
  if t.obs_detail then
    Obs.instant t.obs ~cat:"engine"
      ~args:
        [
          ("src", Json.Int src);
          ("dst", Json.Int dst);
          ("kind", Json.String (kind_name t k));
          ( "shaping",
            Json.String
              (match shaping with
              | Pass -> "pass"
              | Lose -> if t.down.(src) then "down-src" else "lose"
              | Delay _ -> "delay") );
          ("sim_t", Json.Float t.clock);
        ]
      "send";
  match shaping with
  | Lose ->
      t.lost <- t.lost + 1;
      bump t.k_lost k
  | Pass | Delay _ ->
      let extra = match shaping with Delay d -> d | _ -> 0. in
      if extra < 0. then invalid_arg "Engine.send: negative shaper delay";
      let latency = t.latency ~src ~dst in
      if latency < 0. then invalid_arg "Engine.send: negative latency";
      Pqueue.push t.queue (t.clock +. latency +. extra) (Deliver { src; dst; msg });
      note_queue_peak t

let schedule t ~delay callback =
  if delay < 0. then invalid_arg "Engine.schedule: negative delay";
  Pqueue.push t.queue (t.clock +. delay) (Timer callback);
  note_queue_peak t

let run ?(max_events = 10_000_000) t =
  let budget = ref max_events in
  let rec loop () =
    (* Look at the queue before the budget: a run that went quiescent on
       exactly its last allowed event is Quiescent, not Event_limit. Only
       an exhausted budget WITH work still pending is a limit stop (the
       unpopped event stays queued, so a subsequent [run] resumes it). *)
    if Pqueue.is_empty t.queue then Quiescent
    else if !budget <= 0 then Event_limit
    else
      match Pqueue.pop t.queue with
      | None -> Quiescent
      | Some (time, event) ->
          decr budget;
          t.processed <- t.processed + 1;
          t.clock <- time;
          (* Queue-depth gauge, sampled every 64 events to keep the
             trace volume proportional to the run, not the queue. *)
          if Obs.enabled t.obs && t.processed land 63 = 0 then
            Obs.sample t.obs "engine.queue_depth"
              (float_of_int (Pqueue.length t.queue));
          (match event with
          | Timer callback -> callback ()
          | Deliver { src; dst; msg } -> (
              let k = kind_index t msg in
              if t.down.(dst) then begin
                t.lost <- t.lost + 1;
                bump t.k_lost k;
                (* in-flight message reaching a crashed node: lost, not
                   delivered — the node's handler must not observe it *)
                if t.obs_detail then
                  Obs.instant t.obs ~cat:"engine"
                    ~args:
                      [
                        ("src", Json.Int src);
                        ("dst", Json.Int dst);
                        ("kind", Json.String (kind_name t k));
                        ("sim_t", Json.Float t.clock);
                      ]
                    "lose.down-dst"
              end
              else begin
                t.delivered <- t.delivered + 1;
                bump t.k_delivered k;
                if t.obs_detail then
                  Obs.instant t.obs ~cat:"engine"
                    ~args:
                      [
                        ("src", Json.Int src);
                        ("dst", Json.Int dst);
                        ("kind", Json.String (kind_name t k));
                        ("sim_t", Json.Float t.clock);
                      ]
                    "deliver";
                match t.handlers.(dst) with
                | None -> () (* no handler installed: message discarded *)
                | Some h -> h ~sender:src msg
              end));
          loop ()
  in
  loop ()

let events_processed t = t.processed

let messages_sent t = t.sent

let messages_delivered t = t.delivered

let messages_lost t = t.lost

let bytes_sent t = t.bytes

let shaper_losses t = t.shaper_losses

let shaper_delays t = t.shaper_delays

let queue_peak t = t.queue_peak

let obs t = t.obs

let kind_stats t =
  List.init (Array.length t.kind_names) (fun k ->
      (t.kind_names.(k), t.k_sent.(k), t.k_delivered.(k), t.k_lost.(k)))

let obs_metrics ?(prefix = "engine") t reg =
  let c name v =
    Metrics.set_counter (Metrics.counter reg (prefix ^ "." ^ name)) v
  in
  c "events_processed" t.processed;
  c "messages_sent" t.sent;
  c "messages_delivered" t.delivered;
  c "messages_lost" t.lost;
  c "bytes_sent" t.bytes;
  c "shaper_losses" t.shaper_losses;
  c "shaper_delays" t.shaper_delays;
  Metrics.set
    (Metrics.gauge reg (prefix ^ ".queue_peak"))
    (float_of_int t.queue_peak);
  List.iter
    (fun (name, s, d, l) ->
      c (Printf.sprintf "sent.%s" name) s;
      c (Printf.sprintf "delivered.%s" name) d;
      c (Printf.sprintf "lost.%s" name) l)
    (kind_stats t)

let zero a = Array.fill a 0 (Array.length a) 0

let reset_stats t =
  t.processed <- 0;
  t.sent <- 0;
  t.delivered <- 0;
  t.lost <- 0;
  t.bytes <- 0;
  t.shaper_losses <- 0;
  t.shaper_delays <- 0;
  t.queue_peak <- 0;
  zero t.k_sent;
  zero t.k_delivered;
  zero t.k_lost
