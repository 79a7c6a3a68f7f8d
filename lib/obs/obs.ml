module Json = Damd_util.Json

type args = (string * Json.t) list

type event =
  | Span of {
      name : string;
      cat : string;
      ts_ns : int64;
      dur_ns : int64;
      depth : int;
      args : args;
    }
  | Instant of { name : string; cat : string; ts_ns : int64; args : args }
  | Sample of { name : string; ts_ns : int64; value : float }

type ring = {
  buf : event array;
  capacity : int;
  mutable len : int;
  mutable head : int; (* next write slot *)
  mutable ring_dropped : int;
}

type kind = Noop | Memory of ring

type t = {
  kind : kind;
  reg : Metrics.t option;
  detail : bool;
  mutable depth : int;
  t0 : int64;
}

let args_field = function [] -> [] | args -> [ ("args", Json.Obj args) ]

let json_of_event = function
  | Span { name; cat; ts_ns; dur_ns; depth; args } ->
      Json.Obj
        ([
           ("type", Json.String "span");
           ("name", Json.String name);
           ("cat", Json.String cat);
           ("ts_ns", Json.Int (Int64.to_int ts_ns));
           ("dur_ns", Json.Int (Int64.to_int dur_ns));
           ("depth", Json.Int depth);
         ]
        @ args_field args)
  | Instant { name; cat; ts_ns; args } ->
      Json.Obj
        ([
           ("type", Json.String "instant");
           ("name", Json.String name);
           ("cat", Json.String cat);
           ("ts_ns", Json.Int (Int64.to_int ts_ns));
         ]
        @ args_field args)
  | Sample { name; ts_ns; value } ->
      Json.Obj
        [
          ("type", Json.String "sample");
          ("name", Json.String name);
          ("ts_ns", Json.Int (Int64.to_int ts_ns));
          ("value", Json.Float value);
        ]

let noop = { kind = Noop; reg = None; detail = false; depth = 0; t0 = 0L }

let dummy_event = Instant { name = ""; cat = ""; ts_ns = 0L; args = [] }

let memory ?(detail = false) ?(capacity = 65536) () =
  let capacity = max 1 capacity in
  {
    kind =
      Memory
        {
          buf = Array.make capacity dummy_event;
          capacity;
          len = 0;
          head = 0;
          ring_dropped = 0;
        };
    reg = Some (Metrics.create ());
    detail;
    depth = 0;
    t0 = Clock.now_ns ();
  }

let enabled t = match t.kind with Noop -> false | Memory _ -> true
let detailed t = t.detail
let metrics t = t.reg

let record t ev =
  match t.kind with
  | Noop -> ()
  | Memory r ->
      if r.len = r.capacity then r.ring_dropped <- r.ring_dropped + 1
      else r.len <- r.len + 1;
      r.buf.(r.head) <- ev;
      r.head <- (r.head + 1) mod r.capacity

let rel_now t = Int64.sub (Clock.now_ns ()) t.t0

let instant t ?(cat = "") ?(args = []) name =
  match t.kind with
  | Noop -> ()
  | Memory _ ->
      record t (Instant { name; cat; ts_ns = rel_now t; args })

let sample t name value =
  match t.kind with
  | Noop -> ()
  | Memory _ ->
      record t (Sample { name; ts_ns = rel_now t; value })

let span t ?(cat = "") ?(args = []) name f =
  match t.kind with
  | Noop -> f ()
  | Memory _ -> (
      let depth = t.depth in
      t.depth <- depth + 1;
      let start = rel_now t in
      let finish args =
        t.depth <- depth;
        let dur_ns = Int64.sub (rel_now t) start in
        record t (Span { name; cat; ts_ns = start; dur_ns; depth; args })
      in
      match f () with
      | v ->
          finish args;
          v
      | exception e ->
          finish (("error", Json.Bool true) :: args);
          raise e)

let events t =
  match t.kind with
  | Noop -> []
  | Memory r ->
      let start = (r.head - r.len + r.capacity) mod r.capacity in
      List.init r.len (fun i -> r.buf.((start + i) mod r.capacity))

let dropped t =
  match t.kind with Noop -> 0 | Memory r -> r.ring_dropped

let reset t =
  (match t.kind with
  | Noop -> ()
  | Memory r ->
      r.len <- 0;
      r.head <- 0;
      r.ring_dropped <- 0);
  t.depth <- 0;
  match t.reg with None -> () | Some m -> Metrics.reset m
