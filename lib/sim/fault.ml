module Rng = Damd_util.Rng
module Obs = Damd_obs.Obs
module Json = Damd_util.Json

type phase_tag = [ `Costs | `Routing | `Pricing ]

type link = { loss_p : float; reorder_p : float; reorder_delay : float }

type partition = { island : int list; part_phase : phase_tag; at : float; heals_at : float }

type crash = { node : int; crash_phase : phase_tag; at : float; recovers_at : float }

type spec = {
  seed : int;
  link : link option;
  partition : partition option;
  crash : crash option;
}

let is_none s = s.link = None && s.partition = None && s.crash = None

let phase_name = function `Costs -> "costs" | `Routing -> "routing" | `Pricing -> "pricing"

let validate ~n s =
  let check_p what p =
    if p < 0. || p > 1. then invalid_arg (Printf.sprintf "Fault: %s out of [0,1]" what)
  in
  (match s.link with
  | None -> ()
  | Some l ->
      check_p "loss_p" l.loss_p;
      check_p "reorder_p" l.reorder_p;
      if l.reorder_delay < 0. then invalid_arg "Fault: negative reorder_delay");
  (match s.partition with
  | None -> ()
  | Some p ->
      if p.at < 0. || p.heals_at < p.at then invalid_arg "Fault: bad partition window";
      List.iter
        (fun i -> if i < 0 || i >= n then invalid_arg "Fault: island node out of range")
        p.island);
  match s.crash with
  | None -> ()
  | Some c ->
      if c.node < 0 || c.node >= n then invalid_arg "Fault: crash node out of range";
      if c.at < 0. || c.recovers_at < c.at then invalid_arg "Fault: bad crash window"

type control = {
  spec : spec;
  island : bool array;
  rng : Rng.t;
  mutable active : bool;
  (* materialized when the anchoring phase arms, absolute sim time *)
  mutable partition_window : (float * float) option;
}

let active c = c.active

let create ~n spec =
  validate ~n spec;
  let island = Array.make n false in
  (match spec.partition with
  | None -> ()
  | Some p -> List.iter (fun i -> island.(i) <- true) p.island);
  {
    spec;
    island;
    rng = Rng.create spec.seed;
    active = true;
    partition_window = None;
  }

(* Partition losses are decided first and draw nothing from the stream,
   so the link-fault realization is invariant under adding or removing a
   partition with the same seed. *)
let shape c ~src ~dst ~now _msg =
  if not c.active then Engine.Pass
  else
    let partitioned =
      match c.partition_window with
      | Some (from_t, heals_at) when now >= from_t && now < heals_at ->
          c.island.(src) <> c.island.(dst)
      | _ -> false
    in
    if partitioned then Engine.Lose
    else
      match c.spec.link with
      | None -> Engine.Pass
      | Some l ->
          if l.loss_p > 0. && Rng.bernoulli c.rng l.loss_p then Engine.Lose
          else if l.reorder_p > 0. && Rng.bernoulli c.rng l.reorder_p then
            Engine.Delay (Rng.float c.rng l.reorder_delay)
          else Engine.Pass

let arm ?(on_crash = fun _ -> ()) ?(on_recover = fun _ -> ()) engine control ~phase =
  (* Crash and partition instants are offsets *within their anchoring
     phase*: a quiescing phase drains the whole event queue, so timers
     scheduled in absolute time at [create] would all fire during the
     first phase. Arming at phase start schedules them relative to the
     current clock — mid-phase, inside this phase's drain. Each call
     schedules the phase's components again; which attempts arm is the
     caller's decision. *)
  if control.active then begin
    let obs = Engine.obs engine in
    let fault_instant name args =
      if Obs.enabled obs then
        Obs.instant obs ~cat:"fault"
          ~args:(("sim_t", Json.Float (Engine.now engine)) :: args)
          name
    in
    let now = Engine.now engine in
    (match control.spec.partition with
    | Some p when p.part_phase = phase ->
        control.partition_window <- Some (now +. p.at, now +. p.heals_at);
        fault_instant "fault.arm.partition"
          [
            ("phase", Json.String (phase_name phase));
            ("at", Json.Float p.at);
            ("heals_at", Json.Float p.heals_at);
            ("island", Json.List (List.map (fun i -> Json.Int i) p.island));
          ];
        (* window-pinning timers keep the drain alive past the heal
           instant even when no other event is queued; with a sink
           installed they double as partition open/heal marks *)
        Engine.schedule engine ~delay:p.at (fun () ->
            fault_instant "fault.partition.open" []);
        Engine.schedule engine ~delay:p.heals_at (fun () ->
            fault_instant "fault.partition.heal" [])
    | _ -> ());
    match control.spec.crash with
    | Some c when c.crash_phase = phase ->
        fault_instant "fault.arm.crash"
          [
            ("phase", Json.String (phase_name phase));
            ("node", Json.Int c.node);
            ("at", Json.Float c.at);
            ("recovers_at", Json.Float c.recovers_at);
          ];
        Engine.schedule engine ~delay:c.at (fun () ->
            if control.active then begin
              Engine.set_down engine c.node true;
              fault_instant "fault.crash" [ ("node", Json.Int c.node) ];
              on_crash c.node
            end);
        Engine.schedule engine ~delay:c.recovers_at (fun () ->
            if control.active && Engine.is_down engine c.node then begin
              Engine.set_down engine c.node false;
              fault_instant "fault.recover" [ ("node", Json.Int c.node) ];
              on_recover c.node
            end)
    | _ -> ()
  end

let deactivate engine control =
  control.active <- false;
  Engine.all_up engine
