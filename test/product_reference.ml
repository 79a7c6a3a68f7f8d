(* The product search written out plainly: the oracle for
   [Explore.search], the one engine behind both [Explore.run] (n seats)
   and [Absint.run] (two seats).

   Every plan job gets its own breadth-first search; nothing is shared
   between jobs of one shape. A state is a [Statepack.state] record,
   deduplicated by its [Statepack.structural] rendering in a Stdlib
   [Hashtbl], and the frontier is a Stdlib [Queue] whose entries carry
   their depth and their step trace. No packed key, no POR, no parent
   index. Successor order is [Explore]'s: the deviant's targeted step and
   the checkpoint are tallied first, then the checkpoint successor, the
   faithful classes from the highest index down, and the deviant. Every
   event goes through the same [Scenario] tally, so the two searches must
   agree result for result: witness text, states, lag, certifier, phase,
   timeout, findings and truncation. *)

module Sp = Damd_speccheck.Statepack
module Machine = Damd_speccheck.Machine
module Scenario = Damd_speccheck.Scenario

(* [Explore]'s witness: the last 14 steps, "…" first when the trace has
   14 steps or more. *)
let witness trace =
  let rec take k = function
    | _ when k = 0 -> [ "…" ]
    | [] -> []
    | x :: rest -> x :: take (k - 1) rest
  in
  String.concat " ; " (List.rev (take 14 trace))

let job_search (m : Machine.t) ~bound ~seats ~initial covered
    (job : Scenario.job) =
  let ns = Array.length m.Machine.states and np = m.Machine.nphases in
  let tally = Scenario.tally m ~run:"run" in
  let visited = Hashtbl.create 64 in
  let q = Queue.create () in
  let cnt = Array.make ns 0 in
  cnt.(initial) <- (if job.Scenario.has_deviant then seats - 1 else seats);
  let s0 =
    {
      Sp.dev = (if job.Scenario.has_deviant then initial else -1);
      cnt;
      ph = 0;
      acted = 0;
      evid = 0;
    }
  in
  Hashtbl.replace visited (Sp.structural s0) ();
  Queue.push (s0, 0, []) q;
  if s0.Sp.dev >= 0 then covered.(s0.Sp.dev) <- true;
  Array.iteri (fun i c -> if c > 0 then covered.(i) <- true) cnt;
  let in_phase ph i = ph >= np || m.Machine.phase_of.(i) = ph in
  let moves i = m.Machine.sugg_id.(i) <> None in
  let reentry ph dst =
    dst >= 0
    && m.Machine.phase_of.(dst) >= 0
    && m.Machine.phase_of.(dst) < min ph np
  in
  let truncated = ref false in
  while (not !truncated) && not (Queue.is_empty q) do
    if Hashtbl.length visited > bound then truncated := true
    else begin
      let s, d, trace = Queue.pop q in
      let ph = s.Sp.ph and dev = s.Sp.dev in
      let progress = ref 0 in
      let visit t lbl dst =
        incr progress;
        let k = Sp.structural t in
        if not (Hashtbl.mem visited k) then begin
          Hashtbl.replace visited k ();
          if dst >= 0 then covered.(dst) <- true;
          Queue.push (t, d + 1, lbl :: trace) q
        end
      in
      let deviant =
        if dev >= 0 && in_phase ph dev && moves dev then begin
          let is_t = job.Scenario.targets.(dev) in
          if job.Scenario.stall && is_t then None
          else begin
            let pbit = if ph < np then ph else max 0 (np - 1) in
            let bit = 1 lsl pbit in
            let acted = if is_t then s.Sp.acted lor bit else s.Sp.acted in
            let evid =
              if is_t && job.Scenario.covered.(dev) then s.Sp.evid lor bit
              else s.Sp.evid
            in
            if is_t then Scenario.act tally ~pbit ~depth:(d + 1);
            Some (m.Machine.dst_of.(dev), acted, evid)
          end
        end
        else None
      in
      let checkpoint =
        ph < np
        && (not (dev >= 0 && m.Machine.phase_of.(dev) = ph))
        && List.for_all
             (fun i -> s.Sp.cnt.(i) = 0 || m.Machine.phase_of.(i) <> ph)
             (List.init ns Fun.id)
      in
      if checkpoint then begin
        if
          Scenario.checkpoint tally m ~ph ~acted:s.Sp.acted ~evid:s.Sp.evid
            ~depth:(d + 1)
        then Scenario.escape tally m ~ph (witness trace);
        visit { s with Sp.ph = ph + 1 } m.Machine.cp_lbl.(ph) (-1)
      end;
      for i = ns - 1 downto 0 do
        if s.Sp.cnt.(i) > 0 && in_phase ph i && moves i then begin
          let dst = m.Machine.dst_of.(i) in
          let lbl = Option.get m.Machine.sugg_id.(i) in
          if reentry ph dst then begin
            incr progress;
            Scenario.reentry tally m ~lbl ~dst
          end
          else if dst <> i then begin
            let cnt = Array.copy s.Sp.cnt in
            cnt.(i) <- cnt.(i) - 1;
            cnt.(dst) <- cnt.(dst) + 1;
            visit { s with Sp.cnt } lbl dst
          end
        end
      done;
      (match deviant with
      | None -> ()
      | Some (dst, acted, evid) ->
          let lbl = m.Machine.dev_lbl.(dev) in
          if reentry ph dst then begin
            incr progress;
            Scenario.reentry tally m ~lbl ~dst
          end
          else if dst <> dev || acted <> s.Sp.acted || evid <> s.Sp.evid then
            visit { s with Sp.dev = dst; acted; evid } lbl dst);
      if !progress = 0 && ph < np then
        Scenario.deadlock tally m job ~ph ~dev ~depth:(d + 1)
    end
  done;
  Scenario.result tally ~truncated:!truncated ~states:(Hashtbl.length visited)

(* Every plan job's result, in plan order, and the states some seat
   occupied in some job. The machine must declare its initial state. *)
let search ~bound (m : Machine.t) (plan : Scenario.plan) ~seats =
  let initial = Option.get m.Machine.initial in
  let covered = Array.make (Array.length m.Machine.states) false in
  let results =
    List.map (job_search m ~bound ~seats ~initial covered) plan.Scenario.jobs
  in
  (results, covered)
