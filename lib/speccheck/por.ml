(* Partial-order reduction for [Explore]'s product BFS.

   A faithful class step is *invisible* when it makes progress strictly
   inside the open phase: src <> dst and both carry the current phase. An
   invisible step commutes with every other enabled step — it cannot move
   the deviant's seat, cannot touch the acted/evidence bitmasks, cannot
   enable or disable the phase checkpoint (the phase stays non-empty
   across it), and cannot trigger a reentry (its destination is in the
   current phase, never an earlier one). Two interleavings of the same
   invisible-step multiset therefore reach the same canonical state by
   paths of the same length, so exploring only the lowest-indexed
   invisible class at each state preserves reachability, BFS depths, and
   every detection event; deviant steps, phase-exiting (visible) steps,
   and checkpoints are never pruned.

   Soundness needs one global guard: draining a phase through a single
   canonical order must terminate. If the suggested-play graph restricted
   to any one phase has a cycle, a canonical drain could postpone some
   class forever, so the reduction switches itself off ([active] = false)
   and the BFS falls back to full interleaving. Cycles that cross phases
   or live past the last checkpoint are harmless: the moves involved are
   visible (or the phase cursor is exhausted) and thus never pruned. *)

let active (m : Machine.t) =
  (* 0 = unvisited, 1 = on the walk, 2 = proven cycle-free *)
  let color = Array.make (Array.length m.Machine.states) 0 in
  let rec visit i =
    if color.(i) = 1 then false
    else if color.(i) = 2 then true
    else begin
      color.(i) <- 1;
      let ok =
        let j = m.Machine.dst_of.(i) in
        if
          m.Machine.sugg_id.(i) <> None
          && j <> i
          && m.Machine.phase_of.(i) >= 0
          && m.Machine.phase_of.(j) = m.Machine.phase_of.(i)
        then visit j
        else true
      in
      color.(i) <- 2;
      ok
    end
  in
  let ok = ref true in
  for i = 0 to Array.length color - 1 do
    if not (visit i) then ok := false
  done;
  !ok

let invisible (m : Machine.t) ~ph i =
  ph < m.Machine.nphases
  && (match m.Machine.sugg_id.(i) with Some _ -> true | None -> false)
  && m.Machine.phase_of.(i) = ph
  &&
  let j = m.Machine.dst_of.(i) in
  j <> i && m.Machine.phase_of.(j) = ph
