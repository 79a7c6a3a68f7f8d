(* A certifying TLA+ backend: render an [Ir.t] as a TLC-checkable module
   so [Explore]'s verdicts can be cross-checked by an independent model
   checker on small instances.

   The mapping (DESIGN.md §16): chain states become a TLA+ string set and
   the per-seat [pos] variable; the suggested play becomes the
   [Faithful(i)] next-state action; the deviation under test arrives as
   CONSTANTS (target/covered state sets, a stall flag, the deviant's
   seat) so one emitted module serves the whole §4.3 catalogue — the
   paired .cfg instantiates it for one deviation. Phases become the [ph]
   cursor plus the [Checkpoint] action gated on phase emptiness, and the
   two §4.3 properties become state invariants: [DetectionComplete]
   (a green-light with the deviation acted must carry a certifier and
   evidence) and [NoFalseAccusation] (evidence only ever follows acted
   deviations — in particular the all-faithful instance, DevSeat = 0,
   accumulates none). States, suggested play and phases come from the
   [Machine] table [Explore] and [Absint] read, and the evidence model is
   its coverage case split ([Machine.covered_action]), evaluated at
   emission time into the [CoveredStates] constant. *)

let sanitize name =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_')
    name

let quote s = "\"" ^ s ^ "\""

let string_set = function
  | [] -> "{}"
  | xs -> "{" ^ String.concat ", " (List.map quote xs) ^ "}"

let int_set = function
  | [] -> "{}"
  | xs -> "{" ^ String.concat ", " (List.map string_of_int xs) ^ "}"

(* The state-level views of the [Machine] table, in declaration order. *)
let states_where (m : Machine.t) p =
  List.filteri (fun i _ -> p i) (Array.to_list m.states)

(* States whose suggested action the deviation targets — the state-level
   view of [Explore]'s target mask. *)
let target_states (ir : Ir.t) dev =
  let m = Machine.build ir in
  states_where m (Array.get (Machine.target_masks m dev))

(* Targeted states whose deviant execution deposits checkpoint evidence,
   under the honest-neighborhood assumption of the instance. *)
let covered_states (ir : Ir.t) dev ~honest =
  let m = Machine.build ir in
  let targets = Machine.target_masks m dev in
  let covered = Machine.coverage_mask m ~honest in
  states_where m (fun i -> targets.(i) && covered.(i))

let emit (ir : Ir.t) =
  let b = Buffer.create 4096 in
  let out fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let mname = sanitize ir.Ir.name in
  let m = Machine.build ir in
  let nphases = m.nphases in
  let in_phase =
    List.init nphases (fun pi -> states_where m (fun i -> m.phase_of.(i) = pi))
  in
  let sugg_states = states_where m (fun i -> m.sugg_id.(i) <> None) in
  let certified =
    List.filter (fun pi -> m.certifiers.(pi) <> None) (List.init nphases Fun.id)
  in
  out "---------------------------- MODULE %s ----------------------------\n"
    mname;
  out "\\* Generated by `damd tla` from the spec IR %S -- do not edit.\n"
    ir.Ir.name;
  out "\\*\n";
  out "\\* IR -> TLC mapping (DESIGN.md, section 16):\n";
  out "\\*   chain states        -> the States string set / pos variable\n";
  out "\\*   suggested play      -> Faithful(i) and Deviant next-state actions\n";
  out "\\*   deviation targets   -> TargetStates/CoveredStates/Stall CONSTANTS\n";
  out "\\*   phases + certifiers -> ph cursor, Checkpoint action, invariants\n";
  out "\\*   section-4.3 claims  -> DetectionComplete, NoFalseAccusation\n";
  out "EXTENDS Integers, FiniteSets\n\n";
  out "CONSTANTS\n";
  out "  N,             \\* number of seats\n";
  out "  DevSeat,       \\* deviant seat in 1..N, or 0 for the all-faithful product\n";
  out "  TargetStates,  \\* states whose suggested step the deviation targets\n";
  out "  CoveredStates, \\* targeted states whose deviant step deposits evidence\n";
  out "  Stall          \\* TRUE: the targeted step never completes (omission)\n\n";
  out "States == %s\n\n" (string_set ir.Ir.states);
  out "NPhases == %d\n\n" nphases;
  out "\\* IR \"no phase\" (-1 in the verifier) maps to NPhases here.\n";
  out "PhaseOf(s) ==\n";
  List.iteri
    (fun pi members ->
      out "  %s s \\in %s THEN %d\n"
        (if pi = 0 then "IF" else "ELSE IF")
        (string_set members) pi)
    in_phase;
  if nphases = 0 then out "  NPhases\n"
  else out "  ELSE NPhases\n";
  out "\n";
  out "SuggStates == %s\n\n" (string_set sugg_states);
  out "Dst(s) ==\n";
  let dst_arms =
    List.filter_map
      (fun (s, d) -> if d <> s then Some (s, d) else None)
      (List.mapi (fun i s -> (s, m.states.(m.dst_of.(i)))) ir.Ir.states)
  in
  List.iteri
    (fun i (s, d) ->
      out "  %s s = %s THEN %s\n"
        (if i = 0 then "IF" else "ELSE IF")
        (quote s) (quote d))
    dst_arms;
  if dst_arms = [] then out "  s\n" else out "  ELSE s\n";
  out "\n";
  out "CertifiedPhases == %s\n\n" (int_set certified);
  out "ASSUME N \\in Nat \\ {0}\n";
  out "ASSUME DevSeat \\in 0..N\n";
  out "ASSUME TargetStates \\subseteq States\n";
  out "ASSUME CoveredStates \\subseteq TargetStates\n";
  out "ASSUME Stall \\in BOOLEAN\n\n";
  out "VARIABLES pos, ph, acted, evid\n\n";
  out "vars == <<pos, ph, acted, evid>>\n\n";
  out "\\* The phase bit a deviant step charges: the open phase, or the last\n";
  out "\\* phase once every checkpoint has fired (the verifier's pbit).\n";
  out "PBit == IF ph < NPhases THEN ph ELSE (IF NPhases > 0 THEN NPhases - 1 ELSE 0)\n\n";
  out "Eligible(i) == ph >= NPhases \\/ PhaseOf(pos[i]) = ph\n\n";
  out "SomeoneInside == \\E i \\in 1..N : PhaseOf(pos[i]) = ph\n\n";
  out "Init ==\n";
  out "  /\\ pos = [i \\in 1..N |-> %s]\n" (quote ir.Ir.initial);
  out "  /\\ ph = 0\n";
  out "  /\\ acted = {}\n";
  out "  /\\ evid = {}\n\n";
  out "Faithful(i) ==\n";
  out "  /\\ i # DevSeat\n";
  out "  /\\ Eligible(i)\n";
  out "  /\\ pos[i] \\in SuggStates\n";
  out "  /\\ pos' = [pos EXCEPT ![i] = Dst(pos[i])]\n";
  out "  /\\ UNCHANGED <<ph, acted, evid>>\n\n";
  out "Deviant ==\n";
  out "  /\\ DevSeat \\in 1..N\n";
  out "  /\\ Eligible(DevSeat)\n";
  out "  /\\ pos[DevSeat] \\in SuggStates\n";
  out "  /\\ ~(Stall /\\ pos[DevSeat] \\in TargetStates)\n";
  out "  /\\ acted' = IF pos[DevSeat] \\in TargetStates\n";
  out "              THEN acted \\cup {PBit} ELSE acted\n";
  out "  /\\ evid' = IF pos[DevSeat] \\in CoveredStates\n";
  out "             THEN evid \\cup {PBit} ELSE evid\n";
  out "  /\\ pos' = [pos EXCEPT ![DevSeat] = Dst(pos[DevSeat])]\n";
  out "  /\\ UNCHANGED ph\n\n";
  out "Checkpoint ==\n";
  out "  /\\ ph < NPhases\n";
  out "  /\\ ~SomeoneInside\n";
  out "  /\\ ph' = ph + 1\n";
  out "  /\\ UNCHANGED <<pos, acted, evid>>\n\n";
  out "\\* Terminal stutter: every phase certified and no suggested step left.\n";
  out "Done ==\n";
  out "  /\\ ph = NPhases\n";
  out "  /\\ \\A i \\in 1..N : pos[i] \\notin SuggStates\n";
  out "  /\\ UNCHANGED vars\n\n";
  out "Next == Checkpoint \\/ Deviant \\/ Done \\/ (\\E i \\in 1..N : Faithful(i))\n\n";
  out "Spec == Init /\\ [][Next]_vars\n\n";
  out "\\* Section-4.3, property 1: a checkpoint green-light while the open\n";
  out "\\* phase carries an acted deviation must certify it -- the phase has a\n";
  out "\\* certifier and the evidence reached it. Checked at the pre-checkpoint\n";
  out "\\* state (phase open, nobody left inside), where the verifier's\n";
  out "\\* escape/green-light bookkeeping runs.\n";
  out "DetectionComplete ==\n";
  out "  (ph < NPhases /\\ ~SomeoneInside /\\ ph \\in acted)\n";
  out "    => (ph \\in CertifiedPhases /\\ ph \\in evid)\n\n";
  out "\\* Section-4.3, property 2: evidence only ever follows an acted\n";
  out "\\* deviation; with DevSeat = 0 (all faithful) no evidence accumulates.\n";
  out "NoFalseAccusation == evid \\subseteq acted\n\n";
  out "TypeOK ==\n";
  out "  /\\ pos \\in [1..N -> States]\n";
  out "  /\\ ph \\in 0..NPhases\n";
  out "  /\\ acted \\subseteq 0..(NPhases - 1)\n";
  out "  /\\ evid \\subseteq 0..(NPhases - 1)\n\n";
  out "=============================================================================\n";
  Buffer.contents b

let cfg (ir : Ir.t) ~deviation ~nodes ~seat ~stall ~honest =
  let b = Buffer.create 512 in
  let out fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let targets = target_states ir deviation in
  let covered = covered_states ir deviation ~honest in
  out "\\* Generated by `damd tla --cfg` -- TLC instance for deviation %S\n"
    (Dev.to_string deviation);
  out "\\* on %d seats (deviant at seat %d%s%s). Pair with `damd tla`'s module.\n"
    nodes seat
    (if stall then ", stalling" else "")
    (if honest then "" else ", isolated neighborhood");
  out "CONSTANTS\n";
  out "  N = %d\n" nodes;
  out "  DevSeat = %d\n" seat;
  out "  TargetStates = %s\n" (string_set targets);
  out "  CoveredStates = %s\n" (string_set covered);
  out "  Stall = %s\n" (if stall then "TRUE" else "FALSE");
  out "INIT Init\n";
  out "NEXT Next\n";
  out "INVARIANT TypeOK\n";
  out "INVARIANT DetectionComplete\n";
  out "INVARIANT NoFalseAccusation\n";
  Buffer.contents b
