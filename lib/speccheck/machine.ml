module Action = Damd_core.Action

type t = {
  states : string array;
  sugg_id : string option array;
  action_of : Ir.action option array;
  dst_of : int array;
  phase_of : int array;
  nphases : int;
  phase_names : string array;
  certifiers : string option array;
  dev_lbl : string array;
  cp_lbl : string array;
  initial : int option;
  action : (string, Ir.action) Hashtbl.t;
  phase_index : (string, int) Hashtbl.t;
}

(* A lookup table keeping the first binding of every key: the hashed form
   of the [List.assoc]/[List.find] scans in [Ir], O(|l|) to build. *)
let first_binding key value l =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun x ->
      let k = key x in
      if not (Hashtbl.mem tbl k) then Hashtbl.add tbl k (value x))
    l;
  tbl

let build (ir : Ir.t) =
  let states = Array.of_list ir.Ir.states in
  let index =
    first_binding fst snd (List.mapi (fun i s -> (s, i)) ir.Ir.states)
  in
  let sugg = first_binding fst snd ir.Ir.suggested in
  let action =
    first_binding (fun (a : Ir.action) -> a.Ir.id) Fun.id ir.Ir.actions
  in
  let step =
    first_binding
      (fun (t : Ir.transition) -> t.Ir.src ^ "\x00" ^ t.Ir.act)
      (fun (t : Ir.transition) -> t.Ir.dst)
      ir.Ir.transitions
  in
  let phase_index =
    first_binding fst snd
      (List.concat
         (List.mapi
            (fun pi (p : Ir.phase) -> List.map (fun s -> (s, pi)) p.Ir.members)
            ir.Ir.phases))
  in
  let phases = Array.of_list ir.Ir.phases in
  let sugg_id = Array.map (Hashtbl.find_opt sugg) states in
  let phase_names = Array.map (fun (p : Ir.phase) -> p.Ir.pname) phases in
  {
    states;
    sugg_id;
    action_of =
      Array.map (fun o -> Option.bind o (Hashtbl.find_opt action)) sugg_id;
    dst_of =
      Array.mapi
        (fun i s ->
          match sugg_id.(i) with
          | None -> i
          | Some aid -> (
              match Hashtbl.find_opt step (s ^ "\x00" ^ aid) with
              | Some d -> Option.value ~default:i (Hashtbl.find_opt index d)
              | None -> i (* an undefined transition self-loops *)))
        states;
    phase_of =
      Array.map
        (fun s -> Option.value ~default:(-1) (Hashtbl.find_opt phase_index s))
        states;
    nphases = Array.length phases;
    phase_names;
    certifiers =
      Array.map
        (fun (p : Ir.phase) ->
          Option.map (fun c -> Rule.to_string c.Ir.certifier) p.Ir.checkpoint)
        phases;
    dev_lbl =
      Array.map
        (function Some aid -> "deviant!" ^ aid | None -> "deviant!")
        sugg_id;
    cp_lbl = Array.map (fun p -> "[checkpoint " ^ p ^ "]") phase_names;
    initial = Hashtbl.find_opt index ir.Ir.initial;
    action;
    phase_index;
  }

(* ---- the §4.3 evidence model ---- *)

let covered_action (a : Ir.action) ~honest =
  match a.Ir.cls with
  | None -> false
  | Some Action.Internal -> false
  | Some Action.Information_revelation -> a.Ir.digested
  | Some Action.Message_passing -> a.Ir.rules <> [] && honest
  | Some Action.Computation -> a.Ir.mirrored && a.Ir.digested && honest

let exemptions =
  [
    ( Dev.Misreport_cost,
      "consistent cost misreport is pure information revelation: neutralized \
       by VCG strategyproofness (IC), invisible to checkers by design" );
    ( Dev.Lying_checker,
      "checker-role deviation only: in isolation the principal's own chain \
       is honest, so every digest still agrees — consequential only inside a \
       coalition (see collude-with)" );
  ]

let coverage_mask m ~honest =
  Array.map
    (function Some a -> covered_action a ~honest | None -> false)
    m.action_of

(* Every label's mask in one sweep over the states; labels no suggested
   action targets share one all-false mask. *)
let target_masks m =
  let ns = Array.length m.states in
  let none = Array.make ns false in
  let tbl = Hashtbl.create 32 in
  Array.iteri
    (fun i -> function
      | None -> ()
      | Some (a : Ir.action) ->
          List.iter
            (fun d ->
              let mask =
                match Hashtbl.find_opt tbl d with
                | Some mk -> mk
                | None ->
                    let mk = Array.make ns false in
                    Hashtbl.add tbl d mk;
                    mk
              in
              mask.(i) <- true)
            a.Ir.deviations)
    m.action_of;
  fun d -> Option.value ~default:none (Hashtbl.find_opt tbl d)
