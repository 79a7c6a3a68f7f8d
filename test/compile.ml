module Sm = Damd_core.State_machine
module Action = Damd_core.Action
module Ir = Damd_speccheck.Ir

let machine (ir : Ir.t) : (string, string) Sm.t =
  {
    Sm.initial = ir.Ir.initial;
    transition =
      (fun state act ->
        match Ir.step ir state act with Some dst -> dst | None -> state);
    suggested = (fun state -> Ir.suggested_action ir state);
    classify =
      (fun act ->
        match Ir.find_action ir act with
        | Some { Ir.cls = Some c; _ } -> c
        | Some { Ir.cls = None; _ } | None -> Action.Internal);
  }

let suggested_path ir ~max_steps =
  let m = machine ir in
  List.map (fun s -> s.Sm.action) (Sm.trace ~max_steps m)
