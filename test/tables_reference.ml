(* The execution-phase accounting as [Damd_fpss.Tables] wrote it before
   [Tables.payments] became the one DATA4 sum: income as a fold over
   every (source, destination) demand, outlay as a fold over one
   source's price rows, transfers as their difference per node. Kept
   here as the oracle that [Tables.transfers], [income] and [outlay] are
   held to. *)

module Tables = Damd_fpss.Tables

let fold_demands (t : Tables.t) traffic f acc =
  let n = Array.length t.Tables.routing in
  let acc = ref acc in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then begin
        let rate = traffic.(src).(dst) in
        if rate > 0. then acc := f !acc ~src ~dst ~rate
      end
    done
  done;
  !acc

let income t traffic k =
  fold_demands t traffic
    (fun acc ~src ~dst ~rate ->
      match Tables.price t ~src ~dst ~transit:k with
      | Some p -> acc +. (p *. rate)
      | None -> acc)
    0.

let outlay (t : Tables.t) traffic i =
  let n = Array.length t.Tables.routing in
  let acc = ref 0. in
  for dst = 0 to n - 1 do
    if dst <> i && traffic.(i).(dst) > 0. then
      List.iter
        (fun (_, p) -> acc := !acc +. (p *. traffic.(i).(dst)))
        t.Tables.prices.(i).(dst)
  done;
  !acc

let transfers (t : Tables.t) traffic =
  let n = Array.length t.Tables.routing in
  Array.init n (fun k -> income t traffic k -. outlay t traffic k)
