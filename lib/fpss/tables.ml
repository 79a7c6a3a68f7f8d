module Dijkstra = Damd_graph.Dijkstra

type t = {
  routing : Dijkstra.entry option array array;
  prices : (int * float) list array array;
}

let path t ~src ~dst = Option.map (fun e -> e.Dijkstra.path) t.routing.(src).(dst)

let lcp_cost t ~src ~dst = Option.map (fun e -> e.Dijkstra.cost) t.routing.(src).(dst)

let price t ~src ~dst ~transit = List.assoc_opt transit t.prices.(src).(dst)

let packet_payments t ~src ~dst = t.prices.(src).(dst)

let transit_load t traffic k =
  let load = ref 0. in
  Array.iteri
    (fun src row ->
      Array.iteri
        (fun dst e ->
          match e with
          | Some e
            when src <> dst
                 && traffic.(src).(dst) > 0.
                 && List.mem k (Dijkstra.transit_nodes e.Dijkstra.path) ->
              load := !load +. traffic.(src).(dst)
          | _ -> ())
        row)
    t.routing;
  !load

let payments prices rates =
  let owed = ref [] in
  Array.iteri
    (fun dst row ->
      if rates.(dst) > 0. then
        List.iter
          (fun (k, p) ->
            let sum = Option.value ~default:0. (List.assoc_opt k !owed) in
            owed := (k, sum +. (p *. rates.(dst))) :: List.remove_assoc k !owed)
          row)
    prices;
  List.sort (fun (a, _) (b, _) -> Int.compare a b) !owed

(* Every transit's income and every source's outlay, credited from each
   source's DATA4. *)
let ledger t traffic =
  let n = Array.length t.prices in
  let income = Array.make n 0. and outlay = Array.make n 0. in
  Array.iteri
    (fun src row ->
      List.iter
        (fun (k, amount) ->
          outlay.(src) <- outlay.(src) +. amount;
          income.(k) <- income.(k) +. amount)
        (payments row traffic.(src)))
    t.prices;
  (income, outlay)

let income t traffic k = (fst (ledger t traffic)).(k)
let outlay t traffic i = (snd (ledger t traffic)).(i)

let transfers t traffic =
  let income, outlay = ledger t traffic in
  Array.map2 ( -. ) income outlay

let routing_equal a b =
  let paths t =
    Array.map (Array.map (Option.map (fun e -> e.Dijkstra.path))) t.routing
  in
  paths a = paths b

let prices_equal ?(tolerance = 0.) a b =
  let n = Array.length a.prices in
  if Array.length b.prices <> n then false
  else begin
    let same = ref true in
    for src = 0 to n - 1 do
      for dst = 0 to n - 1 do
        let pa = a.prices.(src).(dst) and pb = b.prices.(src).(dst) in
        if List.length pa <> List.length pb then same := false
        else
          List.iter2
            (fun (ka, va) (kb, vb) ->
              if ka <> kb || Float.abs (va -. vb) > tolerance then same := false)
            pa pb
      done
    done;
    !same
  end
