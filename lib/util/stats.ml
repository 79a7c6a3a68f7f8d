type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
  p95 : float;
  p99 : float;
}

let mean xs =
  match xs with
  | [] -> 0.
  | _ ->
      let total = List.fold_left ( +. ) 0. xs in
      total /. float_of_int (List.length xs)

let stddev xs =
  let n = List.length xs in
  if n < 2 then 0.
  else
    let m = mean xs in
    let sq = List.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0. xs in
    sqrt (sq /. float_of_int (n - 1))

(* [Float.compare] rather than polymorphic [compare]: same total order on
   well-behaved inputs, but no per-element boxing through the generic
   comparator and a defined (total) order when NaNs slip in. *)
let sorted_array xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let percentile_of_sorted a p =
  let n = Array.length a in
  if n = 1 then a.(0)
  else
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    if lo = hi then a.(lo)
    else
      let frac = rank -. float_of_int lo in
      a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let percentile p xs =
  match xs with
  | [] -> invalid_arg "Stats.percentile: empty list"
  | _ ->
      if p < 0. || p > 100. then
        invalid_arg "Stats.percentile: p out of range";
      percentile_of_sorted (sorted_array xs) p

let median xs = percentile 50. xs

let summarize xs =
  (match xs with
  | [] -> invalid_arg "Stats.summarize: empty list"
  | _ -> ());
  (* One sort serves min/max/median/p95/p99; mean and stddev are computed
     from the same array instead of re-traversing the list three more
     times. *)
  let a = sorted_array xs in
  let n = Array.length a in
  let mean = Array.fold_left ( +. ) 0. a /. float_of_int n in
  let stddev =
    if n < 2 then 0.
    else
      let sq =
        Array.fold_left (fun acc x -> acc +. ((x -. mean) *. (x -. mean))) 0. a
      in
      sqrt (sq /. float_of_int (n - 1))
  in
  {
    n;
    mean;
    stddev;
    min = a.(0);
    max = a.(n - 1);
    median = percentile_of_sorted a 50.;
    p95 = percentile_of_sorted a 95.;
    p99 = percentile_of_sorted a 99.;
  }

let histogram ~bins xs =
  if bins <= 0 then invalid_arg "Stats.histogram: bins must be positive";
  match xs with
  | [] -> [||]
  | _ ->
      let a = sorted_array xs in
      let lo = a.(0) and hi = a.(Array.length a - 1) in
      let width = if hi > lo then (hi -. lo) /. float_of_int bins else 1.0 in
      let counts = Array.make bins 0 in
      let place x =
        let idx = int_of_float ((x -. lo) /. width) in
        let idx = if idx >= bins then bins - 1 else idx in
        counts.(idx) <- counts.(idx) + 1
      in
      Array.iter place a;
      Array.mapi
        (fun i c ->
          let blo = lo +. (float_of_int i *. width) in
          (blo, blo +. width, c))
        counts
