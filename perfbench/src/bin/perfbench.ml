(* The benchmark executable: one workload, one seed, one time budget.

     perfbench.exe --workload gauntlet|modelcheck|scale --seed N
                   --seconds S --trace 0|1 [--expect FILE]

   Prints one fingerprint line, then as its last line the result object
   {correct, attempted, failed, metrics}: the end-to-end metrics when
   untraced, the per-layer metrics when traced. perfbench/run.py builds
   and wraps it; see perfbench/README.md. *)

open Measure

let workloads = [ "gauntlet"; "modelcheck"; "scale" ]

(* Lines "INDEX HEX" of expected campaign digests. *)
let read_expect = function
  | None -> []
  | Some path ->
      let ic = open_in path in
      let rec go acc =
        match input_line ic with
        | line -> (
            match String.split_on_char ' ' (String.trim line) with
            | [ i; d ] -> go ((int_of_string i, d) :: acc)
            | _ -> go acc)
        | exception End_of_file ->
            close_in ic;
            List.rev acc
      in
      go []

(* The metrics this workload measured, in the order it reports them.
   run.py checks the names and units against BENCHMARK.json and reads a
   per-layer metric the workload does not report (a layer it never
   enters) as 0. *)
let metrics_json ms =
  Json.Obj
    (List.map
       (fun m ->
         (m.name, Json.Obj [ ("value", Json.Float m.value); ("unit", Json.String m.unit_) ]))
       ms)

let usage =
  "usage: perfbench.exe --workload W --seed N --seconds S --trace 0|1 [--expect FILE]"

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  let expect = ref None in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W  " ^ String.concat " | " workloads);
      ("--seed", Arg.Set_int seed, "N  workload seed");
      ("--seconds", Arg.Set_float seconds, "S  measured time");
      ("--trace", Arg.Set_int trace, "0|1  per-layer split");
      ("--expect", Arg.String (fun f -> expect := Some f), "FILE  expected campaign digests");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let trace = !trace = 1 and seed = !seed and seconds = !seconds in
  let o =
    match !workload with
    | "gauntlet" -> Gauntlet_wl.run ~seed ~seconds ~trace ~expect:(read_expect !expect)
    | "modelcheck" -> Modelcheck_wl.run ~seed ~seconds ~trace
    | "scale" -> Scale_wl.run ~seed ~seconds ~trace
    | w ->
        prerr_endline (Printf.sprintf "unknown workload %S\n%s" w usage);
        exit 2
  in
  let failed_frac = float_of_int o.failed /. float_of_int (max 1 o.attempted) in
  let fingerprint =
    Json.Obj
      [
        ("ocaml", Json.String Sys.ocaml_version);
        ("pool_default_domains", Json.Int (Damd_speccheck.Pool.default_domains ()));
        ("workload", Json.String !workload);
        ("seed", Json.Int seed);
        ("seconds", Json.Float seconds);
        ("trace", Json.Bool trace);
        ("attempted", Json.Int o.attempted);
        ("failed", Json.Int o.failed);
        ("failed_frac", Json.Float failed_frac);
        ("peak_heap_mb", Json.Float (peak_heap_mb ()));
        ("info", Json.Obj o.info);
      ]
  in
  print_endline (Json.to_string ~indent:0 (Json.Obj [ ("fingerprint", fingerprint) ]));
  let metrics =
    if trace then
      metrics_json
        (metric "failed_frac" "fraction" failed_frac
        :: metric "gc.peak_heap_mb" "MB" (peak_heap_mb ())
        :: o.metrics)
    else metrics_json o.metrics
  in
  print_endline
    (Json.to_string ~indent:0
       (Json.Obj
          [
            ("correct", Json.Bool (o.failed = 0));
            ("attempted", Json.Int o.attempted);
            ("failed", Json.Int o.failed);
            ("metrics", metrics);
          ]))
