module Graph = Damd_graph.Graph
module Tables = Damd_fpss.Tables

type outcome =
  | Caught of string list
  | No_effect
  | Escaped

let outcome_to_string = function
  | Caught rules -> "caught by " ^ String.concat "," rules
  | No_effect -> "no effect"
  | Escaped -> "ESCAPED"

type audit = {
  node : int;
  deviation : Adversary.t;
  outcome : outcome;
  gain : float;
  completed : bool;
}

let same_tables a b =
  match (a, b) with
  | Some a, Some b -> Tables.routing_equal a b && Tables.prices_equal a b
  | _ -> false

let one ?params ~graph ~traffic ~node ~deviation () =
  let faithful = Runner.run_faithful ?params ~graph ~traffic () in
  let deviations = Array.make (Graph.n graph) Adversary.Faithful in
  deviations.(node) <- deviation;
  let r = Runner.run ?params ~graph ~traffic ~deviations () in
  let rules =
    List.sort_uniq String.compare
      (List.map (fun d -> d.Bank.rule) r.Runner.detections)
  in
  let outcome =
    if rules <> [] then Caught rules
    else if same_tables r.Runner.tables faithful.Runner.tables then No_effect
    else Escaped
  in
  {
    node;
    deviation;
    outcome;
    gain = r.Runner.utilities.(node) -. faithful.Runner.utilities.(node);
    completed = r.Runner.completed;
  }

type matrix_row = {
  name : string;
  runs : int;
  caught : int;
  no_effect : int;
  escaped : int;
  rules : string list;
  max_gain : float;
}

let detection_matrix ?params ?(deviations = Adversary.library) ~targets () =
  deviations
  |> List.filter Adversary.detectable
  |> List.map (fun d ->
         let runs = ref 0 and caught = ref 0 and no_effect = ref 0 in
         let escaped = ref 0 and rules = ref [] and max_gain = ref neg_infinity in
         List.iter
           (fun (graph, traffic, nodes) ->
             List.iter
               (fun node ->
                 incr runs;
                 let a = one ?params ~graph ~traffic ~node ~deviation:d () in
                 if a.gain > !max_gain then max_gain := a.gain;
                 match a.outcome with
                 | Caught rs ->
                     incr caught;
                     rules := List.sort_uniq String.compare (rs @ !rules)
                 | No_effect -> incr no_effect
                 | Escaped -> incr escaped)
               nodes)
           targets;
         {
           name = Adversary.name d;
           runs = !runs;
           caught = !caught;
           no_effect = !no_effect;
           escaped = !escaped;
           rules = !rules;
           max_gain = !max_gain;
         })

let clean rows = List.for_all (fun r -> r.escaped = 0) rows

let max_gain ?params ~graph ~traffic () =
  let n = Graph.n graph in
  let best = ref neg_infinity and best_name = ref "-" in
  List.iter
    (fun d ->
      for node = 0 to n - 1 do
        let a = one ?params ~graph ~traffic ~node ~deviation:d () in
        if a.gain > !best then begin
          best := a.gain;
          best_name := Adversary.name d
        end
      done)
    Adversary.library;
  (!best, !best_name)
