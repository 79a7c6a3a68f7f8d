module Graph = Damd_graph.Graph
module Engine = Damd_sim.Engine
module Phase = Damd_core.Phase
module Action = Damd_core.Action
module Leader = Damd_mech.Leader_election
module Sha256 = Damd_crypto.Sha256

type deviation =
  | Honest
  | Underbid_power
  | Overbid_power of float
  | Misreport_cost of float
  | Inconsistent_bid of float
  | Corrupt_bid_forward of float
  | Miscompute_winner
  | Refuse_to_serve

let deviation_name = function
  | Honest -> "honest"
  | Underbid_power -> "underbid-power"
  | Overbid_power d -> Printf.sprintf "overbid-power(+%g)" d
  | Misreport_cost c -> Printf.sprintf "misreport-cost(%g)" c
  | Inconsistent_bid d -> Printf.sprintf "inconsistent-bid(-%g)" d
  | Corrupt_bid_forward d -> Printf.sprintf "corrupt-bid-forward(+%g)" d
  | Miscompute_winner -> "miscompute-winner"
  | Refuse_to_serve -> "refuse-to-serve"

let classify = function
  | Honest -> []
  | Underbid_power | Overbid_power _ | Misreport_cost _ | Inconsistent_bid _ ->
      [ Action.Information_revelation ]
  | Corrupt_bid_forward _ -> [ Action.Message_passing ]
  | Miscompute_winner -> [ Action.Computation ]
  | Refuse_to_serve -> [ Action.Computation ]

type params = { benefit : float; checking : bool }

let default_params = { benefit = 2.; checking = true }
let progress_penalty = 1e4
let epsilon = 1.
let max_restarts = 2

type result = {
  completed : bool;
  leader : int option;
  detections : string list;
  restarts : int;
  utilities : float array;
  messages : int;
}

type msg = Bid of { origin : int; power : float; cost : float }

type node_state = {
  id : int;
  neighbors : int list;
  deviation : deviation;
  truth : Leader.theta;
  bids : Leader.theta option array;
}

let outcome_digest (winner, runner_up) =
  Sha256.digest_hex (Printf.sprintf "winner=%d;runner=%h" winner runner_up)

let declared_bid state ~neighbor_index =
  let t = state.truth in
  match state.deviation with
  | Underbid_power -> Leader.selfish_report t
  | Overbid_power d -> { t with Leader.power = t.Leader.power +. d }
  | Misreport_cost c -> { t with Leader.cost = c }
  | Inconsistent_bid d ->
      if neighbor_index mod 2 = 1 then
        { t with Leader.power = Float.max 0. (t.Leader.power -. d) }
      else t
  | _ -> t

let run ?(params = default_params) ~graph ~profile ~deviations () =
  let n = Graph.n graph in
  if Array.length profile <> n || Array.length deviations <> n then
    invalid_arg "Election.run: arity";
  let states =
    Array.init n (fun id ->
        {
          id;
          neighbors = Graph.neighbors graph id;
          deviation = deviations.(id);
          truth = profile.(id);
          bids = Array.make n None;
        })
  in
  let engine : msg Engine.t = Engine.create ~n () in
  let detections = ref [] in
  let detect d = detections := !detections @ [ d ] in
  let handler i ~sender:_ msg =
    let s = states.(i) in
    match msg with
    | Bid { origin; power; cost } -> (
        match s.bids.(origin) with
        | Some _ -> ()
        | None ->
            s.bids.(origin) <- Some { Leader.power; cost };
            let power, cost =
              match s.deviation with
              | Corrupt_bid_forward d -> (power, cost +. d)
              | _ -> (power, cost)
            in
            List.iter
              (fun nbr -> Engine.send engine ~src:i ~dst:nbr (Bid { origin; power; cost }))
              s.neighbors)
  in
  for i = 0 to n - 1 do
    Engine.set_handler engine i (handler i)
  done;
  (* Phase 1: bid flood, certified by global bid-table digest equality. *)
  let bid_phase =
    {
      Phase.name = "bids";
      run =
        (fun ~attempt:_ () ->
          Array.iter (fun s -> Array.fill s.bids 0 n None) states;
          Array.iter
            (fun s ->
              let own = declared_bid s ~neighbor_index:0 in
              s.bids.(s.id) <- Some own;
              List.iteri
                (fun idx nbr ->
                  let bid = declared_bid s ~neighbor_index:idx in
                  Engine.send engine ~src:s.id ~dst:nbr
                    (Bid { origin = s.id; power = bid.Leader.power; cost = bid.Leader.cost }))
                s.neighbors)
            states;
          ignore (Engine.run engine));
      certify =
        (fun () ->
          if Array.exists (fun s -> Array.exists Option.is_none s.bids) states then
            Error "incomplete bid tables"
          else if not params.checking then Ok ()
          else begin
            let digest s =
              Sha256.digest_hex
                (String.concat ";"
                   (Array.to_list
                      (Array.map
                         (fun b ->
                           let b = Option.get b in
                           Printf.sprintf "%h,%h" b.Leader.power b.Leader.cost)
                         s.bids)))
            in
            let digests = Array.map digest states in
            if Array.for_all (String.equal digests.(0)) digests then Ok ()
            else begin
              detect "BIDS: bid tables disagree (inconsistent revelation)";
              Error "bid tables disagree"
            end
          end);
    }
  in
  (* Phase 2: redundant outcome computation, certified by digest equality. *)
  let computed = Array.make n None in
  let outcome_phase =
    {
      Phase.name = "outcome";
      run =
        (fun ~attempt:_ () ->
          Array.iteri
            (fun i s ->
              let bids = Array.map Option.get s.bids in
              let honest =
                (* the centralized rule, recomputed redundantly by every node *)
                let o = Leader.second_score_outcome ~benefit:params.benefit bids in
                (o.Leader.leader, o.Leader.runner_up_score)
              in
              let claimed =
                match s.deviation with
                (* name itself winner at a zero runner-up price: maximally
                   tempting, and exactly what the digest comparison must
                   catch *)
                | Miscompute_winner -> (i, 0.)
                | _ -> honest
              in
              computed.(i) <- Some claimed)
            states);
      certify =
        (fun () ->
          if not params.checking then Ok ()
          else begin
            let digests = Array.map (fun o -> outcome_digest (Option.get o)) computed in
            if Array.for_all (String.equal digests.(0)) digests then Ok ()
            else begin
              detect "OUTCOME: redundant winner computations disagree";
              Error "outcome digests disagree"
            end
          end);
    }
  in
  match Phase.execute ~max_restarts () [ bid_phase; outcome_phase ] with
  | Phase.Stuck { progress; _ } ->
      {
        completed = false;
        leader = None;
        detections = !detections;
        restarts = Phase.total_restarts progress;
        utilities = Array.make n (-.progress_penalty);
        messages = Engine.messages_sent engine;
      }
  | Phase.Completed progress ->
      (* Execution: the (certified or self-nominated) leader serves. *)
      let leader, runner_up =
        if params.checking then Option.get computed.(0)
        else begin
          (* Unchecked bank: believe the first self-nomination. *)
          let claimant = ref None in
          Array.iteri
            (fun i o ->
              match (!claimant, o) with
              | None, Some (w, r) when w = i -> claimant := Some (i, r)
              | _ -> ())
            computed;
          match !claimant with
          | Some c -> c
          | None -> Option.get computed.(0)
        end
      in
      let serves = deviations.(leader) <> Refuse_to_serve in
      (* Quasilinear utilities matching the centralized mechanism exactly
         (Damd_mech.Leader_election.second_score): the leader earns its
         verified-delivery payment minus its true cost; everyone else is
         unaffected. Keeping the private-value structure is what preserves
         the dominant-strategy argument. *)
      let utilities =
        Array.init n (fun i ->
            if i <> leader then 0.
            else if serves then
              (params.benefit *. profile.(i).Leader.power) -. runner_up
              -. profile.(i).Leader.cost
            else begin
              detect (Printf.sprintf "EXEC: leader %d refused to serve" leader);
              -.epsilon
            end)
      in
      {
        completed = true;
        leader = Some leader;
        detections = !detections;
        restarts = Phase.total_restarts progress;
        utilities;
        messages = Engine.messages_sent engine;
      }

let run_honest ?params ~graph ~profile () =
  run ?params ~graph ~profile ~deviations:(Array.make (Graph.n graph) Honest) ()

let utility_gain ?params ~graph ~profile ~node ~deviation () =
  let honest = run_honest ?params ~graph ~profile () in
  let deviations = Array.make (Graph.n graph) Honest in
  deviations.(node) <- deviation;
  let deviant = run ?params ~graph ~profile ~deviations () in
  deviant.utilities.(node) -. honest.utilities.(node)

let deviation_library =
  [
    Underbid_power;
    Overbid_power 3.;
    Misreport_cost 0.;
    Inconsistent_bid 3.;
    Corrupt_bid_forward 2.;
    Miscompute_winner;
    Refuse_to_serve;
  ]
