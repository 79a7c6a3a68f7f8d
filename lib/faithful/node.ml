module Dijkstra = Damd_graph.Dijkstra

type send = dst:int -> Protocol.msg -> unit

(* One computed table's principal and checker state: the latest table
   each neighbour announced, what this node last announced ([None] from a
   [start] until the first announcement goes out, which forces it), and
   the checker mirrors' claimed inputs, indexed by principal, keyed by
   via. *)
type 'tbl slot = {
  mutable heard : (int * 'tbl) list;
  mutable announced : 'tbl option;
  mirrors : (int * 'tbl) list array;
}

type t = {
  id : int;
  n : int;
  neighbors : int list;
  neighbors_arr : int array;
  neighbor_sets : int list array;
  neighbor_arrs : int array array;
  plan : Adversary.plan;
  true_cost : float;
  copies : bool;
  learned_costs : float option array;
  mutable costs : float array;
  mutable routing : Protocol.routing_table;
  mutable pricing : Protocol.pricing_table;
  routing_slot : Protocol.routing_table slot;
  pricing_slot : Protocol.pricing_table slot;
  mutable carried : (int * int * float * int) list;
  mutable deliveries : (int * float * int list) list;
}

type 'tbl stage = {
  bank_rule : string;
  wrap : origin:int -> 'tbl -> Protocol.update;
  unwrap : Protocol.update -> (int * 'tbl) option;
  digest : 'tbl -> string;
  equal : 'tbl -> 'tbl -> bool;
  distort : float -> 'tbl -> 'tbl;
  table_plan : Adversary.plan -> Adversary.table_plan;
  slot : t -> 'tbl slot;
  get : t -> 'tbl;
  set : t -> 'tbl -> unit;
  empty : t -> 'tbl;
  recompute : t -> 'tbl;
  refresh : t -> old:'tbl -> 'tbl -> 'tbl;
  mirror : t -> principal:int -> 'tbl;
  inputs_digest : t -> string;
  mirror_inputs_digest : t -> principal:int -> string;
}

let set_assoc key value l = (key, value) :: List.remove_assoc key l

(* Row-granular intake. A row of either table reads only that row of the
   neighbours' tables (plus the fixed costs, and for pricing the node's
   own routing), so when a neighbour's [table] replaces its [old] one,
   only the rows where the two differ can change: [row] recomputes those
   and the rest are kept. [current] may be shared by reference with the
   neighbours' slots through an announcement, so the result is a copy. *)
let refresh_rows ~row_equal ~row current ~old table =
  let next = Array.copy current in
  for dst = 0 to Array.length next - 1 do
    if not (row_equal table.(dst) old.(dst)) then next.(dst) <- row dst
  done;
  next

(* Membership in a sorted int array — the O(log deg) fast path for the
   provenance checks that run on every message. *)
let mem_sorted (a : int array) v =
  let lo = ref 0 and hi = ref (Array.length a - 1) in
  let found = ref false in
  while (not !found) && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) = v then found := true
    else if a.(mid) < v then lo := mid + 1
    else hi := mid - 1
  done;
  !found

(* A created or reset slot counts as having announced the trivial table. *)
let new_slot ~n trivial = { heard = []; announced = Some trivial; mirrors = Array.make n [] }

let create ?(copies = true) ~id ~n ~neighbor_sets ~true_cost ~deviation () =
  let neighbors = List.sort Int.compare neighbor_sets.(id) in
  {
    id;
    n;
    neighbors;
    neighbors_arr = Array.of_list neighbors;
    neighbor_sets;
    neighbor_arrs =
      Array.map (fun l -> Array.of_list (List.sort Int.compare l)) neighbor_sets;
    plan = Adversary.plan deviation;
    true_cost;
    copies;
    learned_costs = Array.make n None;
    costs = Array.make n 0.;
    routing = Protocol.empty_routing ~n ~self:id;
    pricing = Protocol.empty_pricing ~n;
    routing_slot = new_slot ~n (Protocol.empty_routing ~n ~self:id);
    pricing_slot = new_slot ~n (Protocol.empty_pricing ~n);
    carried = [];
    deliveries = [];
  }

let reset_costs node =
  Array.fill node.learned_costs 0 node.n None;
  node.costs <- Array.make node.n 0.

let reset_stage st node =
  let slot = st.slot node in
  slot.heard <- [];
  st.set node (st.empty node);
  slot.announced <- Some (st.empty node);
  Array.fill slot.mirrors 0 node.n []

let reset_execution node =
  node.carried <- [];
  node.deliveries <- []

(* --- Phase 1: cost flood --- *)

let declared_cost_for node ~neighbor_index =
  match node.plan.Adversary.declare with
  | Adversary.True_cost -> node.true_cost
  | Adversary.Declare c -> c
  | Adversary.Split (a, b) -> if neighbor_index mod 2 = 0 then a else b

let announce_cost node (send : send) =
  (* The node's own view of its declaration is the value it would tell its
     first neighbor. *)
  node.learned_costs.(node.id) <- Some (declared_cost_for node ~neighbor_index:0);
  Array.iteri
    (fun idx nbr ->
      let cost = declared_cost_for node ~neighbor_index:idx in
      send ~dst:nbr (Protocol.Update (Protocol.Cost_announce { origin = node.id; cost })))
    node.neighbors_arr

let forwarded_cost node cost =
  match node.plan.Adversary.forward with Some delta -> cost +. delta | None -> cost

let on_cost_msg node (send : send) ~sender update =
  match update with
  | Protocol.Cost_announce { origin; cost } -> (
      match node.learned_costs.(origin) with
      | Some _ -> () (* first-received wins; duplicates are not re-flooded *)
      | None ->
          node.learned_costs.(origin) <- Some cost;
          let cost = forwarded_cost node cost in
          Array.iter
            (fun nbr ->
              if nbr <> sender then
                send ~dst:nbr (Protocol.Update (Protocol.Cost_announce { origin; cost })))
            node.neighbors_arr)
  | _ -> () (* a table update during phase 1 is dropped *)

let finalize_costs node =
  if Array.for_all Option.is_some node.learned_costs then begin
    node.costs <- Array.map Option.get node.learned_costs;
    true
  end
  else false

(* --- Phase 2: the two computed tables, one stage each ---

   Every obligation below is written once over a ['tbl stage]: update
   intake and recompute ([PRINC1]/[PRINC2]), copy forwarding to the
   checkers, announce-on-change, checker intake ([CHECK1]/[CHECK2]), the
   crash-handoff resend and the digests the bank collects. The stage
   values at the end of this section hold what routing ([DATA2]) and
   pricing ([DATA3*]) differ in. *)

let view st (dev : Adversary.distortion) table =
  match dev with
  | Honest -> Some table
  | Distort delta -> Some (st.distort delta table)
  | Withhold -> None

let update st node table = Protocol.Update (st.wrap ~origin:node.id table)

let copy st node ~via table =
  Protocol.Copy { principal = node.id; via; inner = st.wrap ~origin:via table }

(* Record into our checker mirror of [p] what we announce to [p]: a
   checker knows its own announcements first-hand. *)
let record_own st node p table =
  let slot = st.slot node in
  slot.mirrors.(p) <- set_assoc node.id table slot.mirrors.(p)

let announce st node (send : send) =
  match view st (st.table_plan node.plan).announce (st.get node) with
  | None -> ()
  | Some table ->
      let slot = st.slot node in
      let changed =
        match slot.announced with None -> true | Some last -> not (st.equal table last)
      in
      if changed then begin
        slot.announced <- Some table;
        Array.iter
          (fun nbr ->
            record_own st node nbr table;
            send ~dst:nbr (update st node table))
          node.neighbors_arr
      end

(* A copy enters the mirror of [principal] only when that principal, a
   neighbour, sent it, its inner origin equals its [via] tag, and [via]
   is a checker of the principal (§4.3 [CHECK2]: ignore messages whose
   identity is not a checker node of the principal). *)
let checker_accepts node ~sender ~principal ~via ~origin =
  sender = principal
  && mem_sorted node.neighbors_arr principal
  && origin = via
  && mem_sorted node.neighbor_arrs.(principal) via

let spoof_target node ~sender =
  (* A fabricated provenance: the neighbor after [sender] in id order. *)
  let rec next = function
    | [] -> List.hd node.neighbors
    | [ _ ] -> List.hd node.neighbors
    | x :: y :: rest -> if x = sender then y else next (y :: rest)
  in
  next node.neighbors

(* Relay a received table to the checkers, through the copy deviation
   view the crash-handoff resend applies too, then add any spoofed copy. *)
let forward_copies st node (send : send) ~sender table =
  if node.copies then begin
    let plan = st.table_plan node.plan in
    (match view st plan.copies table with
    | None -> ()
    | Some table ->
        Array.iter
          (fun c -> if c <> sender then send ~dst:c (copy st node ~via:sender table))
          node.neighbors_arr);
    match plan.spoof with
    | None -> ()
    | Some delta ->
        let via = spoof_target node ~sender in
        let fabricated = st.distort delta table in
        Array.iter
          (fun c -> if c <> via then send ~dst:c (copy st node ~via fabricated))
          node.neighbors_arr
  end

let start st node (send : send) =
  st.set node (st.recompute node);
  (st.slot node).announced <- None;
  announce st node send

(* Anything but this stage's update from a neighbour about itself, or an
   accepted copy of this stage's table, is dropped. *)
let on_msg st node (send : send) ~sender msg =
  match msg with
  | Protocol.Update u -> (
      match st.unwrap u with
      | Some (origin, table)
        when origin = sender && mem_sorted node.neighbors_arr sender ->
          let slot = st.slot node in
          let old = List.assoc_opt sender slot.heard in
          slot.heard <- set_assoc sender table slot.heard;
          forward_copies st node send ~sender table;
          st.set node
            (match old with
            | None -> st.recompute node
            | Some old -> st.refresh node ~old table);
          announce st node send
      | _ -> ())
  | Protocol.Copy { principal; via; inner } -> (
      match st.unwrap inner with
      | Some (origin, table) when checker_accepts node ~sender ~principal ~via ~origin ->
          let slot = st.slot node in
          slot.mirrors.(principal) <- set_assoc via table slot.mirrors.(principal)
      | _ -> ())
  | Protocol.Packet _ -> ()

(* Crash-recovery handoff: re-deliver the last announcement (if any) and
   the checker copies [to_] missed, through the live path's deviation
   views, so a deviant cannot be forced honest by crashing a neighbour. *)
let resend_to st node (send : send) ~to_ =
  let slot = st.slot node in
  Option.iter
    (fun table ->
      record_own st node to_ table;
      send ~dst:to_ (update st node table))
    slot.announced;
  if node.copies then
    List.iter
      (fun (s, table) ->
        if s <> to_ then
          match view st (st.table_plan node.plan).copies table with
          | None -> ()
          | Some table -> send ~dst:to_ (copy st node ~via:s table))
      slot.heard

let self_digest st node = st.digest (st.get node)

let mirror_digest st node ~principal = st.digest (st.mirror node ~principal)

let routing_stage =
  {
    bank_rule = "BANK1";
    wrap = (fun ~origin table -> Protocol.Routing_update { origin; table });
    unwrap =
      (function
      | Protocol.Routing_update { origin; table } -> Some (origin, table) | _ -> None);
    digest = Protocol.routing_digest;
    equal = Protocol.routing_equal;
    distort =
      (fun delta ->
        Array.map
          (Option.map (fun (e : Dijkstra.entry) ->
               match e.Dijkstra.path with
               | [ _ ] -> e (* the self entry stays honest: cost 0 is structural *)
               | _ -> { e with Dijkstra.cost = Float.max 0. (e.Dijkstra.cost +. delta) })));
    table_plan = (fun plan -> plan.Adversary.routing);
    slot = (fun node -> node.routing_slot);
    get = (fun node -> node.routing);
    set = (fun node table -> node.routing <- table);
    empty = (fun node -> Protocol.empty_routing ~n:node.n ~self:node.id);
    recompute =
      (fun node ->
        Protocol.recompute_routing ~self:node.id ~n:node.n ~costs:node.costs
          ~neighbor_tables:node.routing_slot.heard);
    refresh =
      (fun node ->
        refresh_rows ~row_equal:Protocol.routing_row_equal
          ~row:
            (Protocol.routing_row ~self:node.id ~costs:node.costs
               ~neighbor_tables:node.routing_slot.heard)
          node.routing);
    mirror =
      (fun node ~principal ->
        Protocol.recompute_routing ~self:principal ~n:node.n ~costs:node.costs
          ~neighbor_tables:node.routing_slot.mirrors.(principal));
    inputs_digest = (fun node -> Protocol.routing_inputs_digest node.routing_slot.heard);
    mirror_inputs_digest =
      (fun node ~principal ->
        Protocol.routing_inputs_digest node.routing_slot.mirrors.(principal));
  }

(* A pricing table is computed from the routing tables as well, so its
   recompute, mirror and fault-tolerant input digests read both slots. *)
let pricing_stage =
  {
    bank_rule = "BANK2";
    wrap = (fun ~origin table -> Protocol.Pricing_update { origin; table });
    unwrap =
      (function
      | Protocol.Pricing_update { origin; table } -> Some (origin, table) | _ -> None);
    digest = Protocol.pricing_digest;
    equal = Protocol.pricing_equal;
    distort =
      (fun delta ->
        Array.map
          (List.map (fun (pe : Protocol.price_entry) ->
               { pe with Protocol.price = Float.max 0. (pe.Protocol.price +. delta) })));
    table_plan = (fun plan -> plan.Adversary.pricing);
    slot = (fun node -> node.pricing_slot);
    get = (fun node -> node.pricing);
    set = (fun node table -> node.pricing <- table);
    empty = (fun node -> Protocol.empty_pricing ~n:node.n);
    recompute =
      (fun node ->
        Protocol.recompute_pricing ~self:node.id ~costs:node.costs
          ~own_routing:node.routing ~neighbor_routing:node.routing_slot.heard
          ~neighbor_pricing:node.pricing_slot.heard);
    refresh =
      (fun node ->
        refresh_rows ~row_equal:Protocol.pricing_row_equal
          ~row:
            (Protocol.pricing_row ~self:node.id ~costs:node.costs
               ~own_routing:node.routing ~neighbor_routing:node.routing_slot.heard
               ~neighbor_pricing:node.pricing_slot.heard)
          node.pricing);
    mirror =
      (fun node ~principal ->
        Protocol.recompute_pricing ~self:principal ~costs:node.costs
          ~own_routing:(routing_stage.mirror node ~principal)
          ~neighbor_routing:node.routing_slot.mirrors.(principal)
          ~neighbor_pricing:node.pricing_slot.mirrors.(principal));
    inputs_digest =
      (fun node ->
        routing_stage.inputs_digest node
        ^ Protocol.pricing_inputs_digest node.pricing_slot.heard);
    mirror_inputs_digest =
      (fun node ~principal ->
        routing_stage.mirror_inputs_digest node ~principal
        ^ Protocol.pricing_inputs_digest node.pricing_slot.mirrors.(principal));
  }

let reset_pricing_phase node = reset_stage pricing_stage node

let reset_routing_phase node =
  reset_stage pricing_stage node;
  reset_stage routing_stage node

let start_routing node send = start routing_stage node send
let on_routing_msg node send ~sender msg = on_msg routing_stage node send ~sender msg
let start_pricing node send = start pricing_stage node send
let on_pricing_msg node send ~sender msg = on_msg pricing_stage node send ~sender msg

(* --- Execution --- *)

let next_hop node ~dst =
  match node.routing.(dst) with
  | Some { Dijkstra.path = _ :: hop :: _; _ } -> Some hop
  | _ -> None

let forwarding_choice node ~dst ~exclude =
  if node.plan.Adversary.misroute then
    (* Send everything to the lowest-numbered neighbor (other than the
       node the packet just came from, to avoid a trivial bounce). *)
    match List.filter (fun v -> Some v <> exclude) node.neighbors with
    | v :: _ -> Some v
    | [] -> None
  else next_hop node ~dst

let originate_traffic node (send : send) ~dst ~rate =
  match forwarding_choice node ~dst ~exclude:None with
  | None -> ()
  | Some hop ->
      send ~dst:hop
        (Protocol.Packet { src = node.id; dst; rate; trace = [ node.id ] })

let max_trace node = (3 * node.n) + 6

let on_packet node (send : send) ~sender msg =
  match msg with
  | Protocol.Packet { src; dst; rate; trace } ->
      if dst = node.id then node.deliveries <- (src, rate, trace @ [ node.id ]) :: node.deliveries
      else begin
        node.carried <- (src, dst, rate, sender) :: node.carried;
        if List.length trace < max_trace node then
          match forwarding_choice node ~dst ~exclude:(Some sender) with
          | None -> ()
          | Some hop ->
              send ~dst:hop
                (Protocol.Packet { src; dst; rate; trace = trace @ [ node.id ] })
      end
  | _ -> () (* a table message during execution is dropped *)

let payments node traffic =
  Damd_fpss.Tables.payments (Array.map Protocol.price_pairs node.pricing) traffic.(node.id)

let payment_report node traffic =
  let scale = Option.value node.plan.Adversary.underreport ~default:1. in
  let entries = List.map (fun (k, v) -> (k, v *. scale)) (payments node traffic) in
  match entries with
  | (k0, _) :: _ when node.plan.Adversary.misattribute ->
      (* correct total, all credited to the first transit *)
      let total = List.fold_left (fun acc (_, v) -> acc +. v) 0. entries in
      [ (k0, total) ]
  | _ -> entries

(* --- Crash-recovery handoff of DATA1 --- *)

let resend_costs_to node (send : send) ~to_ =
  Array.iteri
    (fun idx nbr ->
      if nbr = to_ && Option.is_some node.learned_costs.(node.id) then
        send ~dst:to_
          (Protocol.Update
             (Protocol.Cost_announce
                { origin = node.id; cost = declared_cost_for node ~neighbor_index:idx })))
    node.neighbors_arr;
  Array.iteri
    (fun origin c ->
      match c with
      | Some cost when origin <> node.id ->
          send ~dst:to_
            (Protocol.Update
               (Protocol.Cost_announce { origin; cost = forwarded_cost node cost }))
      | _ -> ())
    node.learned_costs

(* --- Bank queries --- *)

let costs_digest node = Protocol.costs_digest node.costs
