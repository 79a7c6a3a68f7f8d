(** A protocol node: principal role, checker role for every neighbor, and
    the deviation's plan.

    The node is pure protocol state plus handlers parameterized by a
    [send] callback, so the same implementation runs on the simulator (via
    [Runner]) and in direct unit tests. [create] decodes the node's
    deviation once into an [Adversary.plan], and each handler reads the
    one component it may replace: the DATA1 declaration and forward delta,
    the stage's [table_plan] (announce, copies, spoof), misrouting, the
    DATA4 report, and, for the bank, whom the node shields as a checker.
    Under [Faithful]'s plan every component is honest and the node runs
    the *suggested specification*; any other plan replaces parts of it,
    implementing the paper's model of a rational node that ships its own
    code.

    One stage for both tables: the faithful extension puts the same three
    obligations on the routing table ([DATA2]) and the pricing table
    ([DATA3*]) — [PRINC1]/[PRINC2] (relay every received update to the
    checkers, then recompute and announce on change), [CHECK1]/[CHECK2]
    (mirror the principal from those copies) and [BANK1]/[BANK2] (the
    digests the bank compares). Each obligation is written once, over a
    ['tbl stage] ([routing_stage], [pricing_stage]) that holds what the two
    tables differ in, and each table's state lives in one ['tbl slot].

    Checker mirrors: for each neighbor [p], the node records the latest
    update [p] claims to have received from each of [p]'s neighbors
    (copies relayed by [p], plus the node's own announcements to [p],
    which it knows first-hand). A stage's [mirror] then recomputes what
    [p]'s table *must* be — the checkers' "heavy lifting" that the bank's
    hash comparison settles. Copy intake applies one filter to both
    tables: the copy must come from [p] itself, its inner origin must
    equal its [via] tag, and [via] must be a checker of [p] (a neighbor of
    [p]); a rejected copy is dropped, whichever table it carries. *)

type send = dst:int -> Protocol.msg -> unit

type 'tbl slot = {
  mutable heard : (int * 'tbl) list;
      (** principal side: the latest table each neighbor announced, the
          very value it sent. As a checker's record of its principal's
          announcement, the bank reads it at a checkpoint. *)
  mutable announced : 'tbl option;
      (** the node's last announcement. A created or reset node counts as
          having announced the trivial table; [start] clears it to [None],
          so the first announcement is forced. Also the node's signed
          answer to "what did you announce?", which the fault-tolerant
          bank compares with what the checkers hold: for a computation
          deviant the distorted table (the node cannot un-announce), for
          an honest node a table equal to its own. *)
  mirrors : (int * 'tbl) list array;
      (** checker side: the claimed inputs of each principal (indexed by
          its id), keyed by via *)
}

type t = {
  id : int;
  n : int;
  neighbors : int list;  (** sorted *)
  neighbors_arr : int array;  (** [neighbors] as an array — hot-loop fast path *)
  neighbor_sets : int list array;  (** everyone's neighbor lists (checker common knowledge) *)
  neighbor_arrs : int array array;
      (** [neighbor_sets] as sorted arrays, for O(log deg) provenance checks *)
  plan : Adversary.plan;
      (** [Adversary.plan] of the deviation given to [create] (an
          [Epsilon_rational] wrapper handed in directly is taken as
          *active*: the gauntlet grader resolves activation before
          building nodes) *)
  true_cost : float;
  copies : bool;
      (** forward checker copies ([PRINC1]/[PRINC2] message-passing);
          disabled for the plain-FPSS baseline of experiment E6 *)
  (* DATA1 *)
  learned_costs : float option array;
  mutable costs : float array;  (** fixed at the end of phase 1 *)
  (* the computed tables and their slots *)
  mutable routing : Protocol.routing_table;
  mutable pricing : Protocol.pricing_table;
  routing_slot : Protocol.routing_table slot;
  pricing_slot : Protocol.pricing_table slot;
  (* execution state *)
  mutable carried : (int * int * float * int) list;
      (** (src, dst, rate, from) transits actually performed *)
  mutable deliveries : (int * float * int list) list;
      (** (src, rate, trace) for packets terminating here *)
}

(** Everything the routing and pricing stages differ in. *)
type 'tbl stage = {
  bank_rule : string;  (** ["BANK1"] | ["BANK2"]: the checkpoint's rule *)
  wrap : origin:int -> 'tbl -> Protocol.update;
  unwrap : Protocol.update -> (int * 'tbl) option;
      (** [Some (origin, table)] for this stage's update constructor *)
  digest : 'tbl -> string;
  equal : 'tbl -> 'tbl -> bool;
  distort : float -> 'tbl -> 'tbl;
  table_plan : Adversary.plan -> Adversary.table_plan;
      (** this table's part of the plan: the distortion of the node's own
          announcements and of the copies it relays to checkers (live and
          in the crash handoff), and the delta of a spoofed copy *)
  slot : t -> 'tbl slot;
  get : t -> 'tbl;
  set : t -> 'tbl -> unit;
  empty : t -> 'tbl;  (** the trivial table of a reset *)
  recompute : t -> 'tbl;
      (** the principal's computation from its heard tables, every row:
          what [start] runs *)
  refresh : t -> old:'tbl -> 'tbl -> 'tbl;
      (** [refresh node ~old table]: the node's table after a neighbour's
          [table] replaced its [old] one in the heard tables, recomputing
          only the rows where the two differ, on a copy. Equal to
          [recompute] (under [equal]) whenever the node's table was equal
          to [recompute] before the replacement. *)
  mirror : t -> principal:int -> 'tbl;
      (** the checker's recomputation of [principal]'s table from its
          claimed inputs (pricing also mirrors the principal's routing) *)
  inputs_digest : t -> string;
      (** digest of the node's consumed inputs (pricing: both tables') *)
  mirror_inputs_digest : t -> principal:int -> string;
      (** digest of the inputs a checker's mirror of [principal] consumed *)
}

val routing_stage : Protocol.routing_table stage
val pricing_stage : Protocol.pricing_table stage

val create :
  ?copies:bool ->
  id:int ->
  n:int ->
  neighbor_sets:int list array ->
  true_cost:float ->
  deviation:Adversary.t ->
  unit ->
  t
(** [copies] defaults to [true]. *)

val reset_costs : t -> unit
(** Wipe DATA1 (a phase-1 restart). *)

val reset_routing_phase : t -> unit
(** Wipe phase-2 state (both tables) — a bank-ordered restart of the
    routing stage. *)

val reset_pricing_phase : t -> unit
(** Wipe only the pricing table's state (a [BANK2]-ordered restart keeps
    the certified routing tables). *)

val reset_execution : t -> unit

(** {2 Phase 1 — transit-cost flood} *)

val announce_cost : t -> send -> unit
(** Originate the node's own cost announcement (deviations: misreport /
    inconsistent values per neighbor). *)

val on_cost_msg : t -> send -> sender:int -> Protocol.update -> unit
(** Store first-received facts and flood them on (deviation: corrupt
    forwarded facts). *)

val finalize_costs : t -> bool
(** Freeze DATA1; [false] if some cost is still unknown. *)

(** {2 Phase 2 — routing, then pricing tables} *)

val start : 'tbl stage -> t -> send -> unit
(** Recompute the table from what the node has heard (nothing, after a
    reset) and announce it, forced. *)

val on_msg : 'tbl stage -> t -> send -> sender:int -> Protocol.msg -> unit
(** Handles both direct updates (store, forward copies to checkers,
    recompute, announce on change) and copies (update the relevant
    mirror). Anything else is dropped: an update that is not from a
    neighbour about itself, a copy the intake filter rejects, a message
    of another stage. An update from a
    neighbour heard before recomputes only the rows its new table changed
    ([refresh]); a neighbour's first table recomputes every row. Either
    way the node's table equals [recompute] of everything it has heard. *)

val start_routing : t -> send -> unit
val on_routing_msg : t -> send -> sender:int -> Protocol.msg -> unit
val start_pricing : t -> send -> unit
val on_pricing_msg : t -> send -> sender:int -> Protocol.msg -> unit
(** [start] and [on_msg] at [routing_stage] and [pricing_stage]. *)

(** {2 Execution} *)

val originate_traffic : t -> send -> dst:int -> rate:float -> unit

val on_packet : t -> send -> sender:int -> Protocol.msg -> unit

val payments : t -> Damd_fpss.Traffic.t -> (int * float) list
(** The honest DATA4 of the node's own pricing rows and traffic row:
    [Damd_fpss.Tables.payments], per-transit totals sorted by transit.
    After a clean pricing checkpoint these rows are the certified ones,
    so the bank's verified clearing reads this too. *)

val payment_report : t -> Damd_fpss.Traffic.t -> (int * float) list
(** The DATA4 report the node signs: its plan applied to [payments]
    (under-reporting scales every total; misattribution credits the whole
    total to the first transit). *)

(** {2 What the bank collects}

    The table checkpoints read the tables themselves — the node's own,
    its slot's [announced], each checker's [heard] copy and [mirror] — and
    hash each distinct one once ([Bank.checkpoint]). The two digests
    below hash one table per call. *)

val costs_digest : t -> string

val self_digest : 'tbl stage -> t -> string
(** Digest of the node's own table. *)

val mirror_digest : 'tbl stage -> t -> principal:int -> string
(** Digest of this checker's [mirror] of [principal]'s table. *)

(** {2 Crash-recovery handoff} *)

val resend_costs_to : t -> send -> to_:int -> unit
(** Re-deliver every known DATA1 fact to a recovered neighbor, applying
    the node's usual declaration/forwarding deviations. Receivers keep
    first-received facts, so re-sends are idempotent. *)

val resend_to : 'tbl stage -> t -> send -> to_:int -> unit
(** Re-deliver the last announcement (if any) plus the checker copies the
    recovered neighbor missed, through the same deviation views as the
    live path (the [table_plan]'s [copies]). *)
