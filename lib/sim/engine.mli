(** Deterministic discrete-event network simulator.

    The substrate the distributed mechanisms run on. Nodes are integers
    [0..n-1]; each has a message handler installed by the protocol layer.
    Delivery events carry a user-defined message type; per-link latency is
    pluggable (default: constant 1.0, which makes the execution round-like
    and matches the synchronous model of the FPSS/Griffin–Wilfong
    analysis). Ties are broken by send order, so runs are fully
    deterministic — a property the reproducibility of every experiment in
    this repository rests on.

    FIFO guarantee: messages between a given (src, dst) pair are delivered
    in send order provided the latency function is constant per link (the
    scheduler breaks equal-time ties by insertion order, and constant
    per-link latency keeps timestamps monotone per link).

    Determinism guarantee: equal-time events — across *all* links and
    timers, not just within one link — are processed in the exact order
    they were enqueued. The backing [Damd_util.Pqueue] stamps every entry
    with a monotonically increasing sequence number and orders ties by it,
    so two runs fed the same sends produce byte-identical delivery traces
    even under perturbed (jittered/duplicated) schedules. The gauntlet's
    seed-replay machinery rests on this.

    The paper's adversaries are *rational nodes*, i.e. deviant handlers —
    they simply send different messages — so deviation needs no engine
    support. The engine's one per-send hook, the [shaper], models the
    *network environment* instead: it can lose or delay what a node
    sent, never rewrite it.

    Schedule coverage: because equal-time ties are the only scheduling
    freedom, the set of delivery orders this engine can ever produce (over
    all jitter/duplication perturbations) is exactly the set of
    interleavings of equal-timestamp events. [Damd_speccheck.Explore]
    exploits that: its product-space BFS branches on which node steps
    next, so a property verified over the explored graph holds for every
    schedule this engine can serialize — the exploration is the
    schedule-universal counterpart of one concrete run here. *)

type 'msg t

type outcome =
  | Quiescent  (** event queue drained — the network converged *)
  | Event_limit  (** stopped after [max_events] deliveries *)

type shaping =
  | Pass  (** deliver normally *)
  | Lose  (** the message was sent but never arrives ([messages_lost]) *)
  | Delay of float  (** add this much to the link latency (must be >= 0) *)

val create : ?latency:(src:int -> dst:int -> float) -> n:int -> unit -> 'msg t
(** A fresh engine with [n] nodes, no handlers, empty queue, time 0. *)

val n : 'msg t -> int

val now : 'msg t -> float
(** Current simulation time. *)

val set_handler : 'msg t -> int -> (sender:int -> 'msg -> unit) -> unit
(** Install node [i]'s message handler. Handlers typically close over the
    engine and call [send] to emit messages. *)

val set_shaper :
  'msg t -> (src:int -> dst:int -> now:float -> 'msg -> shaping) -> unit
(** The network-environment hook: it can only lose or delay what was
    actually sent. The shaper runs once per send from an up node, after
    the send is counted, in global send order — so a shaper driven by a
    seeded [Damd_util.Rng] makes the fault realization a pure function of
    (seed, protocol behavior) and runs stay bit-for-bit reproducible. It
    may itself [send] or [schedule] (a duplicate, say); such a nested
    send is shaped like any other. Equal-timestamp ties among delayed
    messages are still broken by enqueue order (see the determinism
    guarantee above), so link faults never introduce scheduling
    nondeterminism.
    At most one shaper; [clear_shaper] removes it. [Delay] composes with
    link latency additively; note a positive delay can reorder messages
    *within* a link, which is exactly the reordering fault model. *)

val clear_shaper : 'msg t -> unit

val set_down : 'msg t -> int -> bool -> unit
(** Crash-stop a node (or bring it back). While down, a node neither
    sends ([send] with a down [src] loses the message) nor receives —
    in-flight messages reaching it at delivery time are lost, matching
    the fail-stop model where a crash forfeits the channel contents.
    Handlers and node state are untouched: recovery is the protocol
    layer's job (table handoff in [Damd_faithful.Runner]). *)

val is_down : 'msg t -> int -> bool

val all_up : 'msg t -> unit
(** Clear every down flag (end of a fault campaign's injection window). *)

val set_size : 'msg t -> ('msg -> int) -> unit
(** Message-size model for byte accounting (default: every message is one
    byte). It is called once per send, lost or not, in send order, and
    nowhere else; so it may memoize, e.g. remember the last payload it
    sized ([Damd_faithful.Protocol.sizer]). *)

val send : 'msg t -> src:int -> dst:int -> 'msg -> unit
(** Count the message as sent, then enqueue a delivery event at
    [now + latency src dst] unless the source is down or the shaper loses
    it. Self-sends are allowed (delivered like any other message). *)

val schedule : 'msg t -> delay:float -> (unit -> unit) -> unit
(** Enqueue a timer callback. [delay] must be non-negative. *)

val run : ?max_events:int -> 'msg t -> outcome
(** Process events in time order until the queue drains or [max_events]
    (default [10_000_000]) events have been processed. The queue is
    consulted before the budget, so a run whose queue drains on exactly its
    last allowed event is [Quiescent]; [Event_limit] means events remain
    pending (they stay queued, so a subsequent [run] resumes them). May be
    called again after new sends — the faithful protocol alternates
    [run]-to-quiescence with bank checkpoints. *)

val events_processed : 'msg t -> int
(** Events (deliveries and timers) processed since the last [reset_stats]
    (or creation). Zeroed by [reset_stats] along with the other counters,
    so warm-start epochs do not silently mix: each phase's
    [events_processed] is a schedule-length fingerprint for that phase
    alone. *)

(** Accounting, reset with [reset_stats]. *)

val messages_sent : 'msg t -> int
(** Every send, lost ones included. *)

val messages_delivered : 'msg t -> int

val messages_lost : 'msg t -> int
(** Lost to the environment: shaper [Lose] decisions plus messages sent
    by or delivered to a down node. *)

val bytes_sent : 'msg t -> int

val shaper_losses : 'msg t -> int
(** Shaper [Lose] decisions (a subset of [messages_lost]: down-node
    losses are not shaper decisions). *)

val shaper_delays : 'msg t -> int
(** Shaper [Delay] decisions. *)

val queue_peak : 'msg t -> int
(** High-water mark of the event queue since the last [reset_stats]. *)

val reset_stats : 'msg t -> unit
(** Zero every counter above — including the per-kind counters,
    shaper-decision counts and queue peak read by the obs layer. *)

(** {2 Observability}

    The engine carries a [Damd_obs.Obs] sink (default
    [Damd_obs.Obs.noop]). With a sink installed, the run loop samples a
    queue-depth counter track, and — when the sink was created with
    [~detail:true] — emits a per-message instant for every send,
    delivery and loss (with src/dst/kind/shaping args), which is the raw
    material of a forensic timeline. A [kind_of] classifier additionally
    maintains per-message-kind sent/delivered/lost counters.
    None of this perturbs the simulation: no RNG is consulted and no
    event ordering changes. *)

val set_obs :
  ?kinds:string array ->
  ?kind_of:('msg -> int) ->
  'msg t ->
  Damd_obs.Obs.t ->
  unit
(** Install a sink and (optionally) a message-kind classifier mapping
    each message to an index into [kinds]. Out-of-range indices are
    counted as kindless. Installs fresh (zeroed) per-kind counters. *)

val obs : 'msg t -> Damd_obs.Obs.t

val kind_stats : 'msg t -> (string * int * int * int) list
(** Per-kind [(name, sent, delivered, lost)] in [kinds] order;
    [[]] until [set_obs] installs a classifier. *)

val obs_metrics : ?prefix:string -> 'msg t -> Damd_obs.Metrics.t -> unit
(** Snapshot every engine counter (totals, shaper decisions, queue peak
    and per-kind counts) into a metrics registry under the
    [<prefix>.*] namespace (default ["engine"]) — callers that
    [reset_stats] between epochs can snapshot each epoch under its own
    prefix. *)
