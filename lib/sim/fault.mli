(** Seeded fault injection for the engine: the benign-failure models the
    rational-deviation gauntlet composes with.

    The paper's catch-and-punish analysis assumes reliable links; this
    module supplies the environments that assumption excludes — per-link
    stochastic loss and reordering, a network partition that heals at a
    scheduled time, and fail-stop crash/recover — so the checker
    evidence model can be tested for *blame correctness*: a fault must
    degrade progress (restarts, eventually a stuck phase), never produce
    an accusation against an honest node.

    Everything is driven by one integer seed through [Damd_util.Rng], so
    a fault schedule is pure data: the same [spec] against the same
    protocol run reproduces the same losses, delays and crash instants
    bit-for-bit — which is what lets gauntlet campaigns with faults stay
    replayable from their seed alone. *)

type phase_tag = [ `Costs | `Routing | `Pricing ]
(** Which construction phase a windowed fault anchors to. Window
    instants are offsets from that phase's start: a quiescing phase
    drains the whole event queue, so absolute-time timers would all fire
    during the first phase — anchoring is what makes "crash mid-phase
    2a" expressible. *)

type link = {
  loss_p : float;  (** per-message loss probability *)
  reorder_p : float;  (** probability of an extra random delay *)
  reorder_delay : float;  (** max extra delay, uniform in [0, reorder_delay) *)
}

type partition = {
  island : int list;  (** one side of the cut *)
  part_phase : phase_tag;
  at : float;  (** window start, offset from the anchoring phase's start *)
  heals_at : float;  (** messages cross again from this offset *)
}

type crash = {
  node : int;
  crash_phase : phase_tag;
  at : float;  (** fail-stop offset from the anchoring phase's start *)
  recovers_at : float;  (** node rejoins; protocol-level handoff applies *)
}

type spec = {
  seed : int;
  link : link option;
  partition : partition option;
  crash : crash option;
}

val is_none : spec -> bool

val phase_name : phase_tag -> string

type control
(** A live schedule: the seeded link stream, the partition window once
    armed, and whether injection is still on. *)

val create : n:int -> spec -> control
(** Validate the spec against an [n]-node network and start its
    schedule. Windowed components do nothing until [arm]ed by their
    anchoring phase. Raises [Invalid_argument] on malformed
    probabilities, windows or node ids. *)

val shape : control -> src:int -> dst:int -> now:float -> 'msg -> Engine.shaping
(** The schedule's decision for one send: [Lose] across an armed
    partition window, otherwise the link's seeded loss/reorder draw;
    [Pass] once deactivated. It has the shape of an [Engine.set_shaper]
    hook, and the caller owns that hook — [Damd_faithful.Runner]
    composes it after its other environment decisions. Call it once per
    send, in send order, for the realization to replay. *)

val arm :
  ?on_crash:(int -> unit) ->
  ?on_recover:(int -> unit) ->
  'msg Engine.t ->
  control ->
  phase:phase_tag ->
  unit
(** Called at a construction phase's start: schedules the crash/recover
    timers and materializes the partition window for the components
    anchored to [phase], relative to the current clock. Every call arms
    them again; [Damd_faithful.Runner] calls it on a phase's first
    attempt only, so a bank-ordered restart re-runs the phase without
    re-injecting, which is the recovery the graceful-degradation grading
    expects. Does nothing once [deactivate]d. [on_recover] is where the
    runner performs table handoff. *)

val deactivate : 'msg Engine.t -> control -> unit
(** End the injection window: [shape] passes everything from now on,
    down nodes revive and still-pending timers turn into no-ops. The
    shaper itself stays installed. The runner calls this when
    construction ends: no environment loss reaches execution packets
    ([Runner.channel_loss] spares them too), so fault campaigns keep
    Definition-8 utility deltas attributable to the deviant rather than
    to fault-realization noise. *)

val active : control -> bool
