(** Trace sinks: spans, instants and counter samples.

    A sink is either [noop] (discards everything; the hot-path guard is
    a single tag test and no allocation happens) or an in-memory ring
    buffer (keeps the most recent [capacity] events, counting what it
    overwrote).

    Spans use the monotonic [Clock] and nest by recording the sink's
    current depth: a span emitted while [k] spans are open has
    [depth = k], and parent/child relationships are recoverable from
    [ts/dur] containment (which is also exactly how Chrome's
    [trace_event] viewer renders nesting on one thread track).

    Instrumented code should guard argument construction with
    [enabled]:
    {[
      if Obs.enabled obs then
        Obs.instant obs ~cat:"bank" ~args:[ ("culprit", Json.Int c) ]
          "accusation"
    ]} *)

type args = (string * Damd_util.Json.t) list

type event =
  | Span of {
      name : string;
      cat : string;
      ts_ns : int64;  (** start, relative to sink creation *)
      dur_ns : int64;
      depth : int;  (** number of enclosing open spans *)
      args : args;
    }
  | Instant of { name : string; cat : string; ts_ns : int64; args : args }
  | Sample of { name : string; ts_ns : int64; value : float }
      (** a point on a counter time-series *)

type t

val noop : t
(** Shared discard-everything sink. [span noop name f] is [f ()]; no
    clock read, no allocation. *)

val memory : ?detail:bool -> ?capacity:int -> unit -> t
(** Ring buffer of [capacity] events (default 65536), newest win. *)

val enabled : t -> bool
(** [false] only for [noop]. *)

val detailed : t -> bool
(** High-volume instrumentation (per-message instants in the engine)
    is emitted only when the sink was created with [~detail:true]. *)

val metrics : t -> Metrics.t option
(** Every enabled sink carries a registry; [None] for [noop]. *)

val span : t -> ?cat:string -> ?args:args -> string -> (unit -> 'a) -> 'a
(** Time [f] and record a complete-span event at exit. If [f] raises,
    the span is still recorded (with an ["error"] arg) and the
    exception rethrown. *)

val instant : t -> ?cat:string -> ?args:args -> string -> unit
val sample : t -> string -> float -> unit

val events : t -> event list
(** Buffered events, oldest first. [] for [noop]. *)

val dropped : t -> int
(** Events overwritten by ring-buffer wrap-around. *)

val reset : t -> unit
(** Clear buffered events, the drop count and the metrics registry. *)

val json_of_event : event -> Damd_util.Json.t
(** One event in [damd-trace/1] form (see DESIGN.md §15). *)
