(** Trace serialization: [damd-trace/1] and Chrome [trace_event].

    Both exports read the buffered events of a memory sink; for [noop]
    they produce valid-but-empty documents. *)

val to_json : ?meta:Obs.args -> Obs.t -> Damd_util.Json.t
(** The [damd-trace/1] document (schema in DESIGN.md §15): header,
    events sorted by timestamp, per-span-name duration statistics
    (via [Damd_util.Stats.summarize], including p50/p95/p99), and the
    sink's metrics registry. *)

val to_chrome : ?meta:Obs.args -> Obs.t -> Damd_util.Json.t
(** Chrome [trace_event] JSON (load in [chrome://tracing] or
    Perfetto): spans as ["ph":"X"] complete events, instants as
    ["ph":"i"], samples as ["ph":"C"] counter tracks. Timestamps are
    microseconds from trace start on one pid/tid; the viewer nests
    spans by ts/dur containment. *)

val write : ?meta:Obs.args -> path:string -> Obs.t -> unit
val write_chrome : ?meta:Obs.args -> path:string -> Obs.t -> unit
