(** Counters, gauges and fixed-bucket histograms.

    A registry is a flat namespace per instrument kind; registering the
    same name twice returns the same instrument. Updates are
    allocation-free ([incr]/[add]/[set] mutate an existing cell;
    [observe] writes into preallocated arrays), so instrumented hot
    paths pay a few stores at most.

    Histograms keep fixed bucket counts plus the first
    [reservoir_capacity] raw samples. Percentile extraction uses
    [Damd_util.Stats.percentile] over the raw samples while they are
    complete and falls back to linear interpolation inside the bucket
    bounds once the reservoir has overflowed. *)

type t

val create : unit -> t
val reset : t -> unit
(** Zero every registered instrument (registrations persist). *)

(** {2 Counters} *)

type counter

val counter : t -> string -> counter
val incr : counter -> unit
val add : counter -> int -> unit
val set_counter : counter -> int -> unit
(** Overwrite the value — used to snapshot externally-maintained raw
    counters (e.g. engine message totals) into a registry at export. *)

val counter_value : counter -> int

(** {2 Gauges} *)

type gauge

val gauge : t -> string -> gauge

val set : gauge -> float -> unit
(** Record the instantaneous value; the registry also tracks the peak. *)

val gauge_value : gauge -> float
val gauge_max : gauge -> float

(** {2 Histograms} *)

type histogram

val reservoir_capacity : int

val histogram : t -> string -> histogram
(** The bucket upper bounds run 1, 2, 5, 10, ... 5e8 (a 1-2-5
    progression that suits both nanosecond durations and small
    cardinalities); observations above 5e8 land in an implicit overflow
    bucket. Returns the registered histogram when [name] already is. *)

val observe : histogram -> float -> unit
val hist_count : histogram -> int

val percentile : histogram -> float -> float
(** [percentile h p] for [p] in [0..100]. [nan] when empty. *)

val to_json : t -> Damd_util.Json.t
(** Stable (name-sorted) snapshot: counters, gauges with peaks, and
    histograms with count/sum/min/max, p50/p95/p99 and bucket counts. *)
