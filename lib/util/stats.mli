(** Small summary-statistics toolkit used by the experiment harness and
    benchmark reporting. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;  (** sample standard deviation (n-1 denominator) *)
  min : float;
  max : float;
  median : float;
  p95 : float;
  p99 : float;
}

val mean : float list -> float
(** Arithmetic mean; 0. on the empty list. *)

val stddev : float list -> float
(** Sample standard deviation; 0. for fewer than two observations. *)

val percentile : float -> float list -> float
(** [percentile p xs] with [p] in [0,100], linear interpolation between
    order statistics. Raises [Invalid_argument] on the empty list. *)

val median : float list -> float

val summarize : float list -> summary
(** Full summary. Raises [Invalid_argument] on the empty list. *)

val histogram : bins:int -> float list -> (float * float * int) array
(** [histogram ~bins xs] buckets [xs] into [bins] equal-width bins over
    [min..max]; each cell is [(lo, hi, count)]. *)
