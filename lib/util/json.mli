(** Minimal JSON emitter — enough to write benchmark trajectories
    ([BENCH_*.json]) and other machine-readable experiment artifacts
    without an external dependency. Emission only; no parser. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?indent:int -> t -> string
(** Render. [indent] spaces per nesting level (default 2); [indent:0]
    renders compact single-line JSON. Non-finite floats become [null]
    (JSON has no representation for them); finite floats use the shortest
    decimal form that round-trips. *)

val to_channel : ?indent:int -> out_channel -> t -> unit
(** [to_string] plus a trailing newline. *)

val to_file : string -> t -> unit
(** [to_channel] with 2-space indent into [path], creating or truncating
    it. *)
