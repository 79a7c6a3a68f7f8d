(** The §4.3 scenario plan that [Explore.search] runs, at n seats for
    [Explore.run] and at two for [Absint]: which searches run for each
    deviation label, what one search records, and how a label's search
    results fold back into its verdict.

    A label is settled without search when the checking story exempts it
    ([Machine.exemptions]), or when no catalogue action targets it (an
    orphan). Otherwise it runs one job per honesty class of the deviant's
    checker neighborhood — seats sharing a class are interchangeable in
    the evidence model. [Collude_with] runs one job per class of
    (principal, colluding checker) neighbor pairs, the class being "the
    principal has a neighbor besides the checker". One all-faithful job
    closes the plan. Many labels target the same states, so jobs that
    differ only in their label share one [shape]: the search runs each
    shape once and hands the result to every job of it. The seat count
    is the search's input; the plan, the shapes, the per-job bookkeeping
    and the fold are this module. *)

type job = {
  label : string;  (** e.g. ["drop-routing-copies[honest-nbrs]"] *)
  has_deviant : bool;
  stall : bool;  (** omission: the targeted step never completes *)
  targets : bool array;  (** states whose suggested action is targeted *)
  covered : bool array;
      (** states whose deviant execution deposits checkpoint evidence;
          always physically one of [plan.cov_honest], [plan.cov_isolated]
          or the all-faithful job's all-false mask *)
  faithful : bool;  (** the all-faithful job *)
}

(** A label's verdict, one type for both seat counts: [Explore.run]'s
    (n seats) and [Absint.run]'s static frontier (two seats). Each report
    names the kinds in its own words: damd-verify/1 prints
    detected/undetected without [phase], damd-analyze/1 prints
    certified/blind with it. *)
type verdict =
  | Detected of { depth : int; certifier : string option; phase : int }
      (** [depth] is the worst-case number of product steps, over the
          label's jobs, between the deviating step and the checkpoint that
          surfaces it (for omissions, the depth at which progress provably
          stops); [certifier] is the certifying rule and [phase] the
          certifying phase index, [None] and [-1] for the progress
          timeout. At two seats the depth is a lower bound on the n-seat
          one. *)
  | Undetected of { witness : string }
      (** A schedule exists on which the phase green-lights with the
          deviation unflagged, or the label never certifies; [witness] is
          the (truncated) step trace or the reason. *)
  | Exempt of { reason : string }
      (** Outside the checking story by design — e.g. [Misreport_cost]
          (neutralized by VCG strategyproofness, not by checkers) and
          [Lying_checker] (a checker-role no-op in isolation). *)
  | Truncated  (** the state bound ran out before a verdict was reached *)

type run =
  | Settled of verdict  (** decided by the plan, no search *)
  | Jobs of { jobs : job list; exposed : (int * int) option }
      (** [exposed]: a (principal, checker) pair whose checker covers the
          principal's whole neighborhood, named in a coalition escape *)

type entry = {
  dev : Dev.t;
  actions : Ir.action list;
      (** the declared actions the label targets, in no particular order
          ([Collude_with]: the computations a coalition can shield) *)
  run : run;
}

type plan = {
  entries : entry list;  (** one per non-[Faithful] label, sorted by name *)
  jobs : job list;
      (** every entry's jobs in entry order, then the all-faithful job *)
  cov_honest : bool array;  (** the two coverage masks every job shares *)
  cov_isolated : bool array;
}

val make :
  Machine.t -> Ir.t -> graph:Damd_graph.Graph.t -> adversary:Dev.t list -> plan

(** {1 One search per job shape} *)

val shape : plan -> job -> string
(** The job's shape: its targets, coverage mask, [stall], [has_deviant]
    and [faithful] — everything the search reads, so jobs of one
    shape get one result and differ only in [label]. On the stock spec
    the 19 jobs of a torus plan have 12 shapes. *)

val distinct : plan -> job list * int array
(** The first job of each shape, in [plan.jobs] order, and for every job
    of [plan.jobs] the position of its shape in that list. *)

(** {1 What one job's search records} *)

type result = {
  escape : string option;
      (** trace of a green-light with the deviation unflagged *)
  timeout : int option;  (** omission: depth at which progress stops *)
  lag : int;  (** worst act-to-certification distance, [-1] = none *)
  certifier : string option;
  cert_phase : int;
  acted : bool;  (** some targeted deviant step executed *)
  truncated : bool;
  states : int;
  findings : Check.finding list;
}

type tally
(** A job's bookkeeping while its search runs. The search calls the
    functions below at the events of the evidence model; everything
    else (seat model, dedup, frontier) is the caller's. *)

val tally : Machine.t -> run:string -> tally
(** [run] names the all-faithful search in its [false-accusation]
    message (["run"], ["abstract run"]). *)

val act : tally -> pbit:int -> depth:int -> unit
(** A targeted deviant step executed at [depth], charged to phase bit
    [pbit]. *)

val checkpoint :
  tally -> Machine.t -> ph:int -> acted:int -> evid:int -> depth:int -> bool
(** Phase [ph]'s checkpoint fires at [depth] over the acted/evidence
    bitmasks: a certifier with evidence certifies the acted deviation;
    [true] means the first escape, whose trace the caller then hands to
    [escape]. *)

val escape : tally -> Machine.t -> ph:int -> string -> unit
(** Records the escape: the caller's step trace, closed by phase [ph]'s
    green-light. *)

val reentry : tally -> Machine.t -> lbl:string -> dst:int -> unit
(** A [phase-reentry] finding: step [lbl] lands in [dst], whose phase
    already certified. *)

val deadlock :
  tally -> Machine.t -> job -> ph:int -> dev:int -> depth:int -> unit
(** Nothing can move inside open phase [ph]: a stalled deviant (at seat
    position [dev]) is the omission's progress-timeout detection at
    [depth]; otherwise a [false-accusation] (all-faithful job) or
    [certifier-unreachable] finding. *)

val result : tally -> truncated:bool -> states:int -> result

(** {1 Results to verdicts} *)

val unexplored :
  Machine.t -> product:string -> bool array -> Check.finding list
(** One [unexplored-state] error per state that no job's search ever
    occupied ([covered] is false), in state order. *)

val verdicts : plan -> product:string -> result list -> (entry * verdict) list
(** [results] are the jobs' results in [plan.jobs] order. A label is
    [Truncated] if any of its jobs was, [Undetected] on the first escape
    or on a job that never certifies, and otherwise [Detected] at its
    worst job. [product] names the search in one witness (["explored"],
    ["abstract"]). *)
