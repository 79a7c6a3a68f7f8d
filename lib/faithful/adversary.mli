(** The rational-manipulation library — §4.3's manipulation catalogue made
    executable.

    A rational node replaces parts of the suggested strategy
    s^m = (r^m, p^m, c^m): its information-revelation, message-passing and
    computational actions (§3.4). Each deviation is therefore one point in
    a space of replacements, a [plan]: what the node declares in DATA1,
    how it alters cost facts it forwards, what it does to each computed
    table it sends (its own announcements, the copies it relays to
    checkers, fabricated copies), how it misbehaves in execution, and whom
    it shields as a checker. The named constructors of [t] are the
    catalogue's representative points, covering:

    - the paper's manipulations 1–4 (drop / change / spoof forwarded
      routing and pricing updates; miscompute either table),
    - information-revelation deviations (consistent misreport — allowed
      and unprofitable under VCG; inconsistent announcement — caught by
      the phase-1 certificate),
    - execution-phase deviations (payment under-reporting, packet
      misrouting),
    - omission (silence), which the catch-and-punish machinery also flags,
    - checker-role deviations (lying checkers, collusion), and
    - fail-arbitrary nodes, whose plan [plan_of_seed] samples.

    [plan] decodes a deviation once; [Node] plays the plan and the scope
    predicates below ([is_construction], [detectable], [checker_caught],
    ...) are functions of it. [classify] maps each deviation to the
    external-action classes it touches, which is what routes it into the
    strong-CC / strong-AC / IC sweeps of [Damd_core.Equilibrium]. *)

type t =
  | Faithful
  | Misreport_cost of float
      (** declare this transit cost to everyone (consistent lie) *)
  | Inconsistent_cost of float * float
      (** declare the first cost to even-indexed neighbors, the second to
          odd — inconsistent information revelation (Remark 4); two equal
          costs are the consistent [Misreport_cost] of that cost *)
  | Corrupt_cost_forward of float
      (** add this delta to every transit-cost fact forwarded for others *)
  | Drop_routing_copies
      (** [PRINC1] message-passing deviation: never forward routing copies
          to checkers *)
  | Drop_pricing_copies  (** same for [PRINC2] *)
  | Corrupt_routing_copies of float
      (** inflate path costs inside forwarded routing copies *)
  | Corrupt_pricing_copies of float
      (** inflate prices inside forwarded pricing copies *)
  | Spoof_routing_update of float
      (** fabricate a copy claiming a neighbor announced costs inflated by
          this delta *)
  | Spoof_pricing_update of float
      (** fabricate a copy claiming a neighbor announced prices inflated
          by this delta *)
  | Miscompute_routing of float
      (** announce own routing entries with costs shifted by this delta
          (negative = understate downstream costs to attract traffic and
          inflate the VCG premium — the profitable manipulation when
          checking is disabled) *)
  | Miscompute_pricing of float
      (** announce own pricing entries inflated by this delta *)
  | Underreport_payments of float
      (** report this fraction of the true [DATA4] payment total *)
  | Misroute_packets
      (** forward execution packets to the lowest-numbered neighbor
          instead of the certified next hop *)
  | Misattribute_payments
      (** report the correct DATA4 *total* but shift every payment onto
          the lowest-numbered owed transit — caught only because the bank
          compares per-transit entries, not just totals *)
  | Silent_in_construction
      (** never announce own tables (omission) *)
  | Combined_routing_attack of float
      (** a *joint* deviation within phase 2a, exercising the "any
          combination" quantifier of Defs. 12-13: corrupt forwarded
          routing copies by +delta, announce own tables distorted by
          -delta, and spoof an extra update — all at once *)
  | Combined_pricing_attack of float
      (** the phase-2b analogue: corrupt pricing copies, inflate own
          announced prices and spoof, simultaneously *)
  | Lying_checker
      (** checker-role deviation: report to the bank, for every principal
          it checks, whatever digest the principal self-reports (instead of
          its honestly recomputed mirror) — the "checker lets a deviation
          through" case the partitioning argument of §4.2 covers *)
  | Collude_with of int
      (** full collusion with the named principal: behave as
          [Lying_checker] toward it AND suppress any checker evidence about
          it. Two-node (and neighborhood) collusion is outside the paper's
          ex post Nash (without collusion) guarantee; experiment E14 maps
          where detection survives and where it falls *)
  | Byzantine_arbitrary of int
      (** fail-arbitrary node: a *fixed plan* of composed manipulations
          (inconsistent costs, corrupted forwards, dropped/corrupted
          copies, distorted announcements, misrouting, under-reporting)
          sampled once from the seed via [plan_of_seed]. The plan is fixed
          at creation — a per-message re-randomizer would never converge
          its own announcement loop — so the node is arbitrary in choice
          but deterministic in time, which is the strongest adversary the
          replayable gauntlet can host (cf. rational consensus's mixed
          Byzantine/rational populations) *)
  | Epsilon_rational of float * t
      (** ε-indifferent agent (Theorem 1's ε-penalty, near-rationality):
          plays the inner deviation only if its unilateral gain exceeds
          the threshold, else stays [Faithful]. The activation decision is
          resolved by the gauntlet's grader from measured Definition-8
          deltas; the label, classes, plan and detectability all defer to
          the inner deviation *)

(** {2 The plan: a deviation decoded into the actions it replaces} *)

(** The DATA1 declaration. *)
type declare =
  | True_cost
  | Declare of float  (** one false cost, told to every neighbour *)
  | Split of float * float
      (** the first cost to even-indexed neighbours, the second to odd;
          the two costs differ, since a pair of equal costs is a
          [Declare] *)

(** What a deviation does to a table the node sends: pass it on, shift its
    costs or prices by a delta, or send nothing. *)
type distortion = Honest | Distort of float | Withhold

(** One computed table's message-passing replacements. *)
type table_plan = {
  announce : distortion;  (** the node's own announcements *)
  copies : distortion;
      (** copies relayed to checkers, live and in the crash handoff *)
  spoof : float option;
      (** the delta of a fabricated extra copy per received update *)
}

(** Whom the node shields as a checker: it echoes a shielded principal's
    self-report to the bank instead of its own evidence. *)
type shield = Nobody | Everyone | Principal of int

type plan = {
  declare : declare;
  forward : float option;  (** delta added to every cost fact forwarded *)
  routing : table_plan;  (** [DATA2] *)
  pricing : table_plan;  (** [DATA3*] *)
  misroute : bool;
      (** forward execution packets to the lowest-numbered neighbour
          instead of the certified next hop *)
  underreport : float option;  (** reported fraction of the true DATA4 totals *)
  misattribute : bool;
      (** report the correct DATA4 total, all of it owed to the
          lowest-numbered transit *)
  shield : shield;
}

val plan : t -> plan
(** The deviation's plan. An [Epsilon_rational] wrapper is taken as
    active: it plays its inner deviation (the gauntlet grader resolves
    activation before building nodes). [Faithful] has every component
    honest. *)

val plan_of_seed : int -> plan
(** The fixed plan of [Byzantine_arbitrary seed]: the DATA1 cost pair,
    forward delta, each table's announce and copies distortions,
    misrouting and the under-report, each independently active with
    moderate probability and at least one always active. A drawn cost
    pair [(a, b)] is a [Split], or [Declare a] when [a = b]: a consistent
    declaration, which does not count as active. Pure in the seed. *)

val shields : plan -> principal:int -> bool
(** Whether a checker playing this plan echoes [principal]'s
    self-report: [Lying_checker] shields everyone, [Collude_with p] only
    [p]. *)

val epsilon : t -> (float * t) option
(** [Some (threshold, inner)] for [Epsilon_rational], else [None]. *)

val name : t -> string
(** Display name: the label's [Dev.to_string] spelling, followed by the
    payload in parentheses when there is one (["miscompute-routing(-2)"]).
    The epsilon wrapper carries its inner deviation's label, so it spells
    its own prefix around the inner name
    (["epsilon-rational(0.5|miscompute-routing(-2))"]). *)

val label : t -> Damd_speccheck.Dev.t
(** Payload-stripped label of the constructor, shared with the spec IR.
    The match is exhaustive, so adding a constructor without deciding its
    catalogue label is a compile error — one half of the lint gate's
    deviation cross-consistency (the other half, that every label is
    targeted by a catalogue action, is the [orphan-deviation] rule). *)

val all_labels : Damd_speccheck.Dev.t list
(** The label of every constructor (witnessed through [library] plus
    [Faithful] and [Collude_with]), deduplicated — what [damd_cli lint]
    feeds the checker as the concrete adversary vocabulary. *)

val classify : t -> Damd_core.Action.t list
(** External action classes the deviation touches ([Faithful] -> []). *)

val library : t list
(** The standard sweep: every deviation with representative parameters.
    Excludes [Faithful]. *)

(** {2 Scope predicates, each a function of the [plan]} *)

val is_construction : t -> bool
(** Deviates during the construction phases (detected by bank
    checkpoints, i.e. punished by restart): some table component, an
    inconsistent declaration, a forward delta or a shield. *)

val is_execution : t -> bool
(** Deviates during the execution phase (punished by monetary penalty):
    misrouting, under-reporting or misattribution. *)

val detectable : t -> bool
(** Whether the extended specification is expected to catch it *in
    isolation* (a single deviant among faithful nodes): some component
    other than a consistent declaration and a shield is active.
    [Misreport_cost] is *not* detectable — it is a consistent revelation
    action, neutralized by strategyproofness rather than by checking.
    [Collude_with] is conservatively [false] here because detectability of
    a coalition depends on the topology; see [detectable_in]. *)

val checker_caught : t -> bool
(** Whether only the node's own checkers can catch it, so a coalition of
    its neighbours can shield it: every active component tampers with a
    table the node sends (its announcements, silence included, its relayed
    copies, spoofed copies — the BANK1/BANK2 evidence of §4.2). *)

val colluding : t -> principal:int -> bool
(** [shields (plan t) ~principal]: whether this deviation suppresses
    checker evidence about [principal]. *)

val detectable_in : neighbors:(int -> int list) -> profile:t array -> int -> bool
(** Topology-aware refinement of [detectable] for full deviation profiles.
    [detectable_in ~neighbors ~profile i] predicts whether node [i]'s
    deviation in [profile] is caught by the bank:

    - [checker_caught] deviations (miscompute, corrupt/drop copies, spoof,
      combined attacks, silence) are caught iff at least one neighbor of
      the principal does not shield it — a coalition escapes only by
      covering the full neighborhood (experiment E14);
    - globally-compared deviations (DATA1 inconsistency, corrupt cost
      forwarding, execution-phase fraud) cannot be shielded by any
      coalition;
    - a node shielding one principal [p] ([Collude_with p]) is judged
      through [p]: the coalition member is exposed exactly when [p] is
      still caught. *)
