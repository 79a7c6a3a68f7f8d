(** The bank — the trusted, obedient checkpointing entity of §4.2.

    "Our bank goes beyond whatever accounting and charging mechanisms are
    used to enforce the pricing scheme … a trusted and obedient entity
    that can also perform simple comparisons, and enforce penalties when
    it detects a problem."

    Construction phases: the bank collects 32-byte digests — [DATA1] cost
    lists from everyone, then per principal its self-reported [DATA2]
    (resp. [DATA3*]) digest plus, from each of its checkers, the digest of
    the mirror recomputation and the digest of the principal's last
    announcement — and demands they all agree ([BANK1]/[BANK2]). Any
    disagreement restarts the phase. Both tables and both evidence modes
    go through one [checkpoint] body, parameterized by the table's
    [Node.stage].

    Execution: every source's signed [DATA4] payment report is compared
    with the [DATA4] the bank recomputes from the certified pricing
    tables ([Node.payments], i.e. [Damd_fpss.Tables.payments]); packet
    traces are compared against certified routes; deviations are fined
    ε-above the attempted gain. All node↔bank traffic is signed
    ([Damd_crypto.Signer]). *)

type detection = {
  rule : string;  (** "DATA1" | "BANK1" | "BANK2" | "EXEC" | "LIVELOCK" *)
  culprit : int option;
      (** the principal whose hash set disagreed / the node whose
          forwarding or report deviated; [None] when unattributable *)
  detail : string;
}

val pp_detection : Format.formatter -> detection -> unit

val checkpoint_costs : Node.t array -> detection list
(** Phase-1 certificate: every node's DATA1 digest must be identical
    (consistent information revelation, Remark 4). *)

val checkpoint : fault_tolerant:bool -> 'tbl Node.stage -> Node.t array -> detection list
(** The stage's table checkpoint, [BANK1] for routing and [BANK2] for
    pricing. Empty list = green light.

    Per principal, the bank walks the checkers that do not shield it
    once and compares each one's mirror digest and heard-announcement
    digest with the principal's self digest. Both modes fail the
    checkpoint on the same disagreements, so restarts and stuck phases
    depend on the environment, not on the mode; the mode decides only
    whom a disagreement names. The stock mode ([fault_tolerant = false])
    blames the principal for every one. The fault-tolerant mode blames
    only a *contradiction between signed statements*: a held
    announcement equal to the one the principal claims to have made
    that differs from its certified state, or a mirror that disagrees
    although checker and principal consumed input sets with equal
    digests (for pricing, both tables' inputs, since a pricing mirror
    consumes routing state too). Every other disagreement, explainable
    by a lost or stale message, is an omission; when no one is blamed,
    the omissions make one [culprit = None] detection — the checkpoint
    still fails (restart), but no one is named. This is the
    blame-correctness contract the fault gauntlet asserts: an injected
    fault must never cost an honest node its reputation, at the price of
    demoting some fault-shaped deviations (copy-dropping, spoofing) from
    individual accusation to collective stuck-phase punishment. See
    DESIGN.md §14.

    The bank still compares one digest per statement — the principal's
    table, its claimed announcement, and per checker the heard copy and
    the mirror, which is recomputed every time — but within one call each
    distinct table is hashed once: digests go through a memo looked up by
    physical identity, then by the stage's [equal], which holds exactly
    when two tables serialize to the same bytes. The principal's inputs
    digest and claimed announcement are read only by the fault-tolerant
    mode, at a disagreement that needs them. The old bodies, one per mode
    and one digest per query, are the test oracle
    [test/bank_reference.ml]. *)

val checkpoint_routing : Node.t array -> detection list
(** [checkpoint ~fault_tolerant:false Node.routing_stage] ([BANK1]). *)

val checkpoint_pricing : Node.t array -> detection list
(** [checkpoint ~fault_tolerant:false Node.pricing_stage] ([BANK2]). *)

val checkpoint_bytes : [ `Costs | `Routing | `Pricing ] -> Node.t array -> int
(** Bytes moved over the signed bank channel for one construction
    checkpoint, [DATA1], [BANK1] or [BANK2] (E10's cost model). *)

type settlement = {
  outlays : float array;  (** what each source ends up paying *)
  incomes : float array;  (** what each transit receives *)
  penalties : float array;  (** execution fines levied *)
  delivered : float array;  (** per-source traffic units actually delivered *)
  detections : detection list;
}

val settle :
  obs:Damd_obs.Obs.t ->
  checking:bool ->
  epsilon:float ->
  registry:Damd_crypto.Signer.registry ->
  nodes:Node.t array ->
  traffic:Damd_fpss.Traffic.t ->
  settlement
(** Clear the execution phase: credit each source's outlay and its
    transits' incomes from one [DATA4] ledger. With [checking = false]
    the ledger is the signed reports, believed as sent ([Runner]'s
    [Naive_settlement], [Unchecked] and [Plain] banks). With
    [checking = true] it is every source's [Node.payments] at its
    certified pricing tables, and each report is compared with it: a
    total that differs is fined the difference plus ε, a matching total
    attributed to the wrong transits is fined ε, and a packet trace that
    strays from its certified route fines the node that forwarded it
    off-path ε. [obs] (pass [Damd_obs.Obs.noop] when not tracing) runs
    the settlement under a ["bank.settle"] span. *)

val serialize_report : (int * float) list -> string
(** Canonical DATA4 payload placed under the signature. *)
