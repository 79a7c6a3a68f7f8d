(** The paper's §3 motivating toy: leader election with rational nodes.

    A designer wants the most powerful node elected to run a CPU-intensive
    task, but serving costs the winner. Under the naive specification
    ("report your power truthfully; the maximum wins, no compensation") a
    rational node with positive serving cost understates its power and the
    protocol "fails to elect the most powerful node".

    The faithful fix is a *second-score auction with verified delivery*:
    each node reports (power, cost); the node maximizing the score
    [benefit * power - cost] wins and — because an elected node's real
    power is revealed by actually running the task (catch-and-punish on
    delivery) — is paid [benefit * true_power - second_best_score].
    Conditional on winning, the winner's utility is its true score minus
    the best competing score, independent of its own report, so truthful
    reporting is (weakly) dominant; see [test/test_mech.ml]. *)

type theta = { power : float; cost : float }

type outcome = {
  leader : int;
  runner_up_score : float;
      (** best score among the non-elected nodes; determines the verified
          payment. 0 when [n = 1]. *)
}

val naive : n:int -> (theta, outcome) Mechanism.t
(** Elect the highest reported power (lowest index on ties); no payment.
    The leader's valuation is [-cost]; others' 0. Not strategyproof:
    any node with positive cost gains by understating power. *)

val second_score : n:int -> benefit:float -> (theta, outcome) Mechanism.t
(** The faithful mechanism described above. Strategyproof under verified
    delivery. *)

val score : benefit:float -> theta -> float
(** [benefit * power - cost]. *)

val second_score_outcome : benefit:float -> theta array -> outcome
(** The second-score rule over a full report profile: the highest [score]
    wins (lowest index on ties), and [runner_up_score] is the best score
    among the others. [second_score]'s outcome, and what every node of
    [Damd_faithful.Election] recomputes from the certified bids. *)

val most_powerful : theta array -> int
(** Index of the truly most powerful node (lowest index on ties) — the
    designer's intended outcome. *)

val welfare_optimal : benefit:float -> theta array -> int
(** Index of the true-score-maximizing node. *)

val sample_theta : Damd_util.Rng.t -> theta
(** Powers uniform in [1, 10], serving costs uniform in [0, 5]. *)

val sample_profile : n:int -> Damd_util.Rng.t -> theta array

val sample_lie : Damd_util.Rng.t -> int -> theta -> theta
(** A random misreport perturbing power and/or cost. *)

val selfish_report : theta -> theta
(** The §3 deviation: claim zero power so as never to be drafted. *)
