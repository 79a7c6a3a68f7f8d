(** A replicated bank committee — the paper's open problem, sketched.

    §4.2 (footnote 6): "It is an open problem to design a distributed bank
    that runs on the same network of rational nodes." This module takes
    the obvious first step and maps its limits: replicate the bank's
    *comparison* role across a committee and take the majority verdict.
    Because every checkpoint verdict is a deterministic function of
    publicly collectible digests, honest replicas always agree, so a
    committee of [2f + 1] tolerates [f] arbitrarily-lying replicas — in
    both directions (a corrupt replica can neither force a false restart
    nor green-light a caught deviation).

    What this does *not* solve — and why the problem stays open — is
    replicas that are themselves *rational participants* of the routed
    network: then a replica's vote is a computational action inside the
    very mechanism it polices, and the partitioning argument no longer
    applies. Experiment E17 demonstrates both the tolerance boundary and
    this caveat. *)

type behavior =
  | Honest_replica
  | Always_approve  (** votes green-light regardless of the evidence *)
  | Always_restart  (** votes restart regardless of the evidence *)

type verdict = Green_light | Restart of Bank.detection list

val decide : behavior list -> evidence:Bank.detection list -> verdict
(** Majority vote over the committee. Honest replicas vote [Restart]
    exactly when [evidence] is non-empty (they all recompute the same
    deterministic checkpoint); corrupt replicas vote their fixed lie.
    Ties (possible only with an even committee) go to [Restart] — fail
    safe. The restart carries the honest evidence when there is any, or a
    synthesized detection when a corrupt majority forced it. *)

val tolerates : replicas:int -> corrupt:int -> bool
(** [corrupt] arbitrary liars cannot change any verdict of a committee of
    [replicas] honest-majority members: [corrupt <= (replicas - 1) / 2]. *)
