(** Partial-order reduction for [Explore]'s product BFS.

    A faithful class step is {e invisible} when it makes progress
    strictly inside the open phase: source ≠ destination and both carry
    the current phase index. Such a step commutes with every other
    enabled step — it cannot move the deviant's seat, cannot touch the
    acted/evidence bitmasks, cannot enable or disable the phase
    checkpoint (the phase stays non-empty across it), and cannot trigger
    a reentry finding (its destination is in the current phase, never an
    earlier one). Interleavings of the same invisible-step multiset
    reach the same canonical state by equal-length paths, so [Explore]
    may expand only the lowest-indexed invisible class at each state:
    reachability, BFS depths, detection events, and findings are all
    preserved. Deviant steps, phase-exiting (visible) steps, and
    checkpoint steps are never pruned.

    Soundness needs one structural guard, checked once per machine:
    draining a phase through a single canonical order must terminate, so
    if the suggested-play graph restricted to any one phase has a cycle
    the reduction switches itself off ([active] is [false]) and the BFS
    falls back to full interleaving. Cycles that cross phases or occur
    after the last checkpoint are harmless — the steps involved are
    visible, or the phase cursor is exhausted, so they are never pruned.
    The QCheck differential in the test suite checks POR-on ≡ POR-off
    verdicts and findings over randomly mutated IRs. *)

val active : Machine.t -> bool
(** The acyclicity guard: a linear walk with tricolor marking over the
    ≤ ns in-phase suggested edges. [false] disables the reduction. *)

val invisible : Machine.t -> ph:int -> int -> bool
(** [invisible m ~ph i]: a faithful step out of chain state [i] is
    invisible at phase cursor [ph]. Implies eligibility ([phase_of i =
    ph] with [ph] still below [nphases]). *)
