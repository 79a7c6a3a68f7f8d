(** The extended-FPSS suggested specification [s^m] as a spec IR.

    The single source of truth for the §4.1 catalogue: experiment E0
    prints [ir]'s actions, the checkers read it through [Machine] (an
    undefined transition self-loops), and [damd_cli lint] checks it
    statically. The suggested play is the linear pass through the four
    phases — cost flood, routing construction, pricing construction,
    execution — visiting each of the 11 external actions once, exactly the
    walkthrough at the end of §4.1. *)

val ir : Ir.t
