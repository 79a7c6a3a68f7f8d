(** Compiler from the spec IR to the executable closure form, the
    reference the tests step and hold [Machine]'s table to.

    [machine ir] is the [Damd_core.State_machine.t] whose behaviour is
    exactly the IR's tables: states and actions are their IR names, the
    transition function is the table lookup, the suggested map is the IR's,
    and classification reads the action's declared class. Because the
    closures are generated, the IR is the single source of truth — the
    catalogue, the static checks, and the machines the tests step cannot
    drift apart.

    Semantics of the gaps (needed because [State_machine.transition] is
    total): an action the table does not define for the current state
    leaves the state unchanged (a self-loop), and an action id the IR does
    not declare classifies as [Internal]. A validated IR ([Check.check_ir]
    clean) never exercises either under suggested play; deviating
    strategies may, and the self-loop makes the deviation visible to
    [State_machine.deviation_point] instead of raising. *)

val machine :
  Damd_speccheck.Ir.t -> (string, string) Damd_core.State_machine.t

val suggested_path : Damd_speccheck.Ir.t -> max_steps:int -> string list
(** The action sequence of suggested play from the initial state — the
    spec's one honest trace, handy for tests and reports. *)
