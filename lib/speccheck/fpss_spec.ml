module Action = Damd_core.Action

(* States of the suggested linear pass; each action advances one state. *)
let s_cost_announce = "cost-announce"
let s_cost_flood = "cost-flood"
let s_routing_forward = "routing-forward"
let s_routing_compute = "routing-compute"
let s_routing_mirror = "routing-mirror"
let s_pricing_forward = "pricing-forward"
let s_pricing_compute = "pricing-compute"
let s_pricing_mirror = "pricing-mirror"
let s_digest_report = "digest-report"
let s_exec_forward = "exec-forward"
let s_exec_settle = "exec-settle"
let s_halt = "halt"

let actions : Ir.action list =
  [
    {
      Ir.id = "declare-cost";
      descr = "declare own transit cost to neighbors";
      cls = Some Action.Information_revelation;
      inputs = [ Ir.Private_info ];
      rules = [ Rule.DATA1 ];
      mirrored = false;
      digested = true;
      deviations = [ Dev.Misreport_cost; Dev.Inconsistent_cost ];
    };
    {
      id = "flood-costs";
      descr = "flood other nodes' cost announcements";
      cls = Some Action.Message_passing;
      inputs = [ Ir.Received_messages; Ir.Protocol_state ];
      rules = [ Rule.DATA1 ];
      mirrored = false;
      digested = true;
      deviations = [ Dev.Corrupt_cost_forward ];
    };
    {
      id = "forward-routing-copies";
      descr = "forward received routing updates to all checkers";
      cls = Some Action.Message_passing;
      inputs = [ Ir.Received_messages ];
      rules = [ Rule.PRINC1 ];
      mirrored = false;
      digested = false;
      deviations =
        [
          Dev.Drop_routing_copies;
          Dev.Corrupt_routing_copies;
          Dev.Spoof_routing_update;
          Dev.Combined_routing_attack;
          Dev.Byzantine_arbitrary;
        ];
    };
    {
      id = "recompute-routing";
      descr = "recompute LCPs and announce the routing table";
      cls = Some Action.Computation;
      inputs = [ Ir.Received_messages; Ir.Protocol_state ];
      rules = [ Rule.PRINC1; Rule.BANK1 ];
      mirrored = true;
      digested = true;
      deviations =
        [ Dev.Miscompute_routing; Dev.Silent_in_construction; Dev.Byzantine_arbitrary ];
    };
    {
      id = "mirror-routing";
      descr = "mirror each neighbor-principal's routing computation";
      cls = Some Action.Computation;
      inputs = [ Ir.Received_messages; Ir.Protocol_state ];
      rules = [ Rule.CHECK1; Rule.BANK1 ];
      (* the principal's own announcement is the mirror's counter-digest *)
      mirrored = true;
      digested = true;
      deviations = [ Dev.Lying_checker; Dev.Collude_with ];
    };
    {
      id = "forward-pricing-copies";
      descr = "forward received pricing updates to all checkers";
      cls = Some Action.Message_passing;
      inputs = [ Ir.Received_messages ];
      rules = [ Rule.PRINC2 ];
      mirrored = false;
      digested = false;
      deviations =
        [
          Dev.Drop_pricing_copies;
          Dev.Corrupt_pricing_copies;
          Dev.Spoof_pricing_update;
          Dev.Combined_pricing_attack;
          Dev.Byzantine_arbitrary;
        ];
    };
    {
      id = "recompute-pricing";
      descr = "recompute prices (with identity tags) and announce DATA3*";
      cls = Some Action.Computation;
      inputs = [ Ir.Received_messages; Ir.Protocol_state ];
      rules = [ Rule.PRINC2; Rule.BANK2 ];
      mirrored = true;
      digested = true;
      deviations =
        [ Dev.Miscompute_pricing; Dev.Silent_in_construction; Dev.Byzantine_arbitrary ];
    };
    {
      id = "mirror-pricing";
      descr = "mirror each neighbor-principal's pricing computation";
      cls = Some Action.Computation;
      inputs = [ Ir.Received_messages; Ir.Protocol_state ];
      rules = [ Rule.CHECK2; Rule.BANK2 ];
      mirrored = true;
      digested = true;
      deviations = [ Dev.Lying_checker; Dev.Collude_with ];
    };
    {
      id = "report-digests";
      descr = "report table digests to the bank (signed)";
      cls = Some Action.Computation;
      inputs = [ Ir.Protocol_state ];
      rules = [ Rule.BANK1; Rule.BANK2 ];
      mirrored = true;
      digested = true;
      deviations = [ Dev.Lying_checker; Dev.Collude_with ];
    };
    {
      id = "forward-packets";
      descr = "forward packets along certified lowest-cost paths";
      cls = Some Action.Message_passing;
      inputs = [ Ir.Received_messages; Ir.Protocol_state ];
      rules = [ Rule.EXEC ];
      mirrored = false;
      digested = false;
      deviations = [ Dev.Misroute_packets; Dev.Byzantine_arbitrary ];
    };
    {
      id = "report-payments";
      descr = "tally and report DATA4 payments to the bank (signed)";
      cls = Some Action.Computation;
      inputs = [ Ir.Protocol_state; Ir.Private_info ];
      rules = [ Rule.EXEC ];
      (* the bank itself recomputes DATA4 from the certified tables *)
      mirrored = true;
      digested = true;
      deviations =
        [ Dev.Underreport_payments; Dev.Misattribute_payments; Dev.Byzantine_arbitrary ];
    };
  ]

(* The suggested play: one transition per action, in protocol order. *)
let chain =
  [
    (s_cost_announce, "declare-cost", s_cost_flood);
    (s_cost_flood, "flood-costs", s_routing_forward);
    (s_routing_forward, "forward-routing-copies", s_routing_compute);
    (s_routing_compute, "recompute-routing", s_routing_mirror);
    (s_routing_mirror, "mirror-routing", s_pricing_forward);
    (s_pricing_forward, "forward-pricing-copies", s_pricing_compute);
    (s_pricing_compute, "recompute-pricing", s_pricing_mirror);
    (s_pricing_mirror, "mirror-pricing", s_digest_report);
    (s_digest_report, "report-digests", s_exec_forward);
    (s_exec_forward, "forward-packets", s_exec_settle);
    (s_exec_settle, "report-payments", s_halt);
  ]

let ir : Ir.t =
  {
    Ir.name = "extended-fpss";
    states =
      [
        s_cost_announce;
        s_cost_flood;
        s_routing_forward;
        s_routing_compute;
        s_routing_mirror;
        s_pricing_forward;
        s_pricing_compute;
        s_pricing_mirror;
        s_digest_report;
        s_exec_forward;
        s_exec_settle;
        s_halt;
      ];
    initial = s_cost_announce;
    actions;
    transitions =
      List.map (fun (src, act, dst) -> { Ir.src; act; dst }) chain;
    suggested = List.map (fun (src, act, _) -> (src, act)) chain;
    phases =
      [
        {
          Ir.pname = "construction-1";
          members = [ s_cost_announce; s_cost_flood ];
          checkpoint = Some { Ir.certifier = Rule.DATA1 };
        };
        {
          pname = "construction-2a";
          members = [ s_routing_forward; s_routing_compute; s_routing_mirror ];
          checkpoint = Some { Ir.certifier = Rule.BANK1 };
        };
        {
          pname = "construction-2b";
          members =
            [
              s_pricing_forward;
              s_pricing_compute;
              s_pricing_mirror;
              s_digest_report;
            ];
          checkpoint = Some { Ir.certifier = Rule.BANK2 };
        };
        {
          pname = "execution";
          members = [ s_exec_forward; s_exec_settle ];
          checkpoint = Some { Ir.certifier = Rule.EXEC };
        };
      ];
  }
