(** Deviation labels — the adversary library's constructors as pure data.

    One label per [Damd_faithful.Adversary.t] constructor, with the payload
    stripped. The spec IR targets deviations through this variant and
    [Adversary.label] maps every concrete deviation onto it with an
    exhaustive match, so the three artifacts that must stay mutually
    consistent — the catalogue, the adversary library, and the IR — share
    one closed vocabulary: adding an adversary constructor without a label
    is a compile error, and a label no action targets is a lint error
    ([orphan-deviation]). *)

type t =
  | Faithful
  | Misreport_cost
  | Inconsistent_cost
  | Corrupt_cost_forward
  | Drop_routing_copies
  | Drop_pricing_copies
  | Corrupt_routing_copies
  | Corrupt_pricing_copies
  | Spoof_routing_update
  | Spoof_pricing_update
  | Miscompute_routing
  | Miscompute_pricing
  | Underreport_payments
  | Misroute_packets
  | Misattribute_payments
  | Silent_in_construction
  | Combined_routing_attack
  | Combined_pricing_attack
  | Lying_checker
  | Collude_with
  | Byzantine_arbitrary
      (** seed-derived fixed plan composing construction and execution
          manipulations — the fail-arbitrary peer of the rational library
          ([Adversary.Byzantine_arbitrary]) *)

val all : t list
(** Every label, [Faithful] first. *)

val to_string : t -> string
(** Kebab-case name; the prefix of [Adversary.name] for the matching
    constructor (e.g. [Misreport_cost] -> ["misreport-cost"]), which
    [Adversary.name] spells with this function. The epsilon wrapper,
    labelled as its inner deviation, keeps its own prefix. *)
