(** The enforcement rules of the extended-FPSS specification (§4.2–4.3).

    Each rule names one certificate or checker obligation the bank (or a
    checker acting for the bank) evaluates. The spec IR ([Ir]) references
    rules through this variant, so a typo'd or retired rule tag is a
    compile error rather than a silent string mismatch. *)

type t =
  | DATA1  (** phase-1 certificate: all cost digests identical *)
  | PRINC1  (** principal forwards routing updates to all its checkers *)
  | CHECK1  (** checker mirrors the principal's routing computation *)
  | BANK1  (** bank compares routing digests (self, mirrors, announcements) *)
  | PRINC2  (** principal forwards pricing updates to all its checkers *)
  | CHECK2  (** checker mirrors the principal's pricing computation *)
  | BANK2  (** bank compares pricing digests *)
  | EXEC  (** execution clearing: DATA4 reports and packet-trace audit *)

val all : t list
(** Every rule, in protocol order. *)

val to_string : t -> string
(** The paper's tag, e.g. ["BANK1"] — matches the strings
    [Damd_faithful.Bank] puts in [detection.rule] (a [faithful.run] test
    checks this over the bank golden's runs). *)
