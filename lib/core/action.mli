(** Classification of a node's external actions — §3.4 of the paper
    (Definitions 2–4).

    Every external action in a distributed mechanism specification is one
    of three kinds, and the whole proof strategy of the paper rests on the
    split: information-revelation deviations are neutralized by
    strategyproofness of the corresponding centralized mechanism,
    message-passing deviations by strong-CC, and computational deviations
    by strong-AC. *)

type t =
  | Information_revelation
      (** reveals (possibly partial, possibly untruthful but consistent)
          information about the node's own type — no more power than
          misreporting to a center (Def. 2) *)
  | Message_passing
      (** forwards a message received from another node (Def. 3) *)
  | Computation
      (** can affect the outcome rule beyond revelation/forwarding
          (Def. 4) — the genuinely new power distribution introduces *)
  | Internal  (** no external effect; unconstrained by the strategy space *)

val to_string : t -> string

val all_external : t list
(** The three external classes, in the paper's order. *)

val is_external : t -> bool
