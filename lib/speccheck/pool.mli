(** Scenario fan-out: an order-preserving parallel map.

    The implementation is selected at build time by a dune rule on the
    compiler version — OCaml 5 builds get a [Domain]-backed worker pool
    (pool_domains.ml5), older compilers a sequential fallback
    (pool_seq.ml4) with the same signature, so callers never condition
    on the runtime. *)

val default_domains : unit -> int
(** The fan-out width used when the caller does not pick one:
    [min 8 (Domain.recommended_domain_count ())] on OCaml 5, 1 on the
    sequential fallback. *)

val map :
  domains:int -> init:(unit -> 's) -> ('s -> 'a -> 'b) -> 'a list -> 'b list
(** [map ~domains ~init f xs] applies [f] to every element and returns
    the results in input order. [domains ≤ 1] (or the fallback build)
    runs sequentially. Each worker calls [init] once and passes its
    result to every job it takes, so jobs can reuse per-worker scratch
    that no other domain touches. Workers take jobs round-robin by index
    and write disjoint result slots; [Domain.join] publishes them. If any
    worker raises, the first exception (in spawn order) is re-raised
    after all workers are joined. *)
