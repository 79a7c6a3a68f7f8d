(** Topology statistics, used by the experiment harness to characterize
    generated graphs (so that "AS-like" is a measured property, not a
    label). *)

type t = {
  nodes : int;
  edges : int;
  min_degree : int;
  max_degree : int;
  mean_degree : float;
  hop_diameter : int;
  mean_hop_distance : float;  (** over connected ordered pairs *)
  clustering : float;  (** mean local clustering coefficient *)
  biconnected : bool;
}

val compute : Graph.t -> t

val degree_histogram : Graph.t -> (int * int) list
(** [(degree, count)] pairs, sorted by degree. *)
