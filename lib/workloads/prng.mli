(** Deterministic PRNG (SplitMix64).

    The workload generators must be reproducible across runs and platforms
    — every benchmark table is a function of fixed seeds — so they use this
    self-contained generator rather than [Random]. *)

type t

val create : int -> t
(** Seeded generator. Generators are mutable. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound); [bound] must be positive. *)

val bool : t -> bool
val float : t -> float -> float
(** Uniform in [0, bound). *)

val pick : t -> 'a list -> 'a
(** Uniform element of a non-empty list. *)

val shuffle : t -> 'a list -> 'a list
val sample : t -> int -> 'a list -> 'a list
(** [sample t k xs]: [k] distinct elements (all of [xs] if [k >= length]). *)

