(** Sparse term vectors over (REL, ATT, VALUE) triples.

    §3 views a TNF database as a document vector over the set D of all n³
    token triples; a database's coordinate on triple (r, a, v) is the number
    of its cells matching that triple. Since only finitely many coordinates
    are non-zero, vectors are represented sparsely as maps from triples to
    counts — distances computed over the support union agree exactly with
    distances in the full n³-dimensional space.

    Coordinates are keyed internally by {!Relational.Intern} string ids
    (which biject with strings), so the search hot path can maintain a
    successor's vector with int comparisons only; the string-triple API
    interns on entry. All distances are bit-identical between the two
    keyings: every dot-product addend is a product of two integer counts,
    exact in float64, so summation order is immaterial. *)

type t

val empty : t

val of_triples : (string * string * string) list -> t
(** Count multiplicities of each triple. *)

val add : t -> string * string * string -> t
(** Increment one coordinate. O(log support). *)

val remove : t -> string * string * string -> t
(** Decrement one coordinate. The squared norm is tracked exactly as an
    integer, so interleaved {!add}/{!remove} yield a vector structurally
    equal to one rebuilt from scratch.
    @raise Invalid_argument if the coordinate is zero. *)

val add_id : t -> int * int * int -> t
(** {!add} on an already-interned (rel id, att id, value-string id) triple —
    the hot-path entry point. *)

val remove_id : t -> int * int * int -> t

val add_id_n : t -> int * int * int -> int -> t
(** [add_id_n v key n] bumps one coordinate by [n ≥ 0] in a single map
    update — equal to [n] iterated {!add_id}s. *)

val remove_id_n : t -> int * int * int -> int -> t
(** [remove_id_n v key n] decrements one coordinate by [n ≥ 0].
    @raise Invalid_argument if the coordinate holds fewer than [n]. *)

val equal : t -> t -> bool

val fold : (string * string * string -> int -> 'a -> 'a) -> t -> 'a -> 'a
(** Over non-zero coordinates, in ascending {e id}-triple order — NOT
    string order; sort externally if a canonical string order is needed. *)

val fold_id : (int * int * int -> int -> 'a -> 'a) -> t -> 'a -> 'a

val count : t -> string * string * string -> int

val norm : t -> float
(** Euclidean length. *)

val sq_norm : t -> int
(** Σ c², kept exactly as an integer (so [norm v] is
    [sqrt (float_of_int (sq_norm v))] with no drift). *)

val dot : t -> t -> float

val euclidean_distance : t -> t -> float

val normalized_euclidean_distance : t -> t -> float
(** Distance between the unit-normalized vectors; a zero vector is treated
    as orthogonal to everything (distance [sqrt 2] from any non-zero
    vector, 0 from another zero vector). *)

val cosine_distance : t -> t -> float
(** [1 − cos(x, t)], in [0, 2]; a zero vector is at distance 1 from
    anything non-zero and 0 from another zero vector. *)
