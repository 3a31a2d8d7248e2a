(** Search states: an interned database plus incrementally maintained
    derived data.

    A state carries the three things the search layer consults on the hot
    path — its 128-bit {!Relational.Fingerprint.t} identity, its total cell
    count, and its heuristic {!Heuristics.Profile.t} — all maintained in
    O(cells changed) from the parent state via {!of_isuccessor} and the
    relation-granular {!Fira.Eval.idelta} of the applied ℒ operator.

    The database itself lives in the interned columnar form
    ({!Relational.Idb.t}); a caller that wants the boxed
    {!Relational.Database.t} (goal reporting, tests) converts {!idb}. The
    fingerprint and cell count are computed eagerly (they gate
    deduplication and pruning before a successor is even kept); the profile
    is maintained incrementally but materialized on first use, so
    deduplicated or never-scored successors skip it entirely. The
    on-demand caches are domain-safe: concurrent scorers at worst
    recompute the same value (see the implementation note in state.ml). *)

open Relational

type t

val of_database : Database.t -> t
(** From-scratch construction (the root state; O(database)). *)

val of_idb : Idb.t -> t
(** From-scratch construction from an already-interned database. *)

val of_isuccessor : t -> Fira.Eval.idelta -> Idb.t -> t
(** [of_isuccessor parent delta idb] is the state for [idb], with
    fingerprint, profile and cell count updated from [parent]'s by [delta]
    — the delta returned by applying one operator to [parent]'s interned
    database. Equivalent to [of_idb idb] (a qcheck property checks
    structural equality of all derived views) at O(cells changed) cost. *)

val idb : t -> Idb.t

val fingerprint : t -> Fingerprint.t
(** 128-bit identity; equal on two states iff their canonical keys are
    equal, up to hash collisions (~2^-128). *)

val total_cells : t -> int
(** Σ cardinality × arity over all relations. *)

val profile : t -> Heuristics.Profile.t
(** TNF profile for the heuristics, delta-maintained; materialized (and
    cached) on first use. *)

val cosine_parts : target:Heuristics.Profile.target -> t -> float * int
(** [(dot, sq_norm)] of the state's term vector against the target index,
    maintained incrementally along the parent chain from the changed
    columns' histograms ({!Heuristics.Profile.idelta_cosine}) and cached
    per state. Neither the state's profile nor its parent's is
    materialized; only a root built from scratch holds one. Both parts
    are exact integers, so the result is bit-identical to computing
    {!Heuristics.Vector.dot} / {!Heuristics.Vector.sq_norm} on the
    materialized profile. The cache is keyed by physical identity of
    [target] — use one index per search. *)

val cosine_distance : target:Heuristics.Profile.target -> t -> float
(** [Vector.cosine_distance (Profile.vector (profile s)) tvec] for the
    target index's vector, computed from {!cosine_parts} without
    materializing any profile; bit-identical to the profile-based
    computation. *)

val equal : t -> t -> bool
(** Fingerprint equality. *)

val same_content : t -> t -> bool
(** Canonical-key equivalence of the two databases, computed directly over
    the interned form (no serialization) — the collision check behind
    fingerprint-based deduplication. *)
