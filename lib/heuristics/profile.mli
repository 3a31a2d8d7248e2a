(** Precomputed per-state features consumed by the heuristics.

    Every heuristic of §3 is a function of the TNF view of a database: its
    projections on REL / ATT / VALUE, its (REL, ATT, VALUE) triples as a
    term vector, and its sorted cell string. The projections are stored as
    multiplicity maps so a successor's profile can be maintained
    incrementally from its parent's by {!apply_idelta} — the cells an ℒ
    operator deleted come out, the cells it created go in — in O(cells
    changed) instead of O(database). A delta-maintained profile is
    structurally {!equal} to one rebuilt from scratch.

    Names are keyed by {!Relational.Intern} string ids (values by the id of
    their printed form); the id keying bijects with the old string keying,
    so every heuristic value is unchanged, while hot-path maintenance over
    interned relations ({!irel_triples}, {!of_idb}) touches no strings. *)

open Relational

module Strings : Set.S with type elt = string
module Counts : Map.S with type key = int

type t

val empty : t

val of_triples : (string * string * string) list -> t

val of_database : Database.t -> t
(** Built directly from the database, cell by cell, in exact agreement with
    the views of [Tnf.encode] (null cells are skipped). *)

val of_idb : Idb.t -> t
(** Interned mirror of {!of_database}: [of_idb (Idb.of_database db)] is
    {!equal} to [of_database db]. *)

(** {1 Incremental maintenance} *)

val relation_triples : string -> Relation.t -> (string * string * string) list
(** The non-null (REL, ATT, VALUE) cells of one relation — the triples a
    relation-granular delta adds or removes.
    @raise Invalid_argument on a ragged relation (one whose row arities
    disagree with its schema — constructible only via
    [Relation.unsafe_of_rows]), naming the relation and both arities. *)

val irel_triples : int -> Irel.t -> (int * int * int) list
(** Interned mirror of {!relation_triples}: the same triple multiset as id
    triples (order unspecified). *)

val add_triples : t -> (string * string * string) list -> t

val add_id_triples : t -> (int * int * int) list -> t

val apply_idelta :
  t -> removed:(int * Irel.t) list -> added:(int * Irel.t) list -> t
(** One-shot application of a relation-granular interned delta (name-id,
    relation pairs an operator removed and added). Equal to removing all
    triples of [removed] and adding all triples of [added], but columns
    physically shared between the two versions of a same-named relation are
    skipped wholesale, and the rest is netted per key first — O(changed
    cells) map updates however the delta is shaped. *)

(** {1 Incremental cosine scoring} *)

type target
(** A cosine target index: the target vector's coordinates grouped into
    one histogram per (REL, ATT) pair, shaped like {!Irel.histogram}
    (value-string ids ascending, with their counts), plus |t|². Build it
    once per search. *)

val cosine_target : t -> target
(** The index of a (target) profile's vector. *)

val target_vector : target -> Vector.t
val target_sq_norm : target -> int

val idelta_cosine :
  target:target ->
  removed:(int * Irel.t) list ->
  added:(int * Irel.t) list ->
  int * int
(** [(ddot, dsq)]: the exact changes to [dot child tvec] and to the squared
    norm that the delta induces, from column histograms alone — no parent
    profile is read. With the same shared-column skip as {!apply_idelta},
    each other column adds (added side) or subtracts (removed side) its
    Σc², and its histogram merged against the target's histogram for the
    same (relation name, attribute). This is exact: a triple's count in
    the parent is its count in the removed version of its relation, so
    the per-triple change n(2p + n) of the squared norm is a² − r². All
    quantities are integers, so a score folded along a chain of deltas is
    bit-identical to one recomputed from the materialized vector
    ({!Vector.dot} / {!Vector.sq_norm}). *)

(** {1 Views} *)

val rel_counts : t -> int Counts.t
(** Multiplicity of each relation name over the database's cells, keyed by
    string id; the key set is the paper's π{_REL} projection. O(1). *)

val att_counts : t -> int Counts.t
val val_counts : t -> int Counts.t

val atts : t -> Strings.t
(** π{_ATT} as a string set, derived from {!att_counts}. O(n). *)

val values : t -> Strings.t

val vector : t -> Vector.t
(** Term vector over (REL, ATT, VALUE) triples. O(1). *)

val str : t -> string
(** The paper's [string(d)] for the Levenshtein heuristic: cells sorted by
    string triple, components and cells '\x01'-separated (injective on
    triple multisets). Derived on demand, O(cells log cells). *)

val equal : t -> t -> bool
