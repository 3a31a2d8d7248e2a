(** Interned columnar relations for the search hot path.

    One int array of {!Intern} value ids per column, plus per-column caches
    (fingerprint lanes, the value-string histogram, distinct counts) that
    are shared across derived relations whenever a column's cells survive
    an operator unchanged.

    Bit-identity contract: every operator mirrors the corresponding
    {!Relation} function step for step — same row production order, same
    canonicalization — so [to_relation (op (of_relation r))] equals the
    boxed [op r] exactly, canonical keys and fingerprints included
    (property-tested). Rows are kept sorted and deduplicated under
    {!Intern.compare_values}, exactly like boxed relation rows; two rows
    are equal exactly when they hold the same ids. *)

type t

(** {1 Construction and conversion} *)

val of_rows : int array -> int array list -> t
(** [of_rows atts rows]: attribute name ids plus one value-id array per
    row; rows are canonicalized (sorted, deduplicated). *)

val of_cols : int array -> int array array -> int -> t
(** [of_cols atts cols n]: the first [n] rows of the columns [cols] (one
    value-id array per attribute, each at least [n] long), exactly
    [of_rows atts] of those rows, id for id. Rows that already increase
    strictly share the columns (when they are [n] long). Otherwise an
    index permutation is sorted, repeats are dropped and the columns
    gathered, with no row array built. The columns are not mutated; do
    not mutate them afterwards.
    @raise Invalid_argument on a column count other than [atts]' or a
    column shorter than [n]. *)

val of_relation : Relation.t -> t
val to_relation : t -> Relation.t

(** {1 Structure} *)

val arity : t -> int
val cardinality : t -> int

val cells : t -> int
(** cardinality × arity. *)

val atts : t -> int array
(** Attribute name ids in schema order. Do not mutate. *)

val col_ids : t -> int -> int array
(** Value ids of column [j] in row order. Do not mutate. *)

val row_of : t -> int -> int array
val to_rows : t -> int array list
val index_of_opt : t -> int -> int option
val mem_att : t -> int -> bool
val compare_rows : int array -> int array -> int

(** {1 Cached derived data} *)

val dcount : t -> int -> int
(** [List.length (Relation.column_distinct r att)] for column [j] — the
    number of {!Value.compare}-distinct values, nulls included. Cached. *)

type histogram = private {
  strs : int array;  (** distinct non-null value-string ids, ascending *)
  counts : int array;  (** cells holding each of [strs] *)
  sq : int;  (** Σ count² *)
}
(** A column's non-null cells counted by printed form: the column's
    coordinates of the profile term vector ({!Heuristics.Vector}). An
    all-null or empty column has empty arrays and [sq = 0]. *)

val histogram : t -> int -> histogram
(** The histogram of column [j], built in one counting pass (sort the
    value-string ids, then run-length them). Cached; {!rename_att} carries
    it over. *)

val dstrs : t -> int -> int array
(** [(histogram r j).strs]: distinct non-null value strings of column [j]
    (as string ids, sorted by id) — the interned [column_strings]. *)

val vstrs : t -> int array
(** Distinct non-null value strings of the whole relation (sorted by id)
    — the interned [value_strings]. Cached. *)

val has_nulls : t -> bool
(** Any null cell. Cached. *)

val mu_identity : t -> bool
(** The µ-identity certificate: [true] only if {!merge} on every column
    returns its input. Rows that µ merges hold the same ids on every
    column without nulls; so when the projection onto the null-free
    columns is injective, no two rows can merge. [false] makes no claim
    (µ may still be the identity). A relation of 0 or 1 rows is
    certified; one with no null-free column and 2 or more rows is not.
    Works on ids alone: nulls are found by int equality, and the
    null-free projection is checked for a repeat in a row index, with
    no sort and no {!Value} order. Cached; {!rename_att} carries it
    over. *)

val usable_name : int -> int option
(** [Relation.usable_column_name] on a value id: the printed form's string
    id, or [None] for Null and the empty string. *)

val fingerprint : name:int -> t -> Fingerprint.t
(** Bit-identical with [Fingerprint.of_relation ~rel r] for the relation
    name with string id [name]. Each column's cell lanes are cached
    unboxed (16 bytes per row), so sibling states that share a column
    share its lanes; the result is cached too. *)

(** {1 ℒ operators} (mirrors of the {!Relation} functions) *)

type map = { map : 'a 'b. ('a -> 'b) -> 'a list -> 'b list }
(** An order-preserving list map, e.g. a pool's [map_list]. The [_chunks]
    kernels below run their per-chunk passes through it; each is the
    kernel of its one-relation operator, applied to one chunk with
    {!sequential}. *)

val sequential : map
(** [List.map]. *)

val promote : t -> name_col:int -> value_col:int -> t
(** ↑ as {!Relation.promote}. Only the columns that get written are new:
    every base column the promote does not overwrite is shared with its
    caches, and fresh columns are appended. When an overwrite leaves the
    rows out of order (or makes two equal) they are canonicalized as
    {!of_cols} does. Returns its input physically when it changes no
    cell. *)

val promote_chunks :
  map -> t list -> name_col:int -> value_col:int -> t list
(** ↑ over one relation held as canonical chunks with the same
    attributes: {!promote}'s kernel, run on each chunk against the same
    fresh columns — the usable names no attribute spells, in first-seen
    order across the chunks (chunk order, then row order), so a chunk
    that never names ["x"] still gains the all-null column ["x"]. Each
    chunk is written as {!promote} writes a relation, copy-on-write, and
    a chunk that changes no cell is returned physically. *)

val demote : t -> rel_name:int -> att_att:int -> rel_att:int -> t
val dereference : t -> target:int -> pointer_col:int -> t
val merge : t -> int -> t
(** µ on one column, as {!Relation.merge}: rows are grouped by the key
    cell's printed form, and each group is reduced by the greedy pairwise
    fixpoint that replaces a compatible pair (agreeing on every non-null
    position) by its least upper bound. Runs the kernel of
    {!merge_chunks} on one chunk, so a group whose columns each hold at
    most one non-null value id becomes its lub row directly, and only a
    conflicting group runs the fixpoint. Returns its input physically
    when µ changes nothing — at once when {!mu_identity} holds,
    otherwise after grouping the rows. *)

val merge_chunks : map -> chunk_rows:int -> t list -> int -> t list
(** [merge_chunks map ~chunk_rows chunks att]: µ on [att] over one
    relation held as canonical [chunks] with the same attributes, which
    may repeat rows across chunks. A key's rows are grouped across all
    chunks. The result is the chunks filtered to their rows with a
    unique key (shared physically where every key is unique), then the
    merged rows of the repeated keys in first-seen key order, in chunks
    of at most [chunk_rows]. Its rows, deduplicated, are exactly
    {!merge} of the chunks' union, id for id. Returns [chunks]
    physically when no key repeats. [map] runs the per-chunk
    key, filter and sort passes. *)

val partition : t -> int -> (int * t) list
(** {!Relation.partition}: (key value id, group) pairs, one per distinct
    non-null column value, in {!Value.compare} order. *)

val partition_keys : t -> int -> int list
(** The key value ids of {!partition}, without building the groups. *)

val product : t -> t -> t
val project_away : t -> int -> t
val rename_att : t -> old_name:int -> new_name:int -> t

val extend : t -> int -> (int array -> int) -> t
(** [extend r att f]: append column [att], cell computed from each row's
    value ids — the λ-apply building block. *)

val filter_idx : t -> (int -> bool) -> t
(** [filter_idx r pred]: keep rows whose index satisfies [pred]. A
    subsequence of canonical rows is canonical: no re-sort, one gather
    per column. Returns [r] itself when every row is kept. *)

val concat : int array -> t list -> t
(** [concat atts chunks]: the canonical union of canonical chunks with
    attributes [atts]. When each non-empty chunk's last row precedes the
    next one's first, the columns are concatenated as they are;
    otherwise the concatenated columns are canonicalized by {!of_cols}.
    No row is built either way. *)

val slice : t -> off:int -> len:int -> t
(** [slice r ~off ~len]: rows [off, off+len) as a relation — a contiguous
    range of canonical rows is itself canonical, so this is a columnar
    [Array.sub] per column. The chunking primitive of bulk migration.
    @raise Invalid_argument on a bad range. *)

(** {1 ∪ − ⋈ σ}

    Mirrors of {!Relation.union}, {!Relation.diff},
    {!Algebra.natural_join} and {!Relation.select} over
    {!Algebra.eval_pred}: canonical results with the boxed result's
    attribute order, equal id for id (property-tested against the boxed
    evaluator, and chunked through [Migrate]). *)

val align : int array -> t -> t
(** [align atts r]: [r] with its columns in the order [atts], a
    permutation of [r]'s attributes, re-canonicalized by {!of_cols}.
    Returns [r] when the order is already [atts]. *)

val union : t -> t -> t
(** [union a b]: [b] aligned to [a]'s attribute order, then {!concat}
    with [a]. *)

val diff : t -> t -> t
(** [diff a b]: the rows of [a] not in [b]. Returns [a] physically when
    none is removed. *)

val diff_chunks : map -> t list -> t -> t list
(** {!diff} of each chunk against [b]: [b]'s rows are indexed once, in
    the chunks' attribute order, before [map] runs (a hash index on
    value ids, cached on [b] for that order), then each chunk row is
    looked up by its ids; a row found in [b] is dropped. *)

val join : t -> t -> t
(** Natural join: [a]'s attributes, then [b]'s that [a] lacks. Rows pair
    when their shared attributes hold equal ids (null matches null, as
    {!Value.equal} does); with nothing shared it is {!product}. *)

val select : t -> Algebra.pred -> t
(** The rows the predicate holds on, as {!Algebra.eval_pred} decides it:
    a comparison or membership with an absent attribute or a null
    operand is false. Returns [r] physically when every row is kept. *)

val select_chunks : map -> t list -> Algebra.pred -> t list
(** {!select} on each chunk; the predicate is compiled once against the
    chunks' attribute array and evaluated on value ids. *)

(** {1 Comparison and containment} *)

val equal : t -> t -> bool
(** {!Relation.equal}: same attribute set, and the same rows, id for id,
    once projected onto the sorted attribute order; equivalently, equal
    {!Database.canonical_key}s. Two relations with the same attribute
    array are first compared column by column in place; the same value
    id in every cell is [true]. Otherwise, with equal row counts, [b] is
    indexed as {!contains} indexes its small side and every row of [a]
    must hit it. *)

val contains : t -> t -> bool
(** {!Relation.contains}: [small]'s attributes are a subset of [big]'s,
    and every row of [small] occurs among [big]'s rows projected onto
    them. [small] is indexed on its value ids, in its own attribute
    order, and the index is cached on it: in a search, [small] is the
    goal target, indexed once. Then [big]'s rows are streamed once,
    each looked up by the ids of its projected cells, and the target
    rows hit are marked, until all are. Nothing is allocated per row and
    nothing is cached on [big]. *)

val count_contained : t -> t -> int
(** Number of [small] rows found in [big]'s projection onto [small]'s
    attributes — the per-relation goal-coverage measure of anytime
    discovery. 0 when [small]'s attributes are not a subset of [big]'s.
    When the schemas do line up, the count reaches [cardinality small]
    exactly when [contains big small]. The same kernel as {!contains}:
    [small] indexed and cached, [big] streamed once. *)
