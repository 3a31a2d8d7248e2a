(** Relations: a {!Schema.t} plus a set of {!Row.t} tuples.

    Relations are immutable and have set semantics: duplicate rows are
    eliminated and rows are kept in a canonical sorted order, so structural
    equality of relations is list equality of their rows. Besides the classic
    relational-algebra operations, this module implements the data–metadata
    operators of FIRA that TUPELO's mapping language ℒ relies on:
    {!promote}, {!demote}, {!dereference}, {!merge} and {!partition}
    (Table 1 of the paper). *)

type t

exception Error of string

(** {1 Construction} *)

val create : Schema.t -> t
(** Empty relation over a schema. *)

val of_rows : Schema.t -> Row.t list -> t
(** @raise Error if any row's arity differs from the schema's. *)

val of_strings : string list -> string list list -> t
(** [of_strings atts rows] builds a relation from string literals, parsing
    each cell with {!Value.of_string_guess}. Convenient for tests and
    critical-instance construction. *)

val unsafe_of_rows : Schema.t -> Row.t list -> t
(** [of_rows] without the arity check or canonicalization — the rows are
    stored exactly as given. For tests that need to construct invalid
    (e.g. ragged) relations to pin diagnostic behavior; never use on a
    data path. *)

val add : t -> Row.t -> t

(** {1 Inspection} *)

val schema : t -> Schema.t
val attributes : t -> string list
val rows : t -> Row.t list
(** In canonical order. *)

val cardinality : t -> int
val is_empty : t -> bool
val mem : t -> Row.t -> bool

val column : t -> string -> Value.t list
(** All values under an attribute, in row order (with duplicates). *)

val column_distinct : t -> string -> Value.t list
(** Distinct values under an attribute, sorted. *)

val fold : (Row.t -> 'a -> 'a) -> t -> 'a -> 'a
val iter : (Row.t -> unit) -> t -> unit

val get : t -> Row.t -> string -> Value.t
(** [get r row att] reads a cell using [r]'s schema. *)

(** {1 Classic relational algebra} *)

val project : t -> string list -> t
(** Project onto the given attributes (in the given order), removing
    duplicate rows. @raise Error on unknown attributes. *)

val project_away : t -> string -> t
(** FIRA's π̄: drop one column. @raise Error if absent. *)

val select : t -> (Schema.t -> Row.t -> bool) -> t
val rename_att : t -> old_name:string -> new_name:string -> t
val product : t -> t -> t
(** Cartesian product. @raise Error if the schemas share attributes. *)

val union : t -> t -> t
(** @raise Error unless schemas are equal as sets; the result uses the left
    operand's attribute order. *)

val inter : t -> t -> t
val diff : t -> t -> t

val extend : t -> string -> (Schema.t -> Row.t -> Value.t) -> t
(** [extend r att f] appends a computed column. @raise Error if [att]
    already exists. *)

(** {1 Data–metadata operators (FIRA fragment ℒ)} *)

val promote : t -> name_col:string -> value_col:string -> t
(** [promote r ~name_col:A ~value_col:B] is FIRA's [↑ᴬ_B(R)]: for every tuple
    [t], append a column named [t[A]] holding [t[B]]. Column names are
    created dynamically from the data; tuples take {!Value.Null} in columns
    introduced by other tuples. Cells whose name value is not a usable
    attribute name (nulls) are skipped. Existing columns are overwritten
    per-tuple rather than duplicated. *)

val demote : t -> rel_name:string -> att_att:string -> rel_att:string -> t
(** [demote r ~rel_name ~att_att ~rel_att] is FIRA's [↓(R)]: the Cartesian
    product of [r] with the binary table [(att_att, rel_att)] listing the
    metadata of [r] — one row [(a, rel_name)] per attribute [a] of [r].
    @raise Error if [att_att] or [rel_att] clash with existing columns. *)

val dereference : t -> target:string -> pointer_col:string -> t
(** [dereference r ~target:B ~pointer_col:A] is FIRA's [→ᴮ_A(R)]: for every
    tuple [t], append a column [B] with value [t[t[A]]] — the cell under the
    column {e named by} [t]'s value at [A]. Tuples whose pointer does not
    name a column get {!Value.Null}. @raise Error if [B] already exists. *)

val merge : t -> string -> t
(** [merge r a] is FIRA's [µ_A(R)] (Wyss & Robertson's PIVOT-completing
    merge): repeatedly replaces pairs of tuples that agree on column [a] and
    are {e compatible} — equal or one-sided-null on every other column — by
    their least upper bound, until a fixpoint. *)

val partition : t -> string -> (Value.t * t) list
(** [partition r a] is the per-group content of FIRA's [℘_A(R)]: one
    sub-relation (with [a] retained) per distinct non-null value of [a],
    in {!Value.compare} order. The database-level operator names each
    group by its value's printed form. *)

(** {1 Comparison, hashing, formatting} *)

val compare : t -> t -> int
(** Structural order on (sorted attribute list, canonical rows). *)

val equal : t -> t -> bool

val contains : t -> t -> bool
(** [contains big small]: [small]'s attributes are a subset of [big]'s and
    every row of [small] occurs in [big] projected onto [small]'s
    attributes. This is the "structurally identical superset" test of the
    paper's goal condition (§2.3). *)

val to_string : t -> string
(** ASCII table rendering. *)

val pp : Format.formatter -> t -> unit
