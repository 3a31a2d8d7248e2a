(** Tuple Normal Form (TNF) — Litwin, Ketabchi & Krishnamurthy's fixed-schema
    encoding of whole databases, used by TUPELO as its internal
    representation (§2.2 of the paper).

    The TNF of a database is a single four-column relation
    [(TID, REL, ATT, VALUE)] with one row per {e cell}: tuple id, owning
    relation name, attribute name, and the cell's value rendered as a
    string. Encoding a database in TNF makes metadata (relation and
    attribute names) into ordinary data, which is what lets the search
    heuristics compare states and targets uniformly. *)

open Relational

exception Error of string

val tid_att : string
(** ["TID"] *)

val rel_att : string
(** ["REL"] *)

val att_att : string
(** ["ATT"] *)

val value_att : string
(** ["VALUE"] *)

val schema : Schema.t
(** The fixed TNF schema [(TID, REL, ATT, VALUE)]. *)

(** {1 Encoding} *)

val encode : Database.t -> Relation.t
(** TNF of a database: the union of the TNF of each relation, with tuple
    ids made globally unique by numbering tuples across relations in
    (relation name, row) order. Null cells are skipped (TNF stores present
    cells only), so decode∘encode loses nothing but nulls. *)

(** {1 Decoding} *)

val decode : Relation.t -> Database.t
(** Rebuild a database from its TNF. Attribute order within each decoded
    relation is the order of first appearance in the (canonically ordered)
    TNF — column order is not representable in a set of cells, and
    relation equality ignores it. Cells absent for a tuple become
    {!Value.Null}; values are re-parsed with {!Value.of_string_guess}.
    Relations with no rows and columns that are entirely null are likewise
    not representable and vanish. @raise Error if the input does not have
    the TNF schema. *)

(** {1 Building TNF in SQL}

    §2.2 notes the TNF of a relation "can be built in SQL using the system
    tables". These entry points demonstrate that claim against the [Sql]
    engine and its [__tables]/[__columns] catalog. *)

val sql_script : Database.t -> string
(** A SQL script (CREATE TABLE + INSERTs) that materializes the TNF as a
    table named [tnf]. The script is produced by querying only the SQL
    engine itself: the catalog for metadata and [SELECT *] for data. *)

val via_sql : Database.t -> Relation.t
(** Run {!sql_script} through the [Sql] engine and return the resulting
    [tnf] table. Agrees with {!encode} up to value stringification. *)

(** {1 Views used by the search heuristics} *)

val rel_names : Relation.t -> string list
(** Distinct [REL] strings of a TNF relation, sorted. *)

val att_names : Relation.t -> string list
val cell_values : Relation.t -> string list

val triples : Relation.t -> (string * string * string) list
(** The [(REL, ATT, VALUE)] projection, one triple per row, sorted; this is
    the list the term-vector heuristics of §3 count occurrences in. *)

val to_sorted_string : Relation.t -> string
(** The paper's [string(d)]: concatenation of the per-cell strings
    [rel ⊕ att ⊕ value] in lexicographic order (§3, Levenshtein
    heuristic). *)
