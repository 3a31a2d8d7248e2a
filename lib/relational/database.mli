(** Databases: finite maps from relation names to {!Relation.t}.

    A database is the unit of transformation in TUPELO — the mapping language
    ℒ rewrites whole databases (so that partition [℘] can create relations
    and rename-rel [ρ{^rel}] can match relation names). Databases are
    immutable; all operations are persistent. *)

type t

exception Error of string

(** {1 Construction} *)

val empty : t

val of_list : (string * Relation.t) list -> t
(** @raise Error on duplicate or empty relation names. *)

val check_name : string -> unit
(** @raise Error on the empty name, which no relation may have. *)

val add : t -> string -> Relation.t -> t
(** Replaces any existing relation of that name. @raise Error on empty
    names. *)

val remove : t -> string -> t
(** @raise Error if absent. *)

(** {1 Inspection} *)

val find : t -> string -> Relation.t
(** @raise Error if absent. *)

val find_opt : t -> string -> Relation.t option
val mem : t -> string -> bool
val relation_names : t -> string list
(** Sorted. *)

val relations : t -> (string * Relation.t) list
(** Sorted by name. *)

val size : t -> int
(** Number of relations. *)

val total_tuples : t -> int

val fold : (string -> Relation.t -> 'a -> 'a) -> t -> 'a -> 'a
val map : (string -> Relation.t -> Relation.t) -> t -> t

(** {1 Schema-level views} *)

val all_attributes : t -> string list
(** Sorted distinct attribute names across all relations. *)

val all_values : t -> Value.t list
(** Sorted distinct data values across all relations. *)

(** {1 Transformations} *)

val rename_rel : t -> old_name:string -> new_name:string -> t
(** @raise Error if [old_name] is absent or [new_name] present. *)

(** {1 Comparison} *)

val equal : t -> t -> bool
val compare : t -> t -> int

val contains : t -> t -> bool
(** [contains big small]: every relation of [small] exists in [big] under
    the same name and is contained in it in the sense of
    {!Relation.contains}. This is the paper's goal test — the search state
    is a "structurally identical superset" of the target (§2.3). *)

val canonical_key : t -> string
(** Deterministic serialization usable as a hash/dedup key: two databases
    have equal keys iff {!equal}. *)

(** {1 Formatting} *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
