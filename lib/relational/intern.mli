(** Global hash-consing pools: strings and values as dense int ids.

    The search hot path ({!Irel}, {!Idb}, successor generation, heuristic
    profiles) carries ids instead of boxed strings and values. Inserting a
    new key is mutex-guarded; both lookups are lock-free. An id lookup is a
    plain read (the entry arrays grow by copy and are never mutated past
    their issued ids). A key lookup ({!string_id}, {!value_id}) probes an
    open-addressing index of ids and allocates nothing on a hit; it accepts
    an id only after checking that id's entry holds the key, and a miss
    probes again under the mutex, so a racing insert can cost a lock but
    never yield a wrong id. Any number of domains can read while one
    interns — see DESIGN.md, "Interned hot path", for the full
    domain-safety story.

    Identity:
    - string ids: one per distinct string; id equality ⟺ string equality.
    - value ids: one per value; id equality ⟺ {!Value.equal} ⟺
      [Value.compare] = 0 ⟺ same type and printed form.

    The pools are process-global and append-only (never shrunk): a
    deliberate trade-off for the long-running discovery server. *)

(** {1 Strings} *)

val string_id : string -> int
val string_of_id : int -> string

val string_lanes : int -> int64 * int64
(** Cached element lanes of the string:
    [Fingerprint.Hashing.lanes (Fingerprint.Hashing.fnv1a64 s)]. *)

val string_value_id : int -> int
(** Id of [Value.String s] for string id [s]; cached on the string entry. *)

val cell_lanes : int -> int -> Bytes.t -> int -> unit
(** [cell_lanes att v b off] writes both fingerprint element lanes of the
    cell [v] under attribute [att] at bytes [off] and [off + 8] of [b]:
    {!Fingerprint.Hashing.cell_lanes} with the attribute's prefix (the FNV
    state of its name and ['\x1f']) and the value's printed form, both
    cached on their entries. Allocates nothing and memoizes nothing:
    {!Irel} caches lanes per column, where sibling states share them. *)

val empty_string_id : int

(** {1 Values} *)

val value_id : Value.t -> int
val value_of_id : int -> Value.t

val value_str_id : int -> int
(** String id of [Value.to_string v]. *)

val value_is_null : int -> bool
val null_value_id : int

(** {1 Comparisons} *)

val compare_values : int -> int -> int
(** Exactly {!Value.compare} on the underlying values (id fast path);
    0 only on equal ids. *)

val compare_strings : int -> int -> int
(** [String.compare] on contents. *)

val size : unit -> int * int
(** [(distinct strings, distinct values)] interned so far. *)
