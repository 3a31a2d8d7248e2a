(** Order-independent 128-bit database fingerprints.

    A fingerprint summarizes a database as two independent 64-bit lanes.
    Every row contributes one 128-bit term and every relation contributes one
    schema term; the database fingerprint is the lane-wise sum (mod 2^64) of
    all terms. Because addition is commutative and invertible, fingerprints
    can be maintained incrementally: applying an ℒ operator only requires
    adding/removing the terms of the rows and relations it touched — O(cells
    changed) instead of O(database).

    Construction (see DESIGN.md, "State fingerprinting"):
    - cell hash: FNV-1a 64 over [att '\x1f' tag value-bytes] — a type tag
      byte plus a value encoding that induces exactly
      {!Database.canonical_key}'s cell equivalence, which is value identity
      (ints and bools hash their bits, floats their lossless printed form,
      strings their bytes; nulls included, matching canonical_key's null
      cells) — finalized with a
      splitmix64 mixer; the second lane re-mixes with an independent salt.
      The whole encoding is hashed as one continued FNV fold, with no
      intermediate allocation.
    - row term: [mix (Σ cell hashes + relation-name hash)] — the inner sum is
      commutative (cells of a row are unordered once projected onto the
      sorted schema) while the outer mix binds cells to their row, so
      regrouping the same cell multiset into different rows changes the
      fingerprint.
    - schema term: [mix (Σ attribute hashes + relation-name hash + salt)] —
      captures empty relations and attribute sets, which
      {!Database.canonical_key} also serializes.

    Two equal databases (in the sense of {!Database.equal}) always have equal
    fingerprints; distinct databases collide with probability ~2^-128 per
    pair under the usual uniform-hash heuristics. *)

type t

val zero : t
(** Fingerprint of the empty database. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val hash : t -> int
(** Mixes both lanes into a non-negative [int], for [Hashtbl.Make]. *)

val to_hex : t -> string
(** 32 lowercase hex digits (lane a then lane b). *)

val of_hex : string -> t option
(** Inverse of {!to_hex} (either case accepted); [None] unless the string
    is exactly 32 hex digits. The round-trip makes fingerprints usable as
    the serialized closed-set keys of a resumable search frontier. *)

(** {1 Multiset combination} *)

val combine : t -> t -> t
(** Lane-wise sum: the fingerprint of the disjoint union of contributions. *)

val remove : t -> t -> t
(** Inverse of {!combine}: [remove (combine x y) y = x]. *)

(** {1 Term construction} *)

val of_row : rel:string -> Schema.t -> Row.t -> t
(** Contribution of one row of relation [rel]. *)

val of_schema : rel:string -> Schema.t -> t
(** Contribution of the existence of relation [rel] with the given
    attribute set. *)

val of_relation : rel:string -> Relation.t -> t
(** Schema term plus all row terms of [rel]. *)

val of_database : Database.t -> t
(** Full fingerprint: Σ {!of_relation} over all relations. Two databases
    have equal fingerprints iff they have equal {!Database.canonical_key}
    (modulo hash collisions). *)

(** {1 Straight from CSV} *)

type csv_term = {
  term : t;  (** [of_relation ~rel (Csv.parse_relation doc)] *)
  schema_term : t;  (** {!of_schema} of that relation *)
}

val of_csv : ?max_bytes:int -> rel:string -> string -> csv_term
(** The terms of relation [rel] given as a CSV document, bit-identical
    to those of [Csv.parse_relation ?max_bytes doc], computed while
    tokenizing: no relation, row or cell value is built, and a repeated
    row counts once. @raise Csv.Error exactly as [Csv.parse_relation]. *)

val cell_fnv : int64 -> string -> int -> int -> int64
(** [cell_fnv h s off len] continues an FNV fold with the cell
    [s.[off] .. s.[off + len - 1]] as a guessed value:
    [Hashing.value_fnv h (Value.of_string_guess (String.sub s off len))],
    without building the value. *)

(** {1 Hashing primitives}

    Shared with the interned columnar representation ({!Intern}/{!Irel}),
    which caches per-column element lanes and must reproduce the boxed
    fingerprints bit for bit. Not a stable public interface. *)
module Hashing : sig
  val fnv1a64 : string -> int64
  val fnv_char : int64 -> char -> int64

  val value_fnv : int64 -> Value.t -> int64
  (** Continue an FNV fold with the type-tagged encoding of one value. *)

  val lanes : int64 -> int64 * int64
  (** Both element lanes from one FNV state: [(mix64 h, mix64 (mix64 h lxor
      lane_salt))]. *)

  val cell_lanes : int64 -> Value.t -> string -> Bytes.t -> int -> unit
  (** [cell_lanes prefix v printed b off] writes both element lanes of the
      cell [v] at bytes [off] and [off + 8] of [b]: [lanes (value_fnv
      prefix v)], [prefix] being the FNV state of the attribute name and
      ['\x1f'], and [printed] [Value.to_string v] (read only for a float).
      Allocates nothing. *)

  val of_lanes :
    rel:int64 * int64 -> schema:int64 * int64 -> Bytes.t array -> int -> t
  (** [of_lanes ~rel ~schema cols n]: the relation term ({!of_schema} plus
      {!of_row} of every row) from [rel], the relation name's element
      lanes, [schema], the sums of its attributes' element lanes, and
      [cols], one {!cell_lanes} column per attribute holding [n] rows at
      16 bytes each. No allocation per row. *)
end
