(** Evaluation of ℒ operators over databases. *)

open Relational

exception Error of string

val applicable : Semfun.registry -> Op.t -> Database.t -> bool
(** Precondition check: would {!apply} succeed? (Relations and columns
    exist, names do not clash, λ functions are registered with matching
    arity, ….) Never raises. *)

val explain_inapplicable : Semfun.registry -> Op.t -> Database.t -> string option
(** [None] when applicable, otherwise a human-readable reason: the one
    check of {!Applicability} over the boxed database. ℘ makes one group
    per distinct non-null value of the column
    ({!Relational.Relation.partition}), named by its printed form. *)

val apply : Semfun.registry -> Op.t -> Database.t -> Database.t
(** Apply one operator. λ applications use {!Semfun.apply} (implementation
    if present, otherwise the example table). @raise Error when the
    operator is not applicable. *)

val apply_syntactic : Semfun.registry -> Op.t -> Database.t -> Database.t
(** Like {!apply} but λ uses only {!Semfun.apply_example} — the search-time
    semantics in which functions stay black boxes (§4). *)

(** {1 Deltas}

    Every ℒ operator touches O(1) relations: it replaces one relation in
    place (↑ ↓ → π̄ µ ρ{^att} λ σ), creates one (×, and ∪/−/⋈ with a fresh
    [out]), moves one (ρ{^rel}), or splits one into groups (℘). A [delta]
    records exactly those relation-granular changes, letting callers update
    fingerprints, profiles and cell counts in O(cells changed) instead of
    rescanning the database. *)

type delta = {
  removed : (string * Relation.t) list;
      (** Relations removed, or the displaced versions of replaced ones. *)
  added : (string * Relation.t) list;
      (** Relations added, or the new versions of replaced ones. *)
}

val apply_with_delta :
  semantics:[ `Full | `Syntactic ] ->
  Semfun.registry ->
  Op.t ->
  Database.t ->
  Database.t * delta
(** Apply one operator and report what changed. [apply_with_delta] is the
    primitive; {!apply} and {!apply_syntactic} discard the delta.
    @raise Error when the operator is not applicable. *)

val apply_syntactic_delta :
  Semfun.registry -> Op.t -> Database.t -> Database.t * delta
(** [apply_with_delta ~semantics:`Syntactic]. *)

(** {1 Interned evaluation}

    The successor-generation hot path evaluates operators directly over
    the interned columnar form ({!Relational.Idb}/{!Relational.Irel}),
    avoiding boxed databases entirely. Bit-identity contract: for any
    applicable operator, converting the interned result and delta to the
    boxed form yields exactly {!apply_with_delta}'s output (same canonical
    keys, same fingerprints) — property-tested. The core relational
    operators ∪ − ⋈ σ, which {!Tupelo.Moves} never proposes, fall back to
    the boxed implementations at a conversion cost. *)

type idelta = {
  iremoved : (int * Irel.t) list;
      (** (relation-name id, relation) pairs, mirroring {!delta}. *)
  iadded : (int * Irel.t) list;
}

val idelta_cells : idelta -> int
(** Net change in total cell count (Σ cardinality × arity over [iadded]
    minus the same over [iremoved]) — add to the predecessor's total to
    get the successor's without scanning it. *)

val iapplicable : Semfun.registry -> Op.t -> Idb.t -> bool
(** {!applicable} over the interned form. *)

val iexplain_inapplicable : Semfun.registry -> Op.t -> Idb.t -> string option
(** The same {!Applicability} check as {!explain_inapplicable}, over the
    interned form: same outcome and reason string on corresponding
    databases. *)

val apply_interned_delta :
  semantics:[ `Full | `Syntactic ] ->
  Semfun.registry ->
  Op.t ->
  Idb.t ->
  Idb.t * idelta
(** Mirror of {!apply_with_delta} over the interned form.
    @raise Error when the operator is not applicable. *)

val apply_interned_unchecked :
  semantics:[ `Full | `Syntactic ] ->
  Semfun.registry ->
  Op.t ->
  Idb.t ->
  Idb.t * idelta
(** {!apply_interned_delta} without its applicability check.
    Precondition: [iapplicable registry op idb] holds — as it does for
    every operator that [Tupelo.Moves.candidates] admitted on this
    [idb], which has already run the check. On an inapplicable operator
    the result is unspecified (a wrong database or any exception). *)
