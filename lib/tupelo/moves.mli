(** Successor generation: which ℒ operator instances to try from a state.

    A naive instantiation of Table 1 over all names in a database explodes;
    the paper keeps the branching factor proportional to |s| + |t| by
    discarding "obviously inapplicable" transformations (§2.3). The rules
    implemented here only propose an operator when it can move the state
    toward the target:

    - [ρ{^att} A→B] only for [A] outside the target's attribute names and
      [B] among target attribute names missing from the relation (so if the
      state already has every target attribute name, no attribute renames
      are explored — the paper's example rule), and only when the rename is
      data-compatible (see [rename_value_check]);
    - [ρ{^rel}] likewise for relation names;
    - [↑ A/B] only when some value under [A] names a target attribute and
      some value under [B] occurs among target values;
    - [↓] only when the relation's name or one of its attribute names
      occurs among the target's data values, and the relation does not
      already hold its own metadata as data (so ↓ is not proposed twice);
    - [→ B/A] only for [B] a missing target attribute and [A] a column
      whose values actually name columns of the relation;
    - [℘ A] only when values under [A] include target relation names;
    - [×] only for disjoint-schema pairs whose combined attributes fit
      inside some target relation's schema;
    - [π̄ A] for attributes the target does not want — always under the
      {!Goal.Exact} goal, and under {!Goal.Superset} only when the relation
      has null cells (where a drop can unblock a µ merge, as in the paper's
      Example 2);
    - [µ A] only when the relation has null cells and duplicate [A]-values
      (otherwise merging is the identity);
    - [λ] only at the articulated signature when the function has one
      (§4), and otherwise over a bounded enumeration of input columns; in
      both cases only when the output can help — its attribute is one the
      target wants, or the function's illustrated outputs occur among the
      target's values (the output may be intermediate, e.g. promoted away
      by a later ↑).

    Proposal runs over the interned form ({!Relational.Idb}). Every
    candidate is finally checked with {!Fira.Eval.iapplicable}, the
    interned instance of the one applicability check
    ({!Fira.Applicability}). *)

open Relational

type config = {
  goal : Goal.mode;
  enable_promote : bool;
  enable_demote : bool;
  enable_dereference : bool;
  enable_partition : bool;
  enable_product : bool;
  enable_drop : bool;
  enable_merge : bool;
  enable_rename : bool;
  enable_apply : bool;
  rename_value_check : bool;
      (** the Rosetta Stone prune: propose [ρ A→B] (and [ρ{^rel}]) only
          when the source column's (relation's) illustrated values
          intersect the values the target illustrates under [B] (under the
          new relation name). Renaming a column whose example data
          contradicts the target's example data is "obviously
          inapplicable" in the sense of §2.3. On by default; switching it
          off is the [no-value-check] ablation benchmark. *)
  max_lambda_inputs : int;
      (** cap on enumerated input tuples per function when a λ has no
          articulated signature *)
  max_state_cells : int;
      (** successors whose databases exceed this many cells are pruned —
          an implementation guard against pathological growth (repeated ↓
          and × square or multiply instance sizes); critical instances are
          tiny, so the default of 4096 is far above any useful state. The
          bound is checked against the parent's cell count plus the
          operator's delta, before the successor state is built *)
}

val default : Goal.mode -> config
(** Everything enabled (including [rename_value_check]);
    [max_lambda_inputs = 64]; [max_state_cells = 4096]. *)

(** Target features consulted by the pruning rules, computed once per
    discovery run. *)
type target_info

val target_info : Database.t -> target_info

val target_idb : target_info -> Idb.t
(** The target in interned form, converted once. *)

val candidates :
  config -> Fira.Semfun.registry -> target_info -> Idb.t -> Fira.Op.t list
(** Deterministically ordered, duplicate-free list of applicable operator
    instances: relations in name order, attributes in schema order, target
    names in string order. Membership and value-overlap pruning run over
    cached id-sorted arrays; no boxed relation is built. Property-tested
    against a brute-force enumeration of Table 1 filtered by the boxed
    {!Fira.Eval.applicable}. *)

val successors :
  ?telemetry:Telemetry.t ->
  config ->
  Fira.Semfun.registry ->
  target_info ->
  State.t ->
  (Fira.Op.t * State.t) list
(** {!candidates} applied with the search-time (syntactic λ) semantics
    over the parent's interned database; each successor state that
    differs from its parent is built incrementally via
    {!State.of_isuccessor} (counted on the [fingerprint.incremental]
    telemetry counter) and deduplicated by fingerprint before any
    full-key work. A candidate that changes nothing yields the parent
    itself, physically, and builds nothing (counted on
    [successors.self]): µ on a relation that {!Irel.mu_identity}
    certifies is not applied, and a delta that replaces a relation by
    itself physically (µ or ↑ that changes no cell, ℘ into one group
    named like its relation) is recognized after the apply. The parent
    passes the same [max_state_cells] check and the same dedup as a
    built child, so the list is exactly the one that applying and
    building every candidate gives. A fingerprint hit alone never
    discards a successor: it is confirmed by {!State.same_content}
    (canonical comparison over the interned form), and a confirmed
    collision — fingerprint-equal but content-distinct — keeps both states
    and counts [fingerprint.collision]. Successors that fail to change the
    state are kept — cycle detection in the search layer removes them —
    but duplicates within the list are dropped. Proposal and application
    are timed as [moves.propose] and [moves.apply].

    Each candidate is applied by {!Fira.Eval.apply_interned_unchecked},
    whose precondition — the operator was admitted by {!candidates} on
    this [idb] — holds by construction, so applicability is checked once
    per operator, in {!candidates}. *)
