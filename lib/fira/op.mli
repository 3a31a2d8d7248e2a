(** The operators of the mapping language ℒ (Table 1 of the paper, plus the
    λ operator of §4), lifted to whole databases.

    Each constructor records every parameter needed to replay the operator
    deterministically, so a list of operators is an executable mapping
    expression. Relation-valued operators act on one named relation of the
    database and replace it in place, except where noted. *)

type t =
  | Promote of { rel : string; name_col : string; value_col : string }
      (** [↑{^name_col}_{value_col}(rel)] — for every tuple, append a column
          named by the tuple's [name_col] value, holding its [value_col]
          value (data → metadata). *)
  | Demote of { rel : string; att_att : string; rel_att : string }
      (** [↓(rel)] — product with the binary metadata table; appends columns
          [att_att] (attribute names) and [rel_att] (the relation name)
          (metadata → data). *)
  | Dereference of { rel : string; target : string; pointer_col : string }
      (** [→{^target}_{pointer_col}(rel)] — append column [target] whose
          value is the tuple's cell under the column {e named by} its
          [pointer_col] value. *)
  | Partition of { rel : string; col : string }
      (** [℘_col(rel)] — replace [rel] by one relation per distinct value of
          [col], each named by that value (data → relation names). *)
  | Product of { left : string; right : string; out : string }
      (** [×(left, right)] — Cartesian product, stored as a new relation
          [out]; the operands remain. *)
  | Drop of { rel : string; col : string }
      (** [π̄_col(rel)] — project the column away. *)
  | Merge of { rel : string; col : string }
      (** [µ_col(rel)] — merge compatible tuples agreeing on [col]. *)
  | RenameAtt of { rel : string; old_name : string; new_name : string }
      (** [ρ{^att}_{old→new}(rel)]. *)
  | RenameRel of { old_name : string; new_name : string }
      (** [ρ{^rel}_{old→new}]. *)
  | Apply of { rel : string; func : string; inputs : string list; output : string }
      (** [λ{^output}_{func, inputs}(rel)] — apply a complex semantic
          function tuple-wise (§4). *)
  | Union of { left : string; right : string; out : string }
      (** [∪] — set union (schemas must agree as sets), stored as [out]
          (which may overwrite an operand). {b Beyond ℒ}: part of full
          FIRA; never proposed during search, available for hand-written
          expressions — e.g. the C→B direction of Fig. 1 is inexpressible
          without it. *)
  | Diff of { left : string; right : string; out : string }
      (** [−] — set difference. Beyond ℒ, like {!Union}. *)
  | Join of { left : string; right : string; out : string }
      (** [⋈] — natural join. Beyond ℒ, like {!Union}. *)
  | Select of { rel : string; pred : Relational.Algebra.pred }
      (** [σ] — relational selection. The paper treats σ as external
          post-processing (§2.1); the constructor lets saved expressions
          carry their filters. Beyond ℒ; never proposed during search. *)

val is_core : t -> bool
(** Whether the operator belongs to the search language ℒ (Table 1 + λ),
    as opposed to the full-FIRA extensions above. *)

val demote : ?att_att:string -> ?rel_att:string -> string -> t
(** [demote rel] with the conventional column names ["ATT"]/["REL"]. *)

val rel_of : t -> string option
(** The relation an operator reads, when it reads exactly one. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val kind_name : t -> string
(** The operator's constructor as a stable lowercase identifier
    ([promote], [rename_att], …) — used as the [<op>] segment of
    telemetry event names such as [moves.proposed.<op>]. *)

val event_names : string -> t -> string
(** [event_names prefix] is [fun op -> prefix ^ kind_name op], with
    every name built once, up front: applying it allocates nothing. *)

val to_string : t -> string
(** Compact ASCII form, e.g. [promote[Route/Cost](Prices)]. Names that
    could be mistaken for surrounding syntax (delimiters, leading/trailing
    whitespace, quotes, newlines, emptiness) are printed double-quoted with
    backslash escapes; {!Parser.op_of_string} inverts both forms. *)

val to_paper_string : t -> string
(** Notation close to the paper's, e.g. [↑^Cost_Route(Prices)]. *)

val pp : Format.formatter -> t -> unit
