(** Mapping expressions: pipelines of ℒ operators.

    A mapping expression is the output of TUPELO's discovery — the
    transformation path from the source critical instance to the target
    (§2.3). Expressions compose left to right: [ops = [o1; o2; o3]] means
    apply [o1] first. *)

open Relational

type t

val of_ops : Op.t list -> t
val ops : t -> Op.t list
val length : t -> int
val compose : t -> t -> t
(** [compose f g] applies [f] first, then [g]. *)

val equal : t -> t -> bool

val eval : Semfun.registry -> t -> Database.t -> Database.t
(** Execute the expression with full λ semantics ({!Eval.apply}).
    @raise Eval.Error if a step is inapplicable. *)

val eval_syntactic : Semfun.registry -> t -> Database.t -> Database.t
(** Execute with example-table-only λ semantics ({!Eval.apply_syntactic}). *)

val to_string : t -> string
(** One operator per line, in application order. *)

val to_paper_string : t -> string
(** The paper's presentation style: numbered intermediate results
    ([R1 := ↑^Cost_Route(Prices)] …). *)

val pp : Format.formatter -> t -> unit
