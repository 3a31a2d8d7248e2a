(** Operator applicability: the §2.3 / Table 1 preconditions of every ℒ
    operator, written once over a schema view that each database form
    (boxed, interned, chunked) implements. Every form therefore accepts
    and rejects the same operators with the same reason strings. *)

(** What the checks read from a database: relations, attribute names and
    the names ℘ would give its groups. *)
module type SCHEMA_VIEW = sig
  type db
  type rel

  type name
  (** A relation or attribute name in the form's own representation. *)

  val name : string -> name
  val string_of_name : name -> string
  val find_opt : db -> name -> rel option
  val mem : db -> name -> bool
  val mem_att : rel -> name -> bool
  val arity : rel -> int
  val atts : rel -> name array

  val group_names : rel -> name -> name list
  (** The relation names [℘] over this column would create: the printed
      forms of its distinct non-null values, in {!Relational.Value.compare}
      order. Two values may print alike ([Int 1] and [String "1"]); the
      check then rejects [℘] with a duplicate-group-name reason. *)
end

module Make (V : SCHEMA_VIEW) : sig
  val explain_inapplicable :
    Semfun.registry -> Op.t -> V.db -> string option
  (** [None] when the operator applies, otherwise the first failed
      precondition as a human-readable reason. Never raises. *)
end
