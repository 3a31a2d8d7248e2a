(** Complex semantic functions (the paper's §4).

    A semantic function is a named black box mapping a tuple of input values
    to one output value — e.g. [TotalCost = Cost + AgentFee], name
    concatenation, unit conversion, or an un-generalizable lookup such as
    name → social-security-number. TUPELO never interprets these functions
    during search; it only checks arities and signatures, and uses the
    {e examples} articulated on the critical instances to know what output
    value an application produces on the example tuples. The real
    implementation (if any) is consulted only when a discovered mapping
    expression is executed over a full instance — mirroring the paper's
    separation between structural discovery and semantic interpretation. *)

open Relational

exception Error of string

type t
(** One semantic function: name, arity, example input/output pairs, and an
    optional executable implementation. *)

val make :
  ?impl:(Value.t list -> Value.t) ->
  ?signature:string list * string ->
  name:string ->
  arity:int ->
  examples:(Value.t list * Value.t) list ->
  unit ->
  t
(** [signature] is the articulated correspondence of §4: the source
    attribute names the function consumes and the target attribute it
    fills (e.g. [(["Cost"; "AgentFee"], "TotalCost")]). When present, the
    search instantiates λ only at that signature; when absent it must
    enumerate candidate input columns.
    @raise Error if [arity < 1], the name is empty, any example's input
    arity differs from [arity], or the signature's input count differs
    from [arity]. *)

val name : t -> string
val arity : t -> int
val examples : t -> (Value.t list * Value.t) list
val signature : t -> (string list * string) option

val apply : t -> Value.t list -> Value.t
(** Evaluate on concrete inputs: the implementation if present, otherwise
    the example table, otherwise {!Value.Null} (the paper's λ is the
    identity/undefined outside its illustrated domain).
    @raise Error on an arity mismatch. *)

val apply_example : t -> Value.t list -> Value.t option
(** Pure example-table lookup, ignoring any implementation; this is what
    search-time evaluation uses so that discovery stays purely syntactic. *)

(** {1 Registries} *)

type registry

val empty_registry : registry
val register : registry -> t -> registry
(** @raise Error on duplicate names. *)

val find : registry -> string -> t option
val find_exn : registry -> string -> t
(** @raise Error if absent. *)

val of_list : t list -> registry
val to_list : registry -> t list

(** {1 TNF annotation codec}

    §4: "complex semantic maps are just encoded as strings in the VALUE
    column of the TNF relation. This string indicates the input/output type
    of the function, the function name, and the example function values." *)

val encode_annotation : t -> string list
(** One string per example, of the form
    [λname/arity[A,B>C]:in1\x1fin2…→out] — the bracketed part carries the
    attribute signature when the function has one. *)

val decode_annotations : string list -> t list
(** Rebuild (implementation-less) functions from annotation strings,
    grouping by name. Non-annotation strings are ignored.
    @raise Error on malformed [λ…] strings. *)

val is_annotation : string -> bool
