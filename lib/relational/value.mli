(** Atomic values stored in relation cells.

    TUPELO's critical instances are small example databases; cells carry
    typed atomic values. The ordering is total and type-stratified (nulls,
    then booleans, then numbers, then strings) so that values of mixed type
    can live in one column and still be sorted deterministically — which the
    canonical state encodings of the search layer rely on. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string

(** {1 Construction} *)

val null : t
val bool : bool -> t
val int : int -> t
val float : float -> t
val string : string -> t

val of_string_guess : string -> t
(** [of_string_guess s] parses [s] with type inference: [""], ["NULL"] and
    ["null"] become {!Null}, decimal integers in range become {!Int},
    literals holding ['.'], ['e'] or ['E'] that [float_of_string] accepts
    become {!Float}, ["true"]/["false"] become {!Bool}, everything else
    {!String}. It is {!guess} over the whole string. *)

type guess = G_null | G_bool of bool | G_int of int | G_float of float | G_string

val guess : string -> int -> int -> guess
(** [guess s off len] is {!of_string_guess}'s rule applied to the slice
    [s.[off] .. s.[off + len - 1]], without copying it unless it may be a
    float literal; [G_string] stands for [String] of the slice.
    @raise Invalid_argument on a bad slice. *)

(** {1 Comparison} *)

val compare : t -> t -> int
(** Total, type-stratified order: [Null < Bool _ < Int _ ~ Float _ < String _].
    [Int] and [Float] compare numerically against each other. *)

val equal : t -> t -> bool
val hash : t -> int

(** {1 Inspection} *)

val is_null : t -> bool

val type_name : t -> string
(** ["null"], ["bool"], ["int"], ["float"] or ["string"]. *)

val to_string : t -> string
(** Round-trippable with {!of_string_guess} for non-string payloads;
    strings are returned verbatim. *)

val to_display : t -> string
(** Human-oriented rendering used by table pretty-printers ([Null] shows as
    ["-"]). *)

(** {1 Coercions} *)

val as_int : t -> int option
(** Numeric view: [Int n] gives [n], [Float f] gives [int_of_float f] when
    exact, strings that parse as integers give their value. *)

val as_float : t -> float option
val as_string : t -> string option

(** {1 Formatting} *)

val pp : Format.formatter -> t -> unit
