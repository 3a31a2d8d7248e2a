(** Atomic values stored in relation cells.

    TUPELO's critical instances are small example databases; cells carry
    typed atomic values. The ordering is total and type-stratified (nulls,
    then booleans, then numbers, then strings) so that values of mixed type
    can live in one column and still be sorted deterministically — which the
    canonical state encodings of the search layer rely on.

    Value identity is one relation: [compare a b = 0] ⟺ [equal a b] ⟺
    same {!type_name} and same {!to_string} ⟺ same {!Intern.value_id}.
    [Int 1] and [Float 1.0] are distinct values, as are [0.0] and [-0.0];
    all NaNs are one value. *)

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
    Numbers are ordered by exact value (NaN lowest); a numeric tie puts
    [Int] before [Float], and [-0.0] before [0.0]. *)

val equal : t -> t -> bool
(** [compare a b = 0], as a direct structural match. *)

val hash : t -> int
(** Consistent with {!equal}; allocates nothing. *)

(** {1 Inspection} *)

val is_null : t -> bool

val type_name : t -> string
(** ["null"], ["bool"], ["int"], ["float"] or ["string"]. *)

val to_string : t -> string
(** Round-trippable with {!of_string_guess} for non-string payloads;
    strings are returned verbatim. A float prints with the fewest of 12,
    15, 16 or 17 significant digits that read back bit for bit, keeping a
    decimal point (["1.0"], ["-0.0"], ["0.30000000000000004"]); every NaN
    prints as ["nan"]. *)

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
