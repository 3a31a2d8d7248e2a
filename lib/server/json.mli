(** Minimal JSON reader/writer for the mapping server's wire protocol.

    Self-contained (stdlib only, like the rest of the server): the
    daemon cannot pull in a JSON dependency, and the protocol is small
    enough that a complete RFC 8259 value parser fits in a page.
    Strings are treated as byte sequences: printable ASCII and bytes
    [>= 0x80] pass through verbatim, control characters are escaped as
    [\uNNNN] — so any OCaml string round-trips through
    [parse (to_string v)]. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** fields in document order *)

val parse : string -> (t, string) result
(** Parse exactly one JSON value (surrounding whitespace allowed);
    trailing garbage is an error. Errors carry a byte offset. *)

val parse_sub : string -> off:int -> len:int -> (t, string) result
(** [parse_sub s ~off ~len] is [parse (String.sub s off len)] without the
    copy; error offsets count from [off]. No string in the result shares
    [s], so [s] may be a buffer's bytes that change after the call.
    @raise Invalid_argument when the window is not within [s]. *)

val to_string : t -> string
(** Compact rendering, object fields in list order. Numbers that are
    exact integers print without a fractional part. *)

(** {1 Accessors} — total helpers for decoding requests. *)

val member : string -> t -> t option
(** Field lookup; [None] when absent or not an object. *)

val to_str : t -> string option
val to_num : t -> float option
val to_int : t -> int option
(** [Num] with an integral value only. *)

val to_arr : t -> t list option
val to_obj : t -> (string * t) list option

val equal : t -> t -> bool
(** Structural equality; object field {e order} is significant (the
    codec always emits a canonical order, so round-trips compare
    equal). *)
