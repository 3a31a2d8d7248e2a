(** Minimal RFC-4180-style CSV reader/writer.

    Used for loading critical instances from files (the CLI accepts one CSV
    per relation) and for exporting mapping results. Supports quoted fields
    with embedded commas, quotes and newlines.

    Two reading modes share one state machine: {!parse} materializes a
    whole document, while {!Stream}/{!fold_rows}/{!fold_channel} push rows
    to a callback as bytes arrive — the bulk-migration ingest path, which
    must read relations far larger than memory-bounded wire payloads. *)

exception Error of string

(** Incremental push parser. [feed] accepts arbitrary byte chunks — a
    quoted field, an escaped quote or a CRLF pair may be split across
    chunk boundaries — and invokes [on_row] once per completed row.
    [finish] flushes a final unterminated row and rejects an unclosed
    quote. *)
module Stream : sig
  type t

  val create_fields :
    ?max_bytes:int ->
    on_field:(string -> int -> int -> unit) ->
    on_row_end:(unit -> unit) ->
    unit ->
    t
  (** The tokenizer itself. [on_field s off len] receives each field as
      the slice [s.[off] .. s.[off + len - 1]], then [on_row_end ()] ends
      its row. An unquoted field without CR that lies inside one fed
      chunk is a slice of that chunk, not a copy; any other field is
      assembled first. The slice is valid only during the call: copy
      what must outlive it. [max_bytes] bounds the {e cumulative} bytes
      fed; exceeding it raises {!Error}.
      @raise Invalid_argument if [max_bytes < 0]. *)

  val create : ?max_bytes:int -> on_row:(string list -> unit) -> unit -> t
  (** {!create_fields} with each row's fields copied into a list. *)

  val feed : ?off:int -> ?len:int -> t -> string -> unit
  (** Consume [len] bytes of [input] starting at [off] (defaults: the
      whole string). @raise Error on malformed CSV or an oversized
      cumulative input. @raise Invalid_argument after {!finish} or on a
      bad substring. *)

  val finish : t -> unit
  (** Flush the trailing row, if any. Idempotent.
      @raise Error on an unterminated quoted field. *)
end

val fold_rows : ?max_bytes:int -> ('a -> string list -> 'a) -> 'a -> string -> 'a
(** [fold_rows f init doc] folds [f] over the rows of [doc] in order
    without materializing the row list. Same [max_bytes] contract as
    {!parse}. *)

val fold_channel :
  ?max_bytes:int -> ?chunk_bytes:int -> ('a -> string list -> 'a) -> 'a -> in_channel -> 'a
(** Like {!fold_rows} but reads the channel to EOF through a reused
    [chunk_bytes]-sized buffer (default 64 KiB), so memory stays bounded
    by the chunk size plus one row regardless of document size. *)

val parse : ?max_bytes:int -> string -> string list list
(** Parse a CSV document into rows of fields. Rows may have differing
    lengths; a trailing newline is tolerated. With [max_bytes], inputs
    longer than that are rejected with a clear {!Error} before any
    parsing work — the guard for untrusted payloads (e.g. relations
    supplied inline over the mapping server's wire protocol). @raise
    Error on unterminated quotes or an oversized input.
    @raise Invalid_argument if [max_bytes < 0]. *)

val iter_relation :
  ?max_bytes:int ->
  on_header:(Schema.t -> unit) ->
  on_cell:(int -> string -> int -> int -> unit) ->
  on_row:(unit -> unit) ->
  string ->
  unit
(** [iter_relation ~on_header ~on_cell ~on_row doc] reads [doc] as a
    relation without building it: [on_header] gets the schema of the
    first row, then for each later row [on_cell i s off len] gets the
    cell of column [i] as a {!Stream.create_fields} slice, for every [i]
    in order (cells past the header's width are dropped, missing ones
    are empty slices), and [on_row ()] ends the row. Duplicate rows are
    all reported. Errors are {!parse_relation}'s, raised in the same
    order: a syntax error anywhere before a bad header. *)

val parse_relation : ?max_bytes:int -> string -> Relation.t
(** First row is the header; remaining rows are tuples, cells parsed with
    {!Value.of_string_guess}. Short rows are padded with nulls.
    [max_bytes] bounds the raw document as in {!parse}.
    @raise Error on an empty document, duplicate header names or an
    oversized input. *)

val add_row : Buffer.t -> string list -> unit
(** Append one CSV line (fields quoted as needed, ['\n']-terminated) to
    [buf]. The streaming write primitive: emit loops reuse one buffer
    and flush it to a channel when it fills. *)

val print : string list list -> string
(** Render rows as CSV, quoting fields when needed. *)

val print_relation : Relation.t -> string
(** Header line then one line per tuple. *)
