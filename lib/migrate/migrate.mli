(** Bulk migration: streaming, chunked, multi-domain execution of ℒ
    programs over the interned columnar representation.

    Discovery runs on small critical instances; the discovered program is
    only useful once executed against full production data. This module
    is that execution layer: relations are held as lists of bounded-size
    columnar chunks ({!Irel.t}), each operator of a {!Fira.Expr.t} is
    applied chunk-parallel across domains (reusing {!Search.Pool}), and
    CSV flows in and out as streams, so peak memory tracks the chunk
    size — never the instance size — on the ingest and emit paths.

    {2 Chunk-merge semantics}

    Per-row operators (ρ/↓/→/λ/π̄) apply to each chunk independently.
    The others run the {!Irel} kernel of the sequential operator over the
    chunk list: σ compiles its predicate once ({!Irel.select_chunks}); ↑
    gives every chunk the same fresh columns, in first-seen order across
    chunks, and writes each chunk copy-on-write ({!Irel.promote_chunks});
    µ groups rows across chunks by the key value's printed form
    ({!Irel.merge_chunks}: a repeated key becomes its lub row unless a
    column conflicts, and only then runs the greedy fixpoint); ℘ groups
    them by the key value; − indexes the right side's rows once and
    probes the index from every left chunk ({!Irel.diff_chunks}); ∪
    appends the right chunks aligned to the left's column order
    ({!Irel.align}); and ⋈ coalesces both sides and runs {!Irel.join}.
    Chunks stay canonical internally but may duplicate rows {e across}
    chunks; {!Cdb.to_idb} performs the final global canonicalization.
    The result is equal, id for id, to sequential {!Fira.Eval} —
    property-tested over random (DB, program) pairs of Table 1
    operators, and over random relation pairs for ∪ − ⋈ σ. See
    DESIGN.md, "Bulk migration". *)

open Relational

exception Error of string
(** Inapplicable step or malformed input, with the same reason phrasing
    as {!Fira.Eval} ("migrate: <op> inapplicable: no relation ..."). *)

exception Cancelled
(** Raised by {!run} and {!ingest_channel} when [stop] returns [true]. *)

(** {1 Chunked databases} *)

module Cdb : sig
  type t
  (** Relation-name ids bound to chunk lists, name-sorted like {!Idb.t}.
      Each chunk is internally canonical; rows may repeat across chunks
      (global deduplication is deferred to {!to_idb}). *)

  val empty : t
  val names : t -> int list
  val mem : t -> int -> bool

  val rows : t -> int
  (** Physical rows summed over chunks (cross-chunk duplicates counted). *)

  val cells : t -> int
  val chunk_count : t -> int

  val chunks : t -> int -> Irel.t list
  (** The chunks bound to a relation-name id, in order; a rowless
      relation has one empty chunk. @raise Not_found when unbound. *)

  val of_idb : chunk_rows:int -> Idb.t -> t
  (** Slice each relation into chunks of at most [chunk_rows] rows. *)

  val of_database : chunk_rows:int -> Database.t -> t

  val to_idb : t -> Idb.t
  (** Concatenate and canonicalize each relation — the final global
      sort/dedup of a migration ({!Irel.concat}). Single-chunk relations
      are passed through untouched, chunks already in order are joined
      column by column, and others are canonicalized as columns. *)

  val to_database : t -> Database.t
end

val cexplain_inapplicable :
  Fira.Semfun.registry -> Fira.Op.t -> Cdb.t -> string option
(** The applicability check over a chunked database: the preconditions
    and reason strings of {!Fira.Eval.explain_inapplicable} ([None] when
    the operator applies). {!run} raises {!Error} with this reason. *)

(** {1 Configuration} *)

type config = {
  chunk_rows : int;  (** target rows per chunk *)
  jobs : int;  (** domains for chunk-parallel application *)
  semantics : [ `Full | `Syntactic ];  (** λ evaluation, as {!Fira.Eval} *)
  telemetry : Telemetry.t;
  stop : unit -> bool;  (** cooperative cancellation, polled between ops *)
}

val config :
  ?chunk_rows:int ->
  ?jobs:int ->
  ?semantics:[ `Full | `Syntactic ] ->
  ?telemetry:Telemetry.t ->
  ?stop:(unit -> bool) ->
  unit ->
  config
(** Defaults: [chunk_rows = 65536], [jobs = Search.Pool.default_domains ()],
    [`Full] semantics, disabled telemetry, never stop.
    @raise Invalid_argument if [chunk_rows < 1] or [jobs < 1]. *)

(** {1 Execution} *)

type stats = {
  rows_in : int;
  rows_out : int;
  row_visits : int;
      (** Σ over applied operators of input rows — the rows/sec basis. *)
  chunks_in : int;
  chunks_out : int;
  ops : int;
  elapsed_s : float;
}

val run :
  ?registry:Fira.Semfun.registry -> config -> Fira.Expr.t -> Cdb.t -> Cdb.t * stats
(** Apply the program operator by operator, each chunk-parallel across
    [jobs] domains. Emits telemetry per operator: [migrate.rows] /
    [migrate.chunk] counters (input rows/chunks) and a
    [migrate.op.<kind>] timer, all inside a [migrate] span.
    @raise Error when a step is inapplicable: the {!Fira.Applicability}
    check over the chunked form, so the reason string is
    {!Fira.Eval.explain_inapplicable}'s. ℘ names each group by its key
    value's printed form.
    @raise Cancelled when [stop] fires between operators or phases. *)

val run_idb :
  ?registry:Fira.Semfun.registry -> config -> Fira.Expr.t -> Idb.t -> Idb.t * stats
(** [run] wrapped in {!Cdb.of_idb}/{!Cdb.to_idb}; the canonicalization
    is included in [elapsed_s]. *)

(** {1 Streaming CSV} *)

val ingest_channel : config -> Cdb.t -> name:string -> in_channel -> Cdb.t
(** Read one relation (header then data rows) to EOF through the field
    slices of {!Csv.Stream.create_fields}, writing each cell's value id
    straight into the current chunk's columns — no row lists, no boxed
    rows, no whole-document string. Each chunk of at most [chunk_rows]
    rows is canonicalized by {!Irel.of_cols}; its columns start small
    and double up to [chunk_rows]. Short rows are padded with nulls, long
    rows truncated, cells parsed with {!Value.of_string_guess} (all
    exactly as {!Csv.parse_relation}). A memo local to the ingest maps
    a cell's bytes to its value id when the bytes are the value's
    printed form; any other cell ("007", "1e3", "NULL") is guessed every
    time. A miss interns the cell there and then, so value ids are
    issued in row-major first-seen order, exactly as without the memo,
    and the chunks are id for id those of the row-list ingest. Emits
    [migrate.ingest.rows] telemetry.
    @raise Error when [cdb] already binds [name], and on an empty
    document, an empty attribute name or a duplicate header attribute.
    @raise Cancelled when [stop] fires between chunks. *)

val emit_channel : config -> out_channel -> Irel.t -> unit
(** Write header and rows as CSV through one reused buffer flushed as it
    fills. Cells render via the interned printed form ({!Value.to_string}
    equivalent). Emits [migrate.emit.rows] telemetry. *)
