(** Structured search telemetry: spans, counters, gauges and per-domain
    timers over a pluggable sink.

    The discovery engine is instrumented at every layer — the seven search
    algorithms, the parallel pool and portfolio racer, the heuristic memo
    cache, operator proposal in [Tupelo.Moves]/[Discover] — but telemetry
    is {e opt-in}: every instrumented function takes a {!t} defaulting to
    {!disabled}, and the disabled path performs a single immediate-value
    match per site (no event is constructed, no closure runs), so runs
    without [--trace]/[--metrics] keep the engine's performance and
    determinism contracts untouched.

    {2 Event taxonomy}

    Event names are stable, dot-separated identifiers; the schema is part
    of the public contract (tests parse it):

    - [search.examine] / [search.expand] / [search.generate] — counters
      whose per-run sums equal the [examined]/[expanded]/[generated]
      fields of {!Search.Space.stats} for that run.
    - [search.prune.seen], [search.prune.stale], [search.prune.cycle] —
      counters for duplicate, stale-node and on-path-cycle pruning.
    - [search.frontier] — gauge: frontier size (heap/queue/beam) sampled
      at each expansion or sweep.
    - [search.iteration] — counter: IDA*-family depth-bound iterations.
    - [search.outcome] — message: ["found"], ["exhausted"],
      ["budget_exceeded"] or ["cancelled"], emitted exactly once per
      algorithm run.
    - [pool.task] — counter: one per work-stealing chunk executed (group
      by the event's [domain] for per-domain work counts);
      [pool.batch] — gauge: items per parallel map.
    - [portfolio.entrant] — span around each entrant's run (the span's
      scope is the entrant name); [portfolio.win] / [portfolio.skip] —
      messages for the winning entrant and entrants never started.
    - [memo.hit] / [memo.miss] / [memo.eviction] — heuristic memo-cache
      counters.
    - [heuristic.eval] — timer: wall-clock of heuristic evaluations
      (only cache misses reach it when memoized).
    - [moves.proposed.<op>] / [moves.applied.<op>] — counters of FIRA
      operator instantiations proposed during successor generation and
      applied in the discovered mapping ([<op>] is {!Fira.Op.kind_name}).
    - [successors.hit] / [successors.miss] / [successors.eviction] —
      per-run successor memo counters of the depth-first engines (a miss
      computes successors).
    - [moves.propose] / [moves.apply] — timers: candidate proposal and
      operator application inside one successor computation.
    - [goal.test] — timer: one goal test.
    - [discover] — span around a whole discovery run. *)

(** {1 Events} *)

module Event : sig
  type payload =
    | Counter of { name : string; incr : int }
    | Gauge of { name : string; value : float }
    | Timer of { name : string; elapsed_s : float }
    | Span_begin of { name : string }
    | Span_end of { name : string; elapsed_s : float }
    | Message of { name : string; detail : string }

  type t = {
    at_s : float;  (** seconds since the handle's creation (monotonic) *)
    domain : int;  (** id of the emitting domain *)
    scope : string;  (** e.g. algorithm/entrant name; [""] at top level *)
    payload : payload;
  }

  val name : t -> string
  (** The payload's event name. *)

  val to_json : t -> string
  (** One self-contained JSON object (no trailing newline). Keys, in
      order: ["at"], ["domain"], ["scope"], ["type"], ["name"], then the
      payload field (["incr"], ["value"], ["elapsed_s"] or ["detail"]).
      Strings are escaped per RFC 8259. *)
end

(** {1 Sinks} *)

module Sink : sig
  type t

  val make : ?flush:(unit -> unit) -> (Event.t -> unit) -> t

  val noop : t
  (** Accepts and discards every event. *)

  val tee : t list -> t
  (** Forward each event to every sink in order. *)

  val jsonl : (string -> unit) -> t
  (** [jsonl write] renders each event with {!Event.to_json} followed by
      a newline and passes it to [write], under a mutex (events may come
      from several domains). *)

  val jsonl_channel : out_channel -> t
  (** {!jsonl} writing to a channel; [flush] flushes it. *)

  val emit : t -> Event.t -> unit
  val flush : t -> unit
end

(** {1 In-memory aggregation}

    The sink used by [--metrics], tests and the bench harness: counters
    are summed, gauges keep last/max, timers and spans accumulate count
    and total duration — all keyed by (scope, name), mergeable across
    scopes. Thread-safe. *)

module Agg : sig
  type t

  val create : unit -> t
  val sink : t -> Sink.t

  val events : t -> int
  (** Total events received. *)

  val counter : t -> ?scope:string -> string -> int
  (** Sum of [incr] for counters with this name — within [scope] when
      given, across all scopes otherwise. *)

  val gauge_last : t -> ?scope:string -> string -> float option
  val gauge_max : t -> ?scope:string -> string -> float option

  val timer_count : t -> ?scope:string -> string -> int
  val timer_total_s : t -> ?scope:string -> string -> float
  (** Number of timed sections and their summed wall-clock (timer events
      and completed spans both count). *)

  val rows : t -> (string * string * string) list
  (** Every aggregate as [(scope, metric, rendered value)], sorted —
      counters as ["search.examine"], gauges as ["gauge:…"] (last/max),
      timers and spans as ["timer:…"]/["span:…"] (count/total). The
      stable flattening used by reports and CSV export. *)

  val summary : t -> string
  (** Human-readable per-discovery report of {!rows}. *)
end

(** {1 The instrumentation handle} *)

type t

val disabled : t
(** The default everywhere: every emission site reduces to one match on
    an immediate value; no allocation, no clock read, no sink call. *)

val create : ?scope:string -> Sink.t -> t
(** A live handle stamping events with the given sink and a fresh
    monotonic epoch. *)

val enabled : t -> bool

val with_scope : t -> string -> t
(** Same sink and epoch, different scope ({!disabled} stays disabled). *)

val scope : t -> string
(** [""] when disabled or unscoped. *)

val count : t -> string -> int -> unit
val gauge : t -> string -> float -> unit

val message : t -> string -> (unit -> string) -> unit
(** The detail thunk only runs when enabled. *)

val span : t -> string -> (unit -> 'a) -> 'a
(** Emit [Span_begin]/[Span_end] (the latter with the elapsed wall
    clock) around the call; when disabled, just the call. Exceptions
    propagate after the [Span_end] is emitted. *)

val timed : t -> string -> (unit -> 'a) -> 'a
(** Like {!span} but emits a single [Timer] event on completion — the
    cheap form for hot sections aggregated rather than traced. *)

val timer : t -> string -> elapsed_s:float -> unit
(** Emit a [Timer] with an externally measured duration — for intervals
    that start and end on different threads (e.g. the mapping server's
    queue wait, clocked from submission to dequeue). *)

val flush : t -> unit
