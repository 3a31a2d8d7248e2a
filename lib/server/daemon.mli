(** The TUPELO mapping-discovery daemon.

    A long-running HTTP/1.1 + JSON service (stdlib [Unix] + [Thread] +
    [Domain] only) built as a readiness-driven event loop feeding a
    pool of worker threads:

    - One reactor thread owns every socket: non-blocking accept,
      per-connection input buffers out of which each complete request is
      carved ({!Http.carve}) and its body read in place, keep-alive with
      pipelining (responses in request order), and non-blocking buffered
      writes. [/healthz], [/stats], every 4xx and, for a body up to
      64 KiB, its cache hit or 400 are answered directly on the loop —
      they are never queued behind a search.
    - [POST /discover] — body {!Protocol.discover_request}: relations
      inline as CSV. The loop validates the request and computes its
      cache key while tokenizing the CSV, building no relation, and
      consults the sharded {!Cache}; a hit answers immediately. A miss
      is submitted to the bounded {!Admission} queue — full queue means
      an immediate 429 — and executed, its databases built only then,
      by one of [workers] worker threads ({!Tupelo.Discover} with the
      configured [jobs] search domains, warm-started from near-miss
      cache entries) under a per-request deadline enforced through the
      cooperative [stop]/[Cancelled] path. Bodies over 64 KiB are shipped to the
      pool whole, so the loop never JSON-parses a large payload.
    - [POST /discover?anytime=1] — same body, streamed response: a
      chunked sequence of newline-delimited frames (see
      {!Protocol.frame}) — improving incumbents as the search runs,
      then one final frame. The chunked head goes out with the first
      frame, so until then the route answers exactly as the plain one:
      a 400, a content-length cache hit, or the plain error response if
      the worker fails. A search that gives up with a resumable
      engine checkpoint parks it in a bounded, TTL'd {!Frontier} store
      and quotes a single-use [resume_token] in the final frame;
      [POST /discover?resume=<token>] redeems it and continues the
      search where it stopped (404 for unknown/expired/replayed
      tokens). Requests with a [partial] relation list search toward
      that sub-target and bypass the mapping cache both ways.
    - [GET /healthz] — liveness.
    - [GET /stats] — a JSON snapshot whose counters are read from the
      same telemetry aggregate that backs the [--trace] sink, so the
      numbers reconcile exactly with an aggregated trace. Includes an
      [anytime] section (incumbents streamed, resume requests, frontier
      retention/eviction counters) and [telemetry.events], the number of
      events that aggregate has received. A [gc] object holds the
      runtime's gauges, read by [Gc.quick_stat] when the snapshot is
      taken rather than from the aggregate: [minor_collections],
      [major_collections], [promoted_words] and [heap_words],
      process-wide, each domain's share as of its last minor
      collection. [promoted_words] includes what a finished search
      leaves young and alive for the worker's post-job minor collection,
      so a per-request average that grows points at search state kept
      reachable past its run.

    Error mapping: malformed HTTP or JSON → 400, a partial request
    older than [read_timeout_ms] (slow loris) → 408 and close,
    oversized payload → 413, full queue → 429, shutting down → 503,
    unknown route → 404.

    Shutdown ({!stop}, or SIGTERM/SIGINT under {!run}) is graceful and
    signalled through a self-pipe: stop accepting, stop reading, let every
    request already read or queued finish and flush, close every
    connection, join the pool, flush telemetry. *)

type config = {
  host : string;  (** bind address, default ["127.0.0.1"] *)
  port : int;  (** 0 picks an ephemeral port (see {!port}) *)
  queue_capacity : int;  (** admission bound; beyond it requests get 429 *)
  workers : int;
      (** concurrent discovery searches: worker threads, packed onto at
          most [cores - 1] domains (see {!start}) *)
  jobs : int;  (** search domains per request (when the request says 0) *)
  budget : int;  (** cap on any request's states-examined budget *)
  timeout_ms : int;  (** default per-request search deadline *)
  read_timeout_ms : int;
      (** reactor-side deadline for completing a partially received
          request; a connection that dribbles a header slower than this
          gets 408 and is closed *)
  max_payload : int;  (** request-body and per-relation CSV byte limit *)
  cache_capacity : int;  (** LRU entries in the mapping cache, all shards *)
  cache_shards : int;  (** independent LRU shards (see {!Cache}) *)
  frontier_capacity : int;
      (** retained resume checkpoints (see {!Frontier}); beyond it the
          oldest checkpoint is evicted *)
  frontier_ttl_ms : int;
      (** how long an unredeemed resume token stays valid *)
  search_telemetry : bool;
      (** when true (default) and a [trace_sink] is attached, the full
          search-engine event stream of every executed discovery flows
          to it; when false only server-level events do (compact traces
          under load). Without a sink no search event is emitted at all:
          [/stats] reads none of them, so the searches run on
          {!Telemetry.disabled}. *)
  trace_sink : Telemetry.Sink.t option;
      (** external sink, e.g. the [--trace] JSONL file; the daemon tees
          an internal aggregate behind the same events for [/stats] *)
}

val config :
  ?host:string ->
  ?port:int ->
  ?queue_capacity:int ->
  ?workers:int ->
  ?jobs:int ->
  ?budget:int ->
  ?timeout_ms:int ->
  ?read_timeout_ms:int ->
  ?max_payload:int ->
  ?cache_capacity:int ->
  ?cache_shards:int ->
  ?frontier_capacity:int ->
  ?frontier_ttl_ms:int ->
  ?search_telemetry:bool ->
  ?trace_sink:Telemetry.Sink.t ->
  unit ->
  config
(** Defaults: 127.0.0.1:8080, queue 64, 2 workers, 1 job,
    one-million state budget cap, 30s search timeout, 10s read timeout,
    8 MiB payloads, 256 cache entries in 8 shards, 32 retained
    frontiers with a 5-minute TTL, search telemetry on (it takes
    effect only once a [trace_sink] is given), no external sink.
    @raise Invalid_argument on non-positive capacities/workers/limits. *)

(** {1 Admission} *)

type admitted
(** A [/discover] request that passed every check, with its cache key
    and shard route; its databases are not built yet. *)

val admit : config -> Protocol.discover_request -> (admitted, string) result
(** Validate a decoded request — each relation's CSV (as
    [Relational.Csv.parse_relation ~max_bytes:max_payload] would), its
    relation names (non-empty, none listed twice on one side), semfuns,
    algorithm, heuristic, goal mode and partial relations, in that
    order — and compute its key while tokenizing the CSV
    ({!Relational.Fingerprint.of_csv}). [Error] carries the 400 message;
    a CSV error reads ["source relation \"R\": "] followed by
    [parse_relation]'s message. The server runs this on the event loop,
    and builds the databases only after a cache miss. *)

val admitted_key : admitted -> Cache.key * Cache.route
(** Equal to [(Fingerprint.of_database source, Fingerprint.of_database
    target)] and [Cache.route_of_pair ~source ~target] of the databases
    the request describes. *)

(** {1 Lifecycle} *)

type t

val start : config -> t
(** Bind, listen, spawn the reactor thread and the [workers] worker
    threads, spread over [max 1 (min workers (cores - 1))] domains so
    that no more domains run busy than there are cores; returns once
    the socket is accepting.
    @raise Unix.Unix_error if binding fails. *)

val port : t -> int
(** The bound port (useful with [port = 0]). *)

val cache : t -> Cache_entry.t Cache.t
(** The live mapping cache (read-mostly introspection for tests and
    the bench harness). *)

val stats_json : t -> string
(** The [GET /stats] body. *)

val request_stop : t -> unit
(** Begin shutdown without waiting: flips the shutdown flag and wakes
    both the reactor and {!await_stop_request}. Safe to call from a
    signal handler; idempotent. *)

val await_stop_request : t -> unit
(** Block until {!request_stop} has been called (self-pipe). Returns
    immediately if it already has. The wait wakes every 200 ms so that
    a signal the kernel delivered to another thread still gets its
    OCaml handler run. Must not be called after {!stop} has returned. *)

val stop : t -> unit
(** Graceful shutdown as described above; idempotent, returns when the
    reactor and all worker domains are joined and telemetry is
    flushed. *)

val run : ?on_ready:(t -> unit) -> config -> unit
(** {!start}, install SIGTERM and SIGINT handlers that {!request_stop},
    call [on_ready] (default: nothing), block until a stop is requested,
    then {!stop} and restore the previous handlers. [on_ready] is where
    a caller announces the server (e.g. prints its port): it runs only
    once the handlers are in place, so a signal sent in response to the
    announcement drains the server instead of killing the process. *)
