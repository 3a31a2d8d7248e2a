(** Bounded, domain-safe memoization for the search hot path.

    Heuristic values and successor lists depend only on a state's
    canonical key, so searches memoize them by fingerprint: [Discover]
    memoizes heuristic values for every algorithm and successor lists for
    the depth-first ones. Two requirements shape this cache:

    - {b Bounded eviction.} Long runs visit millions of states; the
      cache keeps at most [cap] entries using two generations (a flavor
      of 2Q/SLRU): when the young generation fills, the old one is
      dropped and the young becomes old. Entries used since the last
      flip always survive, so the recent working set is never discarded
      — unlike the previous [Hashtbl.reset]-style full flush.

    - {b Domain safety.} The parallel engine ({!Search.Pool},
      {!Search.Portfolio}) evaluates heuristics on several domains at
      once. Each domain gets its own tables — shared-nothing, so no locks
      on the hot path; a value may be computed once per domain, which is
      redundant work but never a race.

    {b Ownership.} A memo owns its per-domain tables (an atomic list keyed
    by [Domain.self ()]); nothing outside the memo points at them, so they
    are collected with the memo. Create one memo per run: a long-running
    server creates one per request. The tables are not kept in
    [Domain.DLS]: OCaml never frees a DLS slot, so every memo ever
    created would stay live.

    An unreachable memo is not free at once, though. A table that grew
    past 256 words of buckets lives on the major heap, and every young
    entry written into it is a remembered-set root: the next minor
    collection promotes everything the entries reach, whether the memo
    is reachable or not. So each generation starts with a bucket array
    small enough to be young, and a run calls {!clear} when it ends,
    which overwrites the buckets and lets the minor collection drop the
    run's states instead of promoting them. *)

type ('k, 'v) t
(** Keys are hashed and compared with the polymorphic [Hashtbl] primitives;
    any structural key without functional values works — canonical-key
    strings, or the 16-byte {!Relational.Fingerprint.t} records the search
    layer now prefers. *)

val create :
  ?telemetry:Telemetry.t ->
  ?name:string ->
  ?weight:('v -> int) ->
  ?cap:int ->
  unit ->
  ('k, 'v) t
(** [create ~cap ()] bounds the per-domain residency to at most [cap]
    entries (default 200_000). With [weight], residency is the summed
    weight of the resident values instead of their number, and a value
    heavier than [cap / 2] is returned but never cached. With
    [telemetry], every lookup emits a [<name>.hit] or [<name>.miss]
    counter (a hit in either generation counts as a hit) and every
    generation flip a [<name>.eviction] counter; [name] defaults to
    ["memo"], the heuristic memo's counters.
    @raise Invalid_argument if [cap < 2]. *)

val find_or_add : ('k, 'v) t -> 'k -> ('k -> 'v) -> 'v
(** [find_or_add t key compute] returns the cached value for [key] in
    the calling domain's table, computing and caching [compute key] on a
    miss. A hit in the old generation moves the entry to the young one
    (it is never resident in both). *)

val size : ('k, 'v) t -> int
(** Number of entries resident in the calling domain's table (not their
    weight). *)

val evictions : ('k, 'v) t -> int
(** Number of generation flips performed in the calling domain's table
    (each flip drops at most [cap / 2] cold entries). *)

val clear : ('k, 'v) t -> unit
(** [clear t] empties both generations of every domain's table (the
    eviction count stays). Call it when the run that owns [t] ends, once
    no domain uses [t] any more: it overwrites the bucket arrays, so
    entries written into a table already on the major heap no longer
    keep the run's young values alive through the next minor
    collection. [t] stays usable afterwards; a lookup just misses. *)
