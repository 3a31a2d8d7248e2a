(** Sharded, fingerprint-keyed LRU mapping cache.

    The server's memory across requests: discovered mappings keyed by
    the [(source, target)] pair of {!Relational.Fingerprint}s of the
    critical instances. Fingerprints are order-independent and
    collision-resistant (see [lib/relational/fingerprint.mli]), so a
    re-submitted instance pair — same rows, any order, any CSV
    formatting — hits, while perturbing a single cell misses.

    The cache is split into [shards] independent exact-LRU shards, each
    with its own mutex, hash table, recency list and counters, so
    concurrent hit-path lookups from different domains contend only
    when they touch the same shard. Within a shard: [find] promotes,
    [add] evicts that shard's least-recently-used entry when the shard
    is over its share of the capacity. All operations are
    thread/domain-safe and O(1) modulo hashing.

    Shard routing uses a {!route} — a hash of the pair's {e schema}
    terms only ({!route_of_pair}). Because row perturbations leave the
    schemas unchanged, a drifted probe routes to the same shard as the
    entry it could warm from, which is what lets {!find_near} stay
    confined to a single shard. Callers that have neither a route nor a
    sketch fall back to key-hash routing — fine for exact lookups, but
    such entries should not be expected to be found by near-miss
    probes when [shards > 1].

    Near-miss reuse: entries added with a {!sketch} — the unsummed,
    row-granular fingerprint terms of the instance pair — additionally
    participate in {!find_near}, which scans the probe's owning shard
    for the closest cached pair under normalized symmetric-difference
    distance. The daemon seeds discovery with the found entry's
    normalized program (a warm start) when the exact lookup misses.

    Telemetry: [cache.hit] / [cache.miss] / [cache.evict] /
    [cache.warm] counters are emitted inside the same per-shard
    critical section that updates the corresponding totals, so the
    (summed) counters below always reconcile exactly with an aggregated
    trace. *)

open Relational

type key = Fingerprint.t * Fingerprint.t  (** (source, target) *)

type route
(** A shard-routing token derived from the instance pair's schemas.
    Stable under row perturbation, asymmetric in (source, target). *)

val route_of_pair : source:Database.t -> target:Database.t -> route
(** Cheap relative to sketching: hashes one schema fingerprint per
    relation, touching no rows. *)

val route : source:int -> target:int -> route
(** {!route_of_pair} from each side's sum of
    [Fingerprint.hash (Fingerprint.of_schema ~rel schema)] over its
    relations, for a caller that has the schema terms but no database. *)

type sketch
(** Row-granular term multisets of an instance pair: the same schema and
    row terms {!Relational.Fingerprint.of_database} would sum, kept
    unsummed so two pairs can be diffed term by term. Carries its own
    {!route}. *)

val sketch_of_pair : source:Database.t -> target:Database.t -> sketch

val sketch_route : sketch -> route

val sketch_distance : sketch -> sketch -> float
(** Normalized symmetric difference over both sides, in [0, 1]: [0] for
    identical pairs, [1] when no term is shared. A one-cell perturbation
    of one relation moves one row term per side it touches, so drifted
    pairs land strictly below [1] while unrelated pairs (no shared
    schema or rows) land at [1]. *)

type 'a t

val create :
  ?telemetry:Telemetry.t -> ?shards:int -> capacity:int -> unit -> 'a t
(** [shards] defaults to [1] (a single classic LRU). [capacity] is the
    total across shards, rounded up to a multiple of [shards] (each
    shard holds at most ⌈capacity/shards⌉ entries).
    @raise Invalid_argument if [capacity < 1] or [shards < 1]. *)

val shards : 'a t -> int

val shard_of : 'a t -> ?route:route -> key -> int
(** The shard index the given routing information selects — [route]
    when provided, the key's own hash otherwise. Exposed so tests can
    construct entries that provably share (or don't share) a shard. *)

val find : 'a t -> ?valid:('a -> bool) -> ?route:route -> key -> 'a option
(** Look up and promote to most-recently-used within the owning shard.
    An entry present but rejected by [valid] (default: accept) counts —
    and is reported — as a miss and is not promoted; the server uses
    this to serve only cache entries whose goal mode matches the
    request's. [route] must match what the entry was added under
    (callers that always pass a {!route_of_pair}-derived route, or
    never pass one, are consistent by construction). *)

val find_near :
  'a t -> ?valid:('a -> bool) -> max_dist:float -> sketch -> ('a * float) option
(** The [valid], sketch-bearing entry closest to the probe, if its
    normalized {!sketch_distance} is strictly below [max_dist]
    ([max_dist = 1.0] accepts any entry sharing at least one term).
    Confined to the shard the probe's route selects — entries in other
    shards are never considered (nor could they be close: a different
    route means different schema terms). Does not promote and is not
    counted as a hit or a miss — recency order and the hit/miss totals
    are exactly what the exact-key traffic produced; a successful call
    counts [cache.warm] instead. O(capacity/shards) scan under the
    owning shard's lock. *)

val add : 'a t -> ?sketch:sketch -> ?route:route -> key -> 'a -> unit
(** Insert or replace as most-recently-used in the owning shard; evicts
    that shard's LRU entry when the shard would exceed its share of the
    capacity. The route is taken from [route], else from [sketch], else
    from the key's hash. Entries added without [sketch] are invisible
    to {!find_near}. *)

val length : 'a t -> int
val capacity : 'a t -> int

val hits : 'a t -> int
val misses : 'a t -> int
val evictions : 'a t -> int
(** Totals summed across shards. *)

val warms : 'a t -> int
(** Number of successful {!find_near} probes, summed across shards. *)

val keys_lru_first : ?shard:int -> 'a t -> key list
(** Current keys, least-recently-used first — of one shard when [shard]
    is given, else the per-shard lists concatenated in shard order (for
    tests). *)
