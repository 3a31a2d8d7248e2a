(** A shared-nothing worker pool on OCaml 5 domains, with work stealing.

    Built for the parallel frontier expansion of {!Frontier_search}'s
    beam and A*: a frontier's successor generation and heuristic scoring
    fan out across domains while goal tests and deduplication stay
    sequential and deterministic (see DESIGN.md, "Parallel engine").

    A pool of [domains] workers spawns [domains - 1] long-lived domains;
    the caller of {!parallel_map} participates as the remaining worker,
    so an idle pool consumes no CPU. Tasks are dealt onto per-worker
    deques and idle workers steal from their neighbours, which keeps the
    pool busy when items have uneven cost (successor lists of different
    fan-out, heuristics of different instance sizes). *)

type t

val create : ?telemetry:Telemetry.t -> ?domains:int -> unit -> t
(** [create ~domains ()] builds a pool of [domains] total workers
    (default {!Domain.recommended_domain_count}, clamped to [1, 128]).
    With [telemetry], every executed work-stealing chunk emits a
    [pool.task] counter (stamped with the executing domain, giving
    per-domain work counts) and every parallel map a [pool.batch] gauge.
    @raise Invalid_argument if [domains < 1]. *)

val size : t -> int
(** Total workers, including the calling domain. *)

val parallel_map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map pool f xs] is [Array.map f xs] computed across the
    pool's domains. Result order is that of [xs] regardless of
    execution order. [f] must be domain-safe (no unsynchronized shared
    mutation). If any application raises, one such exception is
    re-raised in the caller after the batch drains. Not re-entrant: a
    pool runs one batch at a time, and [f] must not itself call into
    the same pool. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** List analogue of {!parallel_map}, preserving order. *)

val shutdown : t -> unit
(** Join the worker domains. The pool must not be used afterwards. *)

val with_pool : ?telemetry:Telemetry.t -> ?domains:int -> (t -> 'a) -> 'a
(** [with_pool f] runs [f] with a fresh pool and always shuts it down. *)

val default_domains : unit -> int
(** {!Domain.recommended_domain_count}, clamped to [1, 128]. *)
