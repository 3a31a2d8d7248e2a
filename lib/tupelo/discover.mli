(** End-to-end mapping discovery — the TUPELO system (§2).

    Given critical instances of the source and target schemas (the Rosetta
    Stone principle: the same information under both schemas) and any
    articulated complex semantic functions, [discover] searches the
    transformation space of ℒ from the source instance until a state
    containing the target is reached, and returns the operator path as an
    executable mapping. *)

open Relational

type algorithm =
  | Ida
  | Ida_tt  (** IDA* with a transposition table — an extension beyond the
                paper (see [Search.Ida], [~table]) *)
  | Rbfs
  | Astar
  | Greedy
  | Beam of int
      (** beam search with the given width — incomplete but O(width)
          memory; an extension beyond the paper (see
          [Search.Frontier_search]) *)
  | Bfs
  | Portfolio
      (** race a curated set of (algorithm × heuristic) entrants across
          [jobs] domains and keep the first mapping found, cancelling the
          rest (see [Search.Portfolio]); the reported stats sum the work
          of every entrant that ran *)

val algorithm_name : algorithm -> string

val algorithm_of_string : string -> algorithm option
(** Total inverse of {!algorithm_name} — [algorithm_of_string
    (algorithm_name a) = Some a] for every [a] (property-tested) — plus
    the historical spellings ("beam:8", "ida-tt", "astar", any case). *)

val scaling_for : algorithm -> Heuristics.Heuristic.Scaling.constants
(** The paper's tuned scaling constants: IDA's for {!Ida}, {!Ida_tt} and
    the baselines (including {!Beam}), RBFS's for {!Rbfs} (§5,
    Experimental Setup). *)

type config = {
  algorithm : algorithm;
  heuristic : Heuristics.Heuristic.t;
  goal : Goal.mode;
  partial : string list;
      (** partial goal: restrict discovery to this subset of target
          relations ([[]] = the whole target). The target database is
          filtered before the goal test, move generator and heuristic
          profile see it, so the search works toward the sub-target
          only. Combine with {!Goal.Schema} for the coarsest
          multiresolution answer: reach just the named relations'
          structure. *)
  budget : int;  (** maximum states examined before giving up *)
  moves : Moves.config;
  jobs : int;
      (** number of domains for the parallel engine: [Beam]/[Astar] use a
          {!Search.Pool} of this size for frontier expansion, {!Portfolio}
          races entrants on this many domains; 1 = fully sequential *)
  telemetry : Telemetry.t;
      (** instrumentation handle (default {!Telemetry.disabled}). A live
          handle receives a [discover] span around the run, the standard
          search events from the chosen algorithm (scoped by algorithm
          name, or entrant name under {!Portfolio}), [heuristic.eval]
          timers and [memo.*] counters from heuristic evaluation,
          [moves.proposed.<op>]/[moves.applied.<op>] operator counters
          ([moves.proposed.*] counts every expansion, memoized or not),
          [successors.hit]/[successors.miss] counters from the per-run
          successor memo of the depth-first engines (IDA*, IDA+TT, RBFS;
          a miss is one real successor computation),
          [moves.propose]/[moves.apply] timers around candidate proposal
          and operator application on each miss, a [goal.test] timer per
          goal test, and [pool.*]/[portfolio.*] events from the parallel
          engine.
          The handle's sink is flushed before [discover] returns. *)
}

val config :
  ?algorithm:algorithm ->
  ?heuristic:Heuristics.Heuristic.t ->
  ?goal:Goal.mode ->
  ?partial:string list ->
  ?budget:int ->
  ?moves:Moves.config ->
  ?jobs:int ->
  ?telemetry:Telemetry.t ->
  unit ->
  config
(** Defaults: RBFS (the paper's overall best, §5.4), cosine similarity with
    the algorithm's tuned k, {!Goal.Superset}, the whole target
    ([partial = []]), a one-million-state budget, {!Moves.default} for the
    goal mode, [jobs = 1] and telemetry disabled.
    @raise Invalid_argument if [jobs < 1]. *)

type outcome =
  | Mapping of Mapping.t
  | No_mapping of Search.Space.stats
      (** the (budgeted) space was exhausted with no goal state *)
  | Gave_up of Search.Space.stats  (** budget exceeded *)

val discover :
  ?registry:Fira.Semfun.registry ->
  ?stop:(unit -> bool) ->
  ?warm_start:Fira.Op.t list ->
  config ->
  source:Database.t ->
  target:Database.t ->
  outcome
(** [stop] (default: never) is an external cancellation signal polled
    cooperatively by the running algorithm — a per-request deadline or
    server shutdown, say. When it fires, the run winds down through the
    algorithms' [Cancelled] path (under {!Portfolio} the whole race is
    cancelled, see {!Search.Portfolio.race}) and [discover] reports
    {!Gave_up} with honest partial stats.

    [warm_start] (default: none) seeds the search with a program believed
    close to a solution — typically the normalized cached mapping of a
    near-miss pair (see [Server.Cache.find_near]). The longest applicable
    prefix is applied to the source (stopping early if the goal is
    reached or the cell bound would be exceeded) and the search runs from
    the resulting state; the prefix is prepended to any discovered path,
    so the returned mapping still replays from the original source. A
    live telemetry handle receives the prefix length as the
    [discover.warm_ops] counter. *)

val states_examined : outcome -> int
(** The paper's reported metric, whatever the outcome. *)

(** {1 Anytime discovery}

    The multiresolution layer: a discovery run streams improving
    incumbents while it searches, and a blown budget (or cancellation)
    checkpoints a resumable frontier instead of discarding the work. *)

type incumbent = {
  inc_ops : Fira.Op.t list;
      (** operator path from the original source (warm prefix included) *)
  inc_cost : int;  (** [List.length inc_ops] *)
  inc_h : int;  (** scaled heuristic estimate; 0 for the final mapping *)
  inc_coverage : Goal.coverage list;  (** per target relation *)
  inc_covered : int;  (** summed covered units *)
  inc_total : int;  (** summed total units *)
  inc_entrant : string;
      (** provenance: the algorithm (or portfolio entrant) that examined
          the state *)
  inc_seq : int;  (** states observed across the run when reported *)
}
(** A reported incumbent: the best state seen so far. The stream is
    monotone by construction — [inc_covered] never decreases and [inc_h]
    never increases from one report to the next (property-tested). *)

type frontier = {
  fr_algorithm : algorithm;
      (** the algorithm that checkpointed (resume continues it) *)
  fr_nodes : Fira.Op.t list list;
      (** open-node paths from the warm-started root (prefix-free), in
          the order the engine would have considered them; capped at
          {!frontier_nodes_cap}. Kept prefix-free so the engines'
          recomputed g values (path lengths) agree with [fr_closed]'s. *)
  fr_prefix : Fira.Op.t list;
      (** the warm prefix in force when the checkpoint was taken ([[]]
          for a cold search): re-applied to the source on resume before
          the node paths replay, and prepended to any mapping the
          resumed run reports *)
  fr_closed : (Relational.Fingerprint.t * int) list;
      (** dedup-table transplant (key, best g, relative to the
          warm-started root); capped at 200k entries — overflow only
          costs re-exploration, never correctness *)
  fr_checked : int;  (** beam: head nodes already goal-tested *)
}
(** A serializable checkpoint of an interrupted search (see
    {!frontier_to_string}). States are not stored; a resume re-applies
    [fr_prefix] to the source and replays each node path from the
    resulting root under the move generator's syntactic semantics,
    reconstructing bit-identical states.

    A checkpoint whose open list overflowed {!frontier_nodes_cap} is
    {e best-effort}: the dropped nodes' parents are already closed, so
    a resumed run may not re-derive them (their dedup entries are
    released so re-derivation is at least admitted). Resume exactness —
    and a resumed [No_mapping]'s definitiveness — are only guaranteed
    for un-truncated checkpoints ([List.length fr_nodes <
    frontier_nodes_cap]). *)

val frontier_nodes_cap : int
(** Retention bound on [fr_nodes] (512): a checkpoint keeps at most
    this many open-node paths, best-first, and is best-effort beyond
    it. *)

val frontier_closed_cap : int
(** Retention bound on [fr_closed] (200k entries): overflow only costs
    re-exploration, never correctness. *)

type anytime = {
  a_outcome : outcome;
      (** bit-identical to what {!discover} returns for the same
          configuration and budget — observation never perturbs the
          search (property-tested) *)
  a_incumbent : incumbent option;
      (** the last (best) incumbent, [None] only if nothing was observed *)
  a_frontier : frontier option;
      (** on {!Gave_up} with a frontier-based algorithm (A*, greedy,
          beam, BFS; pooled or not), the checkpoint to continue from;
          [None] when pooled A* returns its incumbent instead, and for
          the DFS algorithms (IDA*, IDA+TT, RBFS),
          whose implicit frontier is not materialized — resuming them
          restarts from the source *)
}

val discover_anytime :
  ?registry:Fira.Semfun.registry ->
  ?stop:(unit -> bool) ->
  ?warm_start:Fira.Op.t list ->
  ?on_incumbent:(incumbent -> unit) ->
  ?resume:frontier ->
  config ->
  source:Database.t ->
  target:Database.t ->
  anytime
(** {!discover} with the anytime layer switched on. [on_incumbent] fires
    on each improving incumbent, in order, from whatever domain examined
    the state (reports are serialized under a lock, so the callback never
    runs concurrently with itself); under {!Portfolio} the stream merges
    every entrant's observations and stays monotone. [resume] continues a
    checkpointed search: the frontier's algorithm overrides
    [config.algorithm], its warm prefix is re-applied to [source], its
    open nodes are replayed from the resulting root and its dedup table
    transplanted, so budget B then resume with budget B' examines the
    same states as one run with budget B + B' (exact for sequential
    greedy/A*/beam/BFS, warm-started or not, whenever the checkpoint's
    open list fit {!frontier_nodes_cap}). [warm_start] is ignored
    when [resume] is given — the checkpoint's own [fr_prefix] governs. A
    live telemetry handle receives [discover.incumbents] per report and
    [discover.resume.dropped] per no-longer-applicable resume path. *)

val frontier_to_string : frontier -> string
(** Line-based text form: operators in the mapping parser's
    round-trippable ASCII, closed keys as hex fingerprints. *)

val frontier_of_string : string -> (frontier, string) result
(** Inverse of {!frontier_to_string} (first error otherwise). *)
