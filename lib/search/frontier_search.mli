(** Best-first frontier search: greedy, BFS, A* and beam as one loop.

    The four differ only in how the frontier is ordered and pruned:
    - {!Greedy}: a heap ordered by h alone. An ablation baseline — fast
      and memory-hungry, with no cost guarantee.
    - {!Bfs}: a heap ordered by depth; {!Heap} breaks ties by insertion
      order, so it pops first-in first-out. With unit edge costs BFS
      returns a shortest path, so the test suite uses it as the
      optimality oracle for IDA* and RBFS.
    - {!Astar}: a heap ordered by f = g + h that reopens a key when a
      strictly smaller g reaches it (the heuristics here are generally
      inadmissible). Not used by the paper's reported experiments — its
      exponential memory is why the authors moved to IDA*/RBFS (§2.3) —
      but with an admissible heuristic its cost is optimal, which the
      tests use to validate IDA* and RBFS.
    - [Beam w]: a level sweep that keeps the [w] best states by g + h at
      each depth. Memory is O(w), like the paper's linear-memory
      algorithms, but a too-narrow beam can discard every path to the
      goal: its [Exhausted] is {e not} a proof that no mapping exists.
      An ablation point for §7's "further investigation of search
      techniques".

    Every policy shares one dedup table (each key is expanded at most
    once, except for A*'s reopening), one budget seam, one [watch]
    observation and one checkpoint/resume path. The paper's IDA* and
    RBFS, and IDA+TT, are separate ({!Ida}, {!Rbfs}). *)

type policy = Greedy | Bfs | Astar | Beam of int

module Make (S : Space.S) : sig
  module Keys : Hashtbl.S with type key = S.Key.t
  (** Tables keyed by state identity. *)

  val search :
    ?stop:(unit -> bool) ->
    ?telemetry:Telemetry.t ->
    ?pool:Pool.t ->
    ?batch:int ->
    ?budget:int ->
    ?watch:((S.state, S.action) Space.witness -> unit) ->
    ?resume:(S.state, S.action, S.Key.t) Space.snapshot ->
    ?snapshot:((S.state, S.action, S.Key.t) Space.snapshot -> unit) ->
    policy ->
    heuristic:(S.state -> int) ->
    S.state ->
    (S.state, S.action) Space.result
  (** [search policy ~heuristic root]. BFS never calls [heuristic]. The
      other policies score every generated successor, duplicates
      included, before deduplication.

      {b Budget seam.} [stop] is polled and the budget checked before
      each examination (goal test). When [stop] returns true the search
      finishes with {!Space.Cancelled}; when [budget] states have been
      examined, with {!Space.Budget_exceeded}. The node in hand is left
      untested either way.

      {b Observation.} [watch] fires once per goal-tested node, after the
      budget check and before the goal test, and must not mutate the
      space; it never changes the outcome, the stats or the examination
      order. [telemetry] (default {!Telemetry.disabled}) receives the
      standard search events (see {!Space.Ev}).

      {b Pool.} With [pool], A* and beam expand across the pool's
      domains: successor generation and heuristic scoring fan out,
      while goal tests and deduplication stay sequential and merge in
      order. Greedy and BFS ignore the pool. A pooled beam sweep is
      identical to a sequential one, stats included. Pooled A* pops
      batches of up to [batch] nodes (default [2 * Pool.size pool]) and
      goal-tests them in f-order. A goal found in a batch becomes the
      incumbent, not the answer, since batch-mates with a smaller f may
      still lead to a cheaper goal. The incumbent is returned once no
      frontier f is below its cost, so with an admissible heuristic the
      cost equals the sequential engine's ([examined] may differ and is
      reported honestly). If [stop] or the budget trips while an
      incumbent is held, the incumbent is returned as the mapping.

      {b Checkpoints.} On {!Space.Budget_exceeded} or {!Space.Cancelled}
      without an answer, [snapshot] receives a resumable frontier (every
      policy, pooled or not). Its nodes are the untested node in hand
      (for pooled A*, the rest of the batch; for beam, the whole current
      beam) followed by the remaining frontier in pop order. Its closed
      entries are the dedup table with each key's g. Only A* reads
      those g values; the other policies never reopen a key, so they
      read each entry as membership (a checkpoint whose closed entries
      carry 0 resumes the same way). For beam, [snap_checked] counts the
      head nodes already goal-tested in the interrupted sweep. Passing
      the snapshot back as [resume] transplants the table, re-enqueues
      the nodes in order and skips the checked head, so the resumed run
      continues exactly where the interrupted one stopped: budget B then
      resume B' examines the states of one B + B' run. With [resume],
      [root] is ignored.
      @raise Invalid_argument if [budget <= 0], [batch < 1] or a beam
      width is [<= 0]. *)

  val reachable : ?budget:int -> ?max_depth:int -> S.state -> int Keys.t
  (** Keys of all states reachable within [max_depth] steps, mapped to
      their BFS depth. Used by tests to characterize small spaces.
      @raise Invalid_argument if [budget <= 0]. *)
end
