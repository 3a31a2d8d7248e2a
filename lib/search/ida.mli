(** Iterative-Deepening A* — one of TUPELO's two search algorithms (§2.3).

    Performs depth-first searches bounded by increasing f = g + h values,
    starting from f(root) = h(root); memory is linear in the solution
    depth, at the price of re-exploring shallow states on every iteration
    (those re-examinations are counted, as in the paper's experiments).
    States already on the current path are skipped (cycle avoidance).

    With [~table:true] this is IDA+TT, an extension in the direction of
    the paper's future work ("further investigation of search techniques
    developed in the AI literature is warranted", §7): when a subtree
    rooted at a state fails under the current bound, the backed-up cutoff
    is stored as an improved heuristic value for that state
    (Reinefeld-style h-update). Revisits of the state — through a
    different operator ordering or in a later iteration — are then pruned
    immediately when the improved value already exceeds the bound. This
    trades memory (the table, capped at 500,000 entries and cleared when
    full) for a large reduction in re-examined states on spaces with many
    commuting operators, which ℒ's rename/λ spaces are; the [ablation]
    bench quantifies the effect. With an admissible heuristic, solution
    costs remain optimal (backed-up cutoffs are valid lower bounds). *)

module Make (S : Space.S) : sig
  val search :
    ?stop:(unit -> bool) ->
    ?telemetry:Telemetry.t ->
    ?budget:int ->
    ?table:bool ->
    ?watch:((S.state, S.action) Space.witness -> unit) ->
    heuristic:(S.state -> int) ->
    S.state ->
    (S.state, S.action) Space.result
  (** [search ~heuristic root] explores until a goal is found, the space is
      exhausted, or [budget] states (default {!Space.default_budget}) have
      been examined. With the constant-zero heuristic and no table this is
      iterative deepening — the paper's blind baseline h0. [table]
      (default [false]) turns on the improved-heuristic table. [stop] is
      polled once per examination; when it returns true the search
      finishes with {!Space.Cancelled}.
      @raise Invalid_argument if [budget <= 0]. *)
end
