let infinity_cost = max_int

(* Entries the improved-h table holds before it is cleared. *)
let table_cap = 500_000

module Make (S : Space.S) = struct
  module KT = Hashtbl.Make (S.Key)

  exception Budget
  exception Stopped

  type dfs_result =
    | Hit of S.action list * S.state
    | Cutoff of int  (** least f value beyond the bound *)

  let search ?(stop = Space.never_stop) ?(telemetry = Telemetry.disabled)
      ?(budget = Space.default_budget) ?(table = false) ?watch ~heuristic root =
    Space.validate_budget "Ida.search" budget;
    let c = Space.counters () in
    c.iterations_c <- 0;
    let elapsed = Space.stopwatch () in
    let finish outcome = Space.finish ~telemetry c elapsed outcome in
    let observe state path_rev g =
      match watch with
      | None -> ()
      | Some f ->
          f { Space.w_state = state; w_path_rev = path_rev; w_cost = g }
    in
    (* Keys of states on the current DFS path, for cycle avoidance. *)
    let on_path : unit KT.t = KT.create 64 in
    (* With [table]: improved (backed-up) heuristic values, persisted
       across iterations. *)
    let improved : int KT.t = KT.create (if table then 4096 else 1) in
    let h_eff state =
      if not table then heuristic state
      else
        match KT.find_opt improved (S.key state) with
        | Some h' -> max h' (heuristic state)
        | None -> heuristic state
    in
    let remember key h' =
      if KT.length improved >= table_cap then KT.reset improved;
      KT.replace improved key h'
    in
    let rec dfs state path_rev g bound =
      let f = g + h_eff state in
      if f > bound then Cutoff f
      else begin
        if stop () then raise Stopped;
        Space.tick_examined telemetry c;
        if c.examined_c > budget then raise Budget;
        observe state path_rev g;
        if S.is_goal state then Hit ([], state)
        else begin
          let succs = S.successors state in
          Space.record_expansion telemetry c ~generated:(List.length succs);
          let key = S.key state in
          KT.add on_path key ();
          let best_cutoff = ref infinity_cost in
          (* A backed-up cutoff is only a context-free lower bound when no
             successor was suppressed by the on-path cycle check — a
             suppressed successor might be available when the state is
             reached along a different path. *)
          let pruned_by_cycle = ref false in
          let rec try_succs = function
            | [] -> Cutoff !best_cutoff
            | (action, s) :: rest ->
                if KT.mem on_path (S.key s) then begin
                  pruned_by_cycle := true;
                  Telemetry.count telemetry Space.Ev.prune_cycle 1;
                  try_succs rest
                end
                else begin
                  match dfs s (action :: path_rev) (g + 1) bound with
                  | Hit (path, final) -> Hit (action :: path, final)
                  | Cutoff fmin ->
                      if fmin < !best_cutoff then best_cutoff := fmin;
                      try_succs rest
                end
          in
          let result = try_succs succs in
          KT.remove on_path key;
          (match result with
          | Cutoff fmin when table && not !pruned_by_cycle ->
              (* The subtree needs at least fmin; record it as an improved
                 heuristic for this state. *)
              remember key
                (if fmin >= infinity_cost then infinity_cost / 2
                 else fmin - g)
          | Cutoff _ | Hit _ -> ());
          result
        end
      end
    in
    (* A dead end backs up infinity_cost, which the table stores halved. *)
    let exhausted next bound =
      (if table then next >= infinity_cost / 2 else next = infinity_cost)
      || next <= bound
    in
    let rec iterate bound =
      Space.tick_iteration telemetry c;
      Telemetry.gauge telemetry Space.Ev.bound (float_of_int bound);
      KT.reset on_path;
      match dfs root [] 0 bound with
      | Hit (path, final) ->
          finish (Space.Found { path; final; cost = List.length path })
      | Cutoff next ->
          if exhausted next bound then finish Space.Exhausted
          else iterate next
    in
    try iterate (heuristic root) with
    | Budget -> finish Space.Budget_exceeded
    | Stopped -> finish Space.Cancelled
end
