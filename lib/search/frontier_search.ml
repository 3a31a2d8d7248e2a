type policy = Greedy | Bfs | Astar | Beam of int

module Make (S : Space.S) = struct
  module Keys = Hashtbl.Make (S.Key)

  type node = { state : S.state; path_rev : S.action list; g : int }

  let search ?(stop = Space.never_stop) ?(telemetry = Telemetry.disabled) ?pool
      ?batch ?(budget = Space.default_budget) ?watch ?resume ?snapshot policy
      ~heuristic root =
    let positive what n =
      if n < 1 then
        invalid_arg
          (Printf.sprintf "Frontier_search.search: %s must be positive (got %d)"
             what n)
    in
    Space.validate_budget "Frontier_search.search" budget;
    (match policy with Beam w -> positive "width" w | _ -> ());
    Option.iter (positive "batch") batch;
    let c = Space.counters () in
    let elapsed = Space.stopwatch () in
    let finish outcome = Space.finish ~telemetry c elapsed outcome in
    let score =
      match policy with
      | Greedy -> fun _ s -> heuristic s
      | Bfs -> fun g _ -> g
      | Astar | Beam _ -> fun g s -> g + heuristic s
    in
    (* The dedup table: every key ever enqueued or expanded, with the
       smallest g it was reached at. Pre-sized to the working set a
       budgeted cold search reaches, so it does not resize through
       ever-larger major-heap bucket arrays mid-search. *)
    let closed : int Keys.t = Keys.create (max 256 (min budget 8192)) in
    let reopen = policy = Astar in
    let admits k g =
      match Keys.find_opt closed k with
      | None -> true
      | Some g0 -> reopen && g < g0
    in
    let stale node =
      reopen
      &&
      match Keys.find_opt closed (S.key node.state) with
      | Some g -> g < node.g
      | None -> false
    in
    let frontier = Heap.create () in
    let push_all = List.iter (fun (f, n) -> Heap.push frontier ~priority:f n) in
    let rec pop_live () =
      match Heap.pop frontier with
      | Some (_, n) when stale n ->
          Telemetry.count telemetry Space.Ev.prune_stale 1;
          pop_live ()
      | popped -> Option.map snd popped
    in
    let sample_frontier n =
      Telemetry.gauge telemetry Space.Ev.frontier (float_of_int n)
    in
    let found node =
      Space.Found
        { path = List.rev node.path_rev; final = node.state; cost = node.g }
    in
    let observe =
      match watch with
      | None -> ignore
      | Some f ->
          fun n ->
            f { Space.w_state = n.state; w_path_rev = n.path_rev; w_cost = n.g }
    in
    (* The exact budget seam: [stop] and the budget are checked before
       the tick, so a node that trips either is captured untested. A
       resumed run examines it first, and budget B then resume B'
       examines exactly the states of one B + B' run. *)
    let examine node =
      if stop () then `Halt Space.Cancelled
      else if c.examined_c >= budget then `Halt Space.Budget_exceeded
      else begin
        Space.tick_examined telemetry c;
        observe node;
        if S.is_goal node.state then `Goal else `Open
      end
    in
    (* The checkpoint: [held] (nodes taken off the frontier but not done
       with, in order) followed by the live heap in pop order, plus the
       whole dedup table. Only reached on Budget_exceeded/Cancelled, when
       the heap is dead anyway. *)
    let capture ?(checked = 0) held =
      Option.iter
        (fun f ->
          let rec drain acc =
            match pop_live () with
            | None -> List.rev acc
            | Some n -> drain (n :: acc)
          in
          f
            {
              Space.snap_nodes =
                List.map
                  (fun n -> (List.rev n.path_rev, n.state))
                  (held @ drain []);
              snap_closed = Keys.fold (fun k g acc -> (k, g) :: acc) closed [];
              snap_checked = checked;
            })
        snapshot
    in
    (* Successor generation and scoring for one node: the per-node work
       that fans out across domains under a pool, so [S.successors],
       [S.key] and [heuristic] must be domain-safe there. *)
    let expand node =
      let succs = S.successors node.state in
      let g = node.g + 1 in
      ( node,
        List.length succs,
        List.map (fun (action, s) -> (action, s, S.key s, score g s)) succs )
    in
    (* Deduplication, sequential and in candidate order: the admitted
       children with their scores. *)
    let merge (node, generated, candidates) =
      Space.record_expansion telemetry c ~generated;
      let g = node.g + 1 in
      List.filter_map
        (fun (action, s, k, f) ->
          if admits k g then begin
            Keys.replace closed k g;
            Some (f, { state = s; path_rev = action :: node.path_rev; g })
          end
          else begin
            Telemetry.count telemetry Space.Ev.prune_seen 1;
            None
          end)
        candidates
    in
    let start, skip =
      match resume with
      | None ->
          Keys.replace closed (S.key root) 0;
          ([ { state = root; path_rev = []; g = 0 } ], 0)
      | Some snap ->
          (* Transplanted dedup table + open nodes re-admitted in snapshot
             order: scores are deterministic and the heap breaks ties by
             insertion order, so the resumed run pops in exactly the
             order the interrupted run would have. *)
          List.iter
            (fun (k, g) -> Keys.replace closed k g)
            snap.Space.snap_closed;
          ( List.map
              (fun (path, state) ->
                let g = List.length path in
                let k = S.key state in
                if admits k g then Keys.replace closed k g;
                { state; path_rev = List.rev path; g })
              snap.Space.snap_nodes,
            snap.Space.snap_checked )
    in
    match (policy, pool) with
    | Beam width, _ ->
        (* Level sweep: goal-test the beam in order, expand every member
           (across the pool when there is one), merge the children in
           beam order and keep the [width] best by g + h — a stable sort,
           so a pooled sweep equals a sequential one. The first [skip]
           nodes of a resumed sweep were goal-tested before the
           checkpoint. *)
        let rec sweep ~skip beam =
          sample_frontier (List.length beam);
          let rec check i = function
            | [] -> None
            | _ :: rest when i < skip -> check (i + 1) rest
            | node :: rest -> (
                match examine node with
                | `Halt outcome ->
                    capture ~checked:i beam;
                    Some (finish outcome)
                | `Goal -> Some (finish (found node))
                | `Open -> check (i + 1) rest)
          in
          match check 0 beam with
          | Some result -> result
          | None -> (
              let expansions =
                match pool with
                | Some p when List.compare_length_with beam 1 > 0 ->
                    Pool.map_list p expand beam
                | _ -> List.map expand beam
              in
              match List.concat_map merge expansions with
              | [] -> finish Space.Exhausted
              | children ->
                  children
                  |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
                  |> List.filteri (fun i _ -> i < width)
                  |> List.map snd |> sweep ~skip:0)
        in
        sweep ~skip start
    | Astar, Some pool ->
        (* Batched expansion: pop up to [batch] best nodes, goal-test them
           in f-order, expand the non-goals across the pool and merge in
           pop order. A goal found in a batch becomes the incumbent — a
           batch-mate with a smaller f may still lead to a cheaper goal —
           and is returned once no frontier f is below its cost. *)
        push_all (List.map (fun n -> (score n.g n.state, n)) start);
        let batch = Option.value batch ~default:(2 * Pool.size pool) in
        let rec take k acc =
          match if k = 0 then None else pop_live () with
          | None -> List.rev acc
          | Some n -> take (k - 1) (n :: acc)
        in
        let rec loop incumbent =
          match (incumbent, Heap.peek frontier) with
          | Some inc, None -> finish (found inc)
          | Some inc, Some (f, _) when f >= inc.g -> finish (found inc)
          | None, None -> finish Space.Exhausted
          | _ ->
              let nodes = take batch [] in
              sample_frontier (Heap.size frontier);
              let rec test incumbent to_expand = function
                | [] ->
                    Pool.map_list pool expand (List.rev to_expand)
                    |> List.iter (fun e -> push_all (merge e));
                    loop incumbent
                | node :: rest -> (
                    match (examine node, incumbent) with
                    | `Halt _, Some inc ->
                        (* an incumbent mapping beats a give-up *)
                        finish (found inc)
                    | `Halt outcome, None ->
                        (* tested batch-mates first (re-tested on resume),
                           then the untested rest, ahead of the heap *)
                        capture (List.rev_append to_expand (node :: rest));
                        finish outcome
                    | `Goal, Some best when best.g <= node.g ->
                        test incumbent to_expand rest
                    | `Goal, _ -> test (Some node) to_expand rest
                    | `Open, _ -> test incumbent (node :: to_expand) rest)
              in
              test incumbent [] nodes
        in
        loop None
    | (Greedy | Bfs | Astar), _ ->
        push_all (List.map (fun n -> (score n.g n.state, n)) start);
        let rec loop () =
          match pop_live () with
          | None -> finish Space.Exhausted
          | Some node -> (
              match examine node with
              | `Halt outcome ->
                  capture [ node ];
                  finish outcome
              | `Goal -> finish (found node)
              | `Open ->
                  push_all (merge (expand node));
                  sample_frontier (Heap.size frontier);
                  loop ())
        in
        loop ()

  let reachable ?(budget = Space.default_budget) ?(max_depth = max_int) root =
    Space.validate_budget "Frontier_search.reachable" budget;
    let depths : int Keys.t = Keys.create (max 256 (min budget 8192)) in
    let queue = Queue.create () in
    Keys.replace depths (S.key root) 0;
    Queue.push (root, 0) queue;
    let count = ref 0 in
    let continue = ref true in
    while !continue && not (Queue.is_empty queue) do
      let state, depth = Queue.pop queue in
      incr count;
      if !count > budget then continue := false
      else if depth < max_depth then
        List.iter
          (fun (_, s) ->
            let k = S.key s in
            if not (Keys.mem depths k) then begin
              Keys.replace depths k (depth + 1);
              Queue.push (s, depth + 1) queue
            end)
          (S.successors state)
    done;
    depths
end
