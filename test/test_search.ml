(* The search algorithms are validated on small synthetic spaces where the
   optimum is known: a bounded grid (admissible Manhattan heuristic) and a
   branching counter space. BFS serves as the optimality oracle. *)

module Grid = struct
  (* States are (x, y) on a 6x6 grid; moves are +1 in either coordinate;
     goal is (5, 5). Optimal cost is 10 and the space is a DAG. *)
  type state = int * int
  type action = [ `Right | `Up ]

  let size = 6

  module Key = Search.Space.String_key

  let key (x, y) = Printf.sprintf "%d,%d" x y

  let successors (x, y) =
    List.filter_map
      (fun (a, (x', y')) ->
        if x' < size && y' < size then Some (a, (x', y')) else None)
      [ (`Right, (x + 1, y)); (`Up, (x, y + 1)) ]

  let is_goal (x, y) = x = size - 1 && y = size - 1
end

module Grid_ida = Search.Ida.Make (Grid)
module Grid_ida_tt = struct
  let search ?budget ~heuristic root =
    Grid_ida.search ~table:true ?budget ~heuristic root
end

module Grid_rbfs = Search.Rbfs.Make (Grid)
module Grid_fs = Search.Frontier_search.Make (Grid)
module Fs = Search.Frontier_search

let manhattan (x, y) = (Grid.size - 1 - x) + (Grid.size - 1 - y)
let zero _ = 0

let check_found name result expected_cost =
  match result.Search.Space.outcome with
  | Search.Space.Found { cost; path; _ } ->
      Alcotest.(check int) (name ^ " cost") expected_cost cost;
      Alcotest.(check int) (name ^ " path length") expected_cost
        (List.length path)
  | _ -> Alcotest.fail (name ^ ": expected a solution")

let test_grid_all_algorithms () =
  let expected = 10 in
  check_found "IDA/manhattan" (Grid_ida.search ~heuristic:manhattan (0, 0)) expected;
  check_found "IDA/blind" (Grid_ida.search ~heuristic:zero (0, 0)) expected;
  check_found "IDA+TT/manhattan"
    (Grid_ida_tt.search ~heuristic:manhattan (0, 0))
    expected;
  check_found "IDA+TT/blind" (Grid_ida_tt.search ~heuristic:zero (0, 0)) expected;
  check_found "RBFS/manhattan" (Grid_rbfs.search ~heuristic:manhattan (0, 0)) expected;
  check_found "RBFS/blind" (Grid_rbfs.search ~heuristic:zero (0, 0)) expected;
  let frontier policy = Grid_fs.search policy ~heuristic:manhattan (0, 0) in
  check_found "A*/manhattan" (frontier Fs.Astar) expected;
  check_found "BFS" (Grid_fs.search Fs.Bfs ~heuristic:zero (0, 0)) expected;
  (* Greedy has no optimality guarantee but on this DAG every path is
     optimal. *)
  check_found "Greedy/manhattan" (frontier Fs.Greedy) expected;
  check_found "Beam/manhattan" (frontier (Fs.Beam 8)) expected;
  check_found "Beam width 1" (frontier (Fs.Beam 1)) expected

let test_heuristic_reduces_work () =
  let blind = Grid_ida.search ~heuristic:zero (0, 0) in
  let informed = Grid_ida.search ~heuristic:manhattan (0, 0) in
  Alcotest.(check bool) "manhattan examines fewer states" true
    (informed.Search.Space.stats.Search.Space.examined
    < blind.Search.Space.stats.Search.Space.examined)

let test_transposition_table_reduces_work () =
  (* The grid has many transpositions (all monotone paths commute): the
     table must prune most re-examinations of blind IDA. *)
  let plain = Grid_ida.search ~heuristic:zero (0, 0) in
  let with_tt = Grid_ida_tt.search ~heuristic:zero (0, 0) in
  Alcotest.(check bool) "IDA+TT examines fewer states" true
    (with_tt.Search.Space.stats.Search.Space.examined
    < plain.Search.Space.stats.Search.Space.examined)

let test_path_replays_to_goal () =
  let result = Grid_fs.search Fs.Astar ~heuristic:manhattan (0, 0) in
  match result.Search.Space.outcome with
  | Search.Space.Found { path; final; _ } ->
      let replayed =
        List.fold_left
          (fun (x, y) a ->
            match a with `Right -> (x + 1, y) | `Up -> (x, y + 1))
          (0, 0) path
      in
      Alcotest.(check string) "replay reaches final" (Grid.key final)
        (Grid.key replayed);
      Alcotest.(check bool) "final is goal" true (Grid.is_goal final)
  | _ -> Alcotest.fail "expected a solution"

module Dead_end = struct
  (* A finite space with no goal: exhaustion must be reported. *)
  type state = int
  type action = unit

  module Key = Search.Space.String_key

  let key = string_of_int
  let successors n = if n < 5 then [ ((), n + 1) ] else []
  let is_goal _ = false
end

module De_ida = Search.Ida.Make (Dead_end)
module De_ida_tt = struct
  let search ~heuristic root = De_ida.search ~table:true ~heuristic root
end

module De_rbfs = Search.Rbfs.Make (Dead_end)
module De_fs = Search.Frontier_search.Make (Dead_end)

let test_exhaustion () =
  let is_exhausted r =
    match r.Search.Space.outcome with
    | Search.Space.Exhausted -> true
    | _ -> false
  in
  Alcotest.(check bool) "IDA exhausts" true
    (is_exhausted (De_ida.search ~heuristic:zero 0));
  Alcotest.(check bool) "IDA+TT exhausts" true
    (is_exhausted (De_ida_tt.search ~heuristic:zero 0));
  Alcotest.(check bool) "RBFS exhausts" true
    (is_exhausted (De_rbfs.search ~heuristic:zero 0));
  Alcotest.(check bool) "A* exhausts" true
    (is_exhausted (De_fs.search Fs.Astar ~heuristic:zero 0));
  Alcotest.(check bool) "BFS exhausts" true
    (is_exhausted (De_fs.search Fs.Bfs ~heuristic:zero 0))

module Infinite = struct
  (* Unbounded branching chain with an unreachable goal: budgets must trip. *)
  type state = int
  type action = int

  module Key = Search.Space.String_key

  let key = string_of_int
  let successors n = [ (0, (2 * n) + 1); (1, (2 * n) + 2) ]
  let is_goal _ = false
end

module Inf_ida = Search.Ida.Make (Infinite)
module Inf_rbfs = Search.Rbfs.Make (Infinite)
module Inf_fs = Search.Frontier_search.Make (Infinite)

let test_budget () =
  let tripped r =
    match r.Search.Space.outcome with
    | Search.Space.Budget_exceeded -> true
    | _ -> false
  in
  Alcotest.(check bool) "IDA budget" true
    (tripped (Inf_ida.search ~budget:100 ~heuristic:zero 0));
  Alcotest.(check bool) "RBFS budget" true
    (tripped (Inf_rbfs.search ~budget:100 ~heuristic:zero 0));
  Alcotest.(check bool) "A* budget" true
    (tripped (Inf_fs.search ~budget:100 Fs.Astar ~heuristic:zero 0))

let test_budget_respected () =
  let r = Inf_ida.search ~budget:100 ~heuristic:zero 0 in
  Alcotest.(check bool) "examined stays near budget" true
    (r.Search.Space.stats.Search.Space.examined <= 101)

let test_goal_at_root () =
  let module Trivial = struct
    type state = unit
    type action = unit

    module Key = Search.Space.String_key

    let key () = "root"
    let successors () = []
    let is_goal () = true
  end in
  let module I = Search.Ida.Make (Trivial) in
  let module R = Search.Rbfs.Make (Trivial) in
  let r1 = I.search ~heuristic:(fun _ -> 0) () in
  let r2 = R.search ~heuristic:(fun _ -> 0) () in
  check_found "IDA root goal" r1 0;
  check_found "RBFS root goal" r2 0;
  Alcotest.(check int) "IDA examined exactly the root" 1
    r1.Search.Space.stats.Search.Space.examined

let test_beam_incomplete () =
  (* A misleading heuristic plus width 1 sends the beam into the wall: the
     search dies out even though the goal is reachable (documented
     incompleteness). *)
  let misleading (x, y) = x + y in
  let r = Grid_fs.search (Fs.Beam 1) ~heuristic:misleading (0, 0) in
  match r.Search.Space.outcome with
  | Search.Space.Exhausted -> ()
  | Search.Space.Found _ ->
      (* Acceptable: the tie-breaking may still reach the corner. *)
      ()
  | _ -> Alcotest.fail "expected exhaustion or a lucky path"

let test_bfs_reachable () =
  let depths = Grid_fs.reachable ~max_depth:2 (0, 0) in
  Alcotest.(check (option int)) "root depth" (Some 0)
    (Grid_fs.Keys.find_opt depths "0,0");
  Alcotest.(check (option int)) "diagonal depth" (Some 2)
    (Grid_fs.Keys.find_opt depths "1,1");
  Alcotest.(check (option int)) "beyond max_depth absent" None
    (Grid_fs.Keys.find_opt depths "3,0")

let test_degenerate_parameters () =
  (* budget <= 0 and width <= 0 are programming errors, not "search the
     empty space": all seven algorithms must refuse them loudly instead
     of returning a misleading [Exhausted]. *)
  let raises name f =
    Alcotest.(check bool) name true
      (match f () with
      | exception Invalid_argument _ -> true
      | (_ : (Grid.state, Grid.action) Search.Space.result) -> false)
  in
  raises "IDA budget 0" (fun () ->
      Grid_ida.search ~budget:0 ~heuristic:zero (0, 0));
  raises "IDA+TT budget -1" (fun () ->
      Grid_ida_tt.search ~budget:(-1) ~heuristic:zero (0, 0));
  raises "RBFS budget 0" (fun () ->
      Grid_rbfs.search ~budget:0 ~heuristic:zero (0, 0));
  raises "A* budget 0" (fun () ->
      Grid_fs.search ~budget:0 Fs.Astar ~heuristic:zero (0, 0));
  raises "A* batch 0" (fun () ->
      Grid_fs.search ~batch:0 Fs.Astar ~heuristic:zero (0, 0));
  raises "Greedy budget 0" (fun () ->
      Grid_fs.search ~budget:0 Fs.Greedy ~heuristic:zero (0, 0));
  raises "Beam budget 0" (fun () ->
      Grid_fs.search ~budget:0 (Fs.Beam 8) ~heuristic:zero (0, 0));
  raises "Beam width 0" (fun () ->
      Grid_fs.search (Fs.Beam 0) ~heuristic:zero (0, 0));
  raises "Beam width -3" (fun () ->
      Grid_fs.search (Fs.Beam (-3)) ~heuristic:zero (0, 0));
  raises "BFS budget 0" (fun () ->
      Grid_fs.search ~budget:0 Fs.Bfs ~heuristic:zero (0, 0));
  Alcotest.(check bool) "BFS reachable budget 0" true
    (match Grid_fs.reachable ~budget:0 (0, 0) with
    | exception Invalid_argument _ -> true
    | (_ : int Grid_fs.Keys.t) -> false)

let test_elapsed_non_negative () =
  let r = Grid_fs.search Fs.Astar ~heuristic:manhattan (0, 0) in
  Alcotest.(check bool) "elapsed_s >= 0" true
    (r.Search.Space.stats.Search.Space.elapsed_s >= 0.)

let test_heap () =
  let h = Search.Heap.create () in
  Alcotest.(check bool) "empty" true (Search.Heap.is_empty h);
  List.iter (fun (p, v) -> Search.Heap.push h ~priority:p v)
    [ (5, "e"); (1, "a"); (3, "c"); (1, "b"); (4, "d") ];
  Alcotest.(check int) "size" 5 (Search.Heap.size h);
  Alcotest.(check (option (pair int string))) "peek min" (Some (1, "a"))
    (Search.Heap.peek h);
  let popped = List.init 5 (fun _ -> Search.Heap.pop h) in
  Alcotest.(check (list (option (pair int string))))
    "pops in priority order, FIFO on ties"
    [ Some (1, "a"); Some (1, "b"); Some (3, "c"); Some (4, "d"); Some (5, "e") ]
    popped;
  Alcotest.(check (option (pair int string))) "pop empty" None (Search.Heap.pop h)

let test_heap_many () =
  let h = Search.Heap.create () in
  let n = 1000 in
  (* Deterministic pseudo-random insertion order. *)
  let xs = List.init n (fun i -> (i * 7919) mod n) in
  List.iter (fun x -> Search.Heap.push h ~priority:x x) xs;
  let rec drain acc =
    match Search.Heap.pop h with
    | None -> List.rev acc
    | Some (p, _) -> drain (p :: acc)
  in
  let out = drain [] in
  Alcotest.(check int) "drained all" n (List.length out);
  Alcotest.(check bool) "sorted" true
    (List.sort compare out = out)

let suite =
  [
    Alcotest.test_case "grid: all algorithms optimal" `Quick test_grid_all_algorithms;
    Alcotest.test_case "informed beats blind" `Quick test_heuristic_reduces_work;
    Alcotest.test_case "transposition table beats plain IDA" `Quick test_transposition_table_reduces_work;
    Alcotest.test_case "path replays to goal" `Quick test_path_replays_to_goal;
    Alcotest.test_case "exhaustion reported" `Quick test_exhaustion;
    Alcotest.test_case "budget trips" `Quick test_budget;
    Alcotest.test_case "budget respected" `Quick test_budget_respected;
    Alcotest.test_case "goal at root" `Quick test_goal_at_root;
    Alcotest.test_case "beam incompleteness" `Quick test_beam_incomplete;
    Alcotest.test_case "bfs reachable depths" `Quick test_bfs_reachable;
    Alcotest.test_case "degenerate parameters rejected" `Quick test_degenerate_parameters;
    Alcotest.test_case "elapsed time non-negative" `Quick test_elapsed_non_negative;
    Alcotest.test_case "heap ordering" `Quick test_heap;
    Alcotest.test_case "heap stress" `Quick test_heap_many;
  ]
