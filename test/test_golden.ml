(* Golden regression table for the frontier engines (greedy, A*, beam,
   BFS). Every row is one [Discover.discover_anytime] run over a fuzz
   scenario, recorded as its outcome, its examined/generated/expanded
   counts, the mapping's operators and the checkpoint's shape (node,
   checked and closed counts). The fixture in test/golden/ was written
   by the four per-engine implementations this kernel replaced, so a
   refactor of the search core must reproduce it bit for bit; the other
   search properties compare new code only against new code.

   Two more rows resume frontier texts written by those engines (their
   closed entries carry g = 0, which resume must read as membership).
   The fixture is regenerated only by running this test on the commit
   whose behaviour it pins.

   On a mismatch the computed table is written to
   [frontier_search.actual] in the test's working directory, so an
   intended change can be inspected and re-pinned by copying it over
   test/golden/frontier_search.table. *)

module D = Tupelo.Discover
module Scenario = Fuzz.Scenario

(* Fuzz scenarios as (seed, depth). The last two are deeper instances on
   which A* reaches keys again with a smaller g, so its reopening rule
   shows in the counts. *)
let scenarios =
  List.init 20 (fun i ->
      let seed = (i * 7919) + 11 in
      (seed, 2 + (seed mod 3)))
  @ [ (64, 5); (95, 5) ]

let budgets = [ 1_500; 40; 8 ]

let configs =
  [
    (D.Greedy, 1); (D.Astar, 1); (D.Beam 4, 1); (D.Bfs, 1);
    (D.Astar, 2); (D.Beam 4, 2);
  ]

(* Parent-written checkpoints: (fixture file, scenario, budget of the
   resumed leg). *)
let resumes =
  [ ("greedy.frontier", (8_004, 2), 1_500); ("bfs.frontier", (8_004, 2), 1_500) ]

let describe (a : D.anytime) =
  let label, (st : Search.Space.stats), ops =
    match a.D.a_outcome with
    | D.Mapping m ->
        ( "mapping",
          m.Tupelo.Mapping.stats,
          String.concat " ; "
            (List.map Fira.Op.to_string (Fira.Expr.ops m.Tupelo.Mapping.expr)) )
    | D.No_mapping st -> ("no_mapping", st, "-")
    | D.Gave_up st -> ("gave_up", st, "-")
  in
  let frontier =
    match a.D.a_frontier with
    | None -> "nodes=- checked=- closed=-"
    | Some fr ->
        Printf.sprintf "nodes=%d checked=%d closed=%d"
          (List.length fr.D.fr_nodes) fr.D.fr_checked
          (List.length fr.D.fr_closed)
  in
  Printf.sprintf "outcome=%s examined=%d generated=%d expanded=%d %s ops=%s"
    label st.Search.Space.examined st.Search.Space.generated
    st.Search.Space.expanded frontier ops

let run ?resume (seed, depth) ~algorithm ~jobs ~budget =
  let s = Scenario.generate ~depth seed in
  D.discover_anytime ~registry:s.Scenario.registry ?resume
    (D.config ~algorithm ~jobs ~budget ())
    ~source:s.Scenario.source ~target:s.Scenario.target

let read_file path = In_channel.with_open_bin path In_channel.input_all

let rows () =
  let grid =
    List.concat_map
      (fun ((seed, depth) as scenario) ->
        List.concat_map
          (fun (algorithm, jobs) ->
            List.map
              (fun budget ->
                Printf.sprintf "seed=%d depth=%d alg=%s jobs=%d budget=%d %s"
                  seed depth (D.algorithm_name algorithm) jobs budget
                  (describe (run scenario ~algorithm ~jobs ~budget)))
              budgets)
          configs)
      scenarios
  in
  let resumed =
    List.map
      (fun (file, ((seed, _) as scenario), budget) ->
        match D.frontier_of_string (read_file ("golden/" ^ file)) with
        | Error m -> Alcotest.failf "%s does not parse: %s" file m
        | Ok fr ->
            Printf.sprintf "resume=%s seed=%d budget=%d %s" file seed budget
              (describe
                 (run ~resume:fr scenario ~algorithm:fr.D.fr_algorithm
                    ~jobs:1 ~budget)))
      resumes
  in
  grid @ resumed

let test_table () =
  let expected =
    String.split_on_char '\n' (read_file "golden/frontier_search.table")
    |> List.filter (fun l -> l <> "")
  in
  let actual = rows () in
  if actual <> expected then begin
    Out_channel.with_open_bin "frontier_search.actual" (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) actual);
    let rec first_diff = function
      | e :: es, a :: as_ -> if e = a then first_diff (es, as_) else (e, a)
      | e :: _, [] -> (e, "<missing>")
      | [], a :: _ -> ("<missing>", a)
      | [], [] -> ("", "")
    in
    let e, a = first_diff (expected, actual) in
    Alcotest.failf "golden table differs\nexpected: %s\nactual:   %s" e a
  end

(* The pinned checkpoints really are parent-written: membership-only
   closed entries. *)
let test_fixture_closed_values () =
  List.iter
    (fun (file, _, _) ->
      match D.frontier_of_string (read_file ("golden/" ^ file)) with
      | Error m -> Alcotest.failf "%s does not parse: %s" file m
      | Ok fr ->
          Alcotest.(check bool)
            (file ^ " has closed entries, all with g = 0")
            true
            (fr.D.fr_closed <> []
            && List.for_all (fun (_, g) -> g = 0) fr.D.fr_closed))
    resumes

let suite =
  [
    Alcotest.test_case "frontier engines reproduce the pinned table" `Slow
      test_table;
    Alcotest.test_case "pinned checkpoints carry membership-only closed sets"
      `Quick test_fixture_closed_values;
  ]
