(* Wall-clock speedup of the parallel engine vs the sequential one on a
   BAMM workload (§5.2's deep-web schemas).

     dune exec bench/parallel_bench.exe [-- PAIRS [JOBS...]]

   For each jobs count (default 1 2 4) the same mapping-discovery tasks
   run with Beam(8) and A*: jobs=1 is the sequential engine, jobs>1
   expands frontiers across a Search.Pool of that many domains. The
   determinism contract (DESIGN.md) means the discovered costs are equal
   across rows — only wall clock and (for A-star) states examined may move.
   A final section races the portfolio. The bench exits 1 if any row's
   solved count or total cost differs from the jobs=1 row.

   Speedup is physical parallelism: on a single-core container every
   row measures ~1x (the pool then only adds coordination overhead);
   on a 4-core machine the 4-domain row is the acceptance measurement. *)

let levenshtein =
  Heuristics.Heuristic.levenshtein
    ~k:Heuristics.Heuristic.Scaling.ida.k_levenshtein

let tasks n =
  let pairs = Workloads.Bamm.pairs Workloads.Bamm.Books in
  List.filteri (fun i _ -> i < n) pairs

type measurement = {
  seconds : float;
  solved : int;
  examined : int;
  total_cost : int;
}

let run_workload algorithm heuristic jobs pairs =
  let clock = Search.Space.stopwatch () in
  let solved = ref 0 and examined = ref 0 and total_cost = ref 0 in
  List.iter
    (fun (source, target) ->
      let config =
        Tupelo.Discover.config ~algorithm ~heuristic ~budget:2_000_000 ~jobs ()
      in
      let outcome = Tupelo.Discover.discover config ~source ~target in
      examined := !examined + Tupelo.Discover.states_examined outcome;
      match outcome with
      | Tupelo.Discover.Mapping m ->
          incr solved;
          total_cost := !total_cost + Tupelo.Mapping.length m
      | Tupelo.Discover.No_mapping _ | Tupelo.Discover.Gave_up _ -> ())
    pairs;
  {
    seconds = clock ();
    solved = !solved;
    examined = !examined;
    total_cost = !total_cost;
  }

(* Set when any row breaks the determinism contract; the bench then
   exits non-zero so CI fails instead of printing a warning. *)
let violated = ref false

let bench_algorithm name algorithm heuristic jobs_list pairs =
  Printf.printf "\n%s (%d BAMM pairs, heuristic %s)\n" name
    (List.length pairs)
    heuristic.Heuristics.Heuristic.name;
  Printf.printf "  %-6s %10s %8s %10s %8s %s\n" "jobs" "seconds" "solved"
    "examined" "cost" "speedup";
  let baseline = ref None in
  List.iter
    (fun jobs ->
      let m = run_workload algorithm heuristic jobs pairs in
      let base =
        match !baseline with
        | None ->
            baseline := Some m;
            m
        | Some b -> b
      in
      if m.solved <> base.solved || m.total_cost <> base.total_cost then begin
        violated := true;
        Printf.printf
          "  !! determinism contract violated: %d solved/cost %d vs %d/%d\n"
          m.solved m.total_cost base.solved base.total_cost
      end;
      Printf.printf "  %-6d %10.3f %8d %10d %8d %6.2fx\n" jobs m.seconds
        m.solved m.examined m.total_cost
        (base.seconds /. Float.max 1e-9 m.seconds))
    jobs_list

let bench_portfolio jobs pairs =
  Printf.printf "\nPortfolio race (%d BAMM pairs, %d domains)\n"
    (List.length pairs) jobs;
  let clock = Search.Space.stopwatch () in
  let winners = Hashtbl.create 8 in
  List.iter
    (fun (source, target) ->
      let config =
        Tupelo.Discover.config ~algorithm:Tupelo.Discover.Portfolio
          ~budget:2_000_000 ~jobs ()
      in
      match Tupelo.Discover.discover config ~source ~target with
      | Tupelo.Discover.Mapping m ->
          let w = m.Tupelo.Mapping.algorithm in
          Hashtbl.replace winners w (1 + Option.value ~default:0 (Hashtbl.find_opt winners w))
      | _ -> ())
    pairs;
  Printf.printf "  %.3fs total; winners:\n" (clock ());
  Hashtbl.iter (Printf.printf "    %-28s %d\n") winners

let () =
  let argv =
    Array.to_list Sys.argv |> List.tl |> List.filter (fun a -> a <> "--")
  in
  let n_pairs, jobs_list =
    match List.filter_map int_of_string_opt argv with
    | [] -> (24, [ 1; 2; 4 ])
    | [ n ] -> (n, [ 1; 2; 4 ])
    | n :: jobs -> (n, jobs)
  in
  let pairs = tasks n_pairs in
  Printf.printf "parallel engine bench: %d pairs, jobs %s, %d cores available\n"
    (List.length pairs)
    (String.concat " " (List.map string_of_int jobs_list))
    (Domain.recommended_domain_count ());
  bench_algorithm "Beam(8)" (Tupelo.Discover.Beam 8) levenshtein jobs_list
    pairs;
  bench_algorithm "A*" Tupelo.Discover.Astar Heuristics.Heuristic.h1 jobs_list
    pairs;
  bench_portfolio (List.fold_left max 1 jobs_list) pairs;
  if !violated then begin
    prerr_endline "parallel_bench: determinism contract violated";
    exit 1
  end
