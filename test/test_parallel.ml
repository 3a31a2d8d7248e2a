(* The multicore layer: Pool (work-stealing parallel map), Portfolio
   (racing with cancellation), parallel frontier expansion in Beam and
   A*, and the bounded domain-safe heuristic memo cache.

   The determinism contract under test (DESIGN.md, "Parallel engine"):
   parallel and sequential runs find mappings of equal cost — for Beam,
   identical stats as well. *)

module Grid = struct
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

module Grid_fs = Search.Frontier_search.Make (Grid)
module Fs = Search.Frontier_search

let manhattan (x, y) = (Grid.size - 1 - x) + (Grid.size - 1 - y)

(* --- Pool --- *)

let test_pool_map_matches_sequential () =
  Search.Pool.with_pool ~domains:3 (fun pool ->
      List.iter
        (fun n ->
          let xs = Array.init n (fun i -> i) in
          let expected = Array.map (fun i -> (i * i) + 1) xs in
          let got = Search.Pool.parallel_map pool (fun i -> (i * i) + 1) xs in
          Alcotest.(check (array int))
            (Printf.sprintf "n=%d" n)
            expected got)
        [ 0; 1; 2; 17; 1000 ])

let test_pool_reuse_and_list () =
  (* The same pool runs many batches back to back. *)
  Search.Pool.with_pool ~domains:4 (fun pool ->
      Alcotest.(check int) "size" 4 (Search.Pool.size pool);
      for round = 1 to 20 do
        let xs = List.init (round * 7) (fun i -> i) in
        let got = Search.Pool.map_list pool (fun i -> i + round) xs in
        Alcotest.(check (list int))
          "batch"
          (List.map (fun i -> i + round) xs)
          got
      done)

let test_pool_single_domain_inline () =
  Search.Pool.with_pool ~domains:1 (fun pool ->
      Alcotest.(check (array int))
        "inline map" [| 2; 4; 6 |]
        (Search.Pool.parallel_map pool (fun i -> 2 * i) [| 1; 2; 3 |]))

let test_pool_exception_propagates () =
  Search.Pool.with_pool ~domains:3 (fun pool ->
      let raised =
        match
          Search.Pool.parallel_map pool
            (fun i -> if i = 13 then failwith "boom" else i)
            (Array.init 100 (fun i -> i))
        with
        | exception Failure m -> m = "boom"
        | _ -> false
      in
      Alcotest.(check bool) "exception re-raised in caller" true raised;
      (* The pool survives a failed batch. *)
      Alcotest.(check (array int))
        "pool still works" [| 1; 2 |]
        (Search.Pool.parallel_map pool (fun i -> i) [| 1; 2 |]))

let test_pool_invalid_domains () =
  Alcotest.check_raises "domains 0" (Invalid_argument
     "Pool.create: domains must be >= 1") (fun () ->
      ignore (Search.Pool.create ~domains:0 ()))

(* --- Portfolio --- *)

let test_portfolio_sequential_first_winner () =
  let ran = ref [] in
  let entrant name result =
    {
      Search.Portfolio.name;
      run =
        (fun ~cancelled ->
          ignore (cancelled ());
          ran := name :: !ran;
          result);
    }
  in
  let outcome =
    Search.Portfolio.race ~domains:1
      ~won:(fun r -> r > 0)
      [ entrant "loser" 0; entrant "winner" 7; entrant "never-runs" 9 ]
  in
  Alcotest.(check (option (pair string int)))
    "winner" (Some ("winner", 7)) outcome.Search.Portfolio.winner;
  Alcotest.(check (list string))
    "entrants after the winner never start" [ "loser"; "winner" ]
    (List.rev !ran)

let test_portfolio_parallel_race () =
  (* A fast winner and slow entrants that only terminate via the
     cancellation flag: the race must still return promptly. *)
  let slow name =
    {
      Search.Portfolio.name;
      run =
        (fun ~cancelled ->
          let spins = ref 0 in
          while (not (cancelled ())) && !spins < 50_000_000 do
            incr spins
          done;
          -1);
    }
  in
  let fast = { Search.Portfolio.name = "fast"; run = (fun ~cancelled:_ -> 42) } in
  let outcome =
    Search.Portfolio.race ~domains:3
      ~won:(fun r -> r > 0)
      [ slow "slow-a"; fast; slow "slow-b" ]
  in
  (match outcome.Search.Portfolio.winner with
  | Some (name, 42) -> Alcotest.(check string) "winner name" "fast" name
  | other ->
      Alcotest.failf "expected fast winner, got %s"
        (match other with
        | None -> "no winner"
        | Some (n, r) -> Printf.sprintf "(%s, %d)" n r))

let test_portfolio_no_winner () =
  let entrant name = { Search.Portfolio.name; run = (fun ~cancelled:_ -> 0) } in
  let outcome =
    Search.Portfolio.race ~domains:2
      ~won:(fun r -> r > 0)
      [ entrant "a"; entrant "b"; entrant "c" ]
  in
  Alcotest.(check (option (pair string int)))
    "no winner" None outcome.Search.Portfolio.winner;
  Alcotest.(check int) "all completed" 3
    (List.length outcome.Search.Portfolio.results)

(* --- parallel frontier expansion --- *)

let test_beam_parallel_bit_identical () =
  let seq = Grid_fs.search (Fs.Beam 3) ~heuristic:manhattan (0, 0) in
  Search.Pool.with_pool ~domains:3 (fun pool ->
      let par = Grid_fs.search ~pool (Fs.Beam 3) ~heuristic:manhattan (0, 0) in
      Alcotest.(check int) "cost" (Search.Space.cost_exn seq)
        (Search.Space.cost_exn par);
      Alcotest.(check int) "examined"
        seq.Search.Space.stats.Search.Space.examined
        par.Search.Space.stats.Search.Space.examined;
      Alcotest.(check int) "generated"
        seq.Search.Space.stats.Search.Space.generated
        par.Search.Space.stats.Search.Space.generated;
      Alcotest.(check int) "expanded"
        seq.Search.Space.stats.Search.Space.expanded
        par.Search.Space.stats.Search.Space.expanded)

let test_astar_parallel_equal_cost () =
  let seq = Grid_fs.search Fs.Astar ~heuristic:manhattan (0, 0) in
  Search.Pool.with_pool ~domains:3 (fun pool ->
      let par = Grid_fs.search ~pool Fs.Astar ~heuristic:manhattan (0, 0) in
      Alcotest.(check int) "cost" (Search.Space.cost_exn seq)
        (Search.Space.cost_exn par);
      (* Batched expansion examines at least as many states; both must be
         honest (positive). *)
      Alcotest.(check bool) "examined reported" true
        (par.Search.Space.stats.Search.Space.examined > 0))

let test_cancelled_outcome () =
  let stop () = true in
  let r = Grid_fs.search ~stop Fs.Astar ~heuristic:manhattan (0, 0) in
  (match r.Search.Space.outcome with
  | Search.Space.Cancelled -> ()
  | _ -> Alcotest.fail "expected Cancelled");
  let r = Grid_fs.search ~stop (Fs.Beam 8) ~heuristic:manhattan (0, 0) in
  match r.Search.Space.outcome with
  | Search.Space.Cancelled -> ()
  | _ -> Alcotest.fail "expected Cancelled"

(* --- cross-engine equivalence on seeded synthetic instances ---

   Sequential and parallel discovery must find mappings of equal cost on
   every seeded instance (the ISSUE's acceptance criterion: >= 20
   seeds). h1 is admissible on rename tasks, so A*'s incumbent-based
   batched search is cost-optimal like the sequential engine; Beam is
   deterministic by construction. *)

let cross_engine_seeds = List.init 22 (fun i -> (i * 7919) + 3)

(* CI runs the suite under TUPELO_TEST_JOBS=1 and =2 so both the
   sequential and the parallel engine paths are exercised; locally the
   default is the 2-domain parallel path. *)
let test_jobs =
  match Option.bind (Sys.getenv_opt "TUPELO_TEST_JOBS") int_of_string_opt with
  | Some n when n >= 1 -> n
  | _ -> 2

let discover_with alg jobs seed =
  let g = Workloads.Prng.create seed in
  let source, target = Workloads.Random_db.rename_task g 3 in
  Tupelo.Discover.discover
    (Tupelo.Discover.config ~algorithm:alg
       ~heuristic:Heuristics.Heuristic.h1 ~budget:200_000 ~jobs ())
    ~source ~target

let test_cross_engine_equal_cost alg () =
  List.iter
    (fun seed ->
      match (discover_with alg 1 seed, discover_with alg 3 seed) with
      | Tupelo.Discover.Mapping seq, Tupelo.Discover.Mapping par ->
          Alcotest.(check int)
            (Printf.sprintf "seed %d cost" seed)
            (Tupelo.Mapping.length seq) (Tupelo.Mapping.length par)
      | _ -> Alcotest.failf "seed %d: an engine found no mapping" seed)
    cross_engine_seeds

(* --- cross-algorithm agreement ---

   h1 is admissible on rename tasks, so every complete optimal algorithm
   must return the same solution cost; BFS (shortest path under unit
   edges) is the oracle the others are checked against. *)

let agreement_seeds = List.init 8 (fun i -> (i * 104729) + 11)

let test_admissible_algorithms_agree () =
  List.iter
    (fun seed ->
      let cost alg =
        match discover_with alg 1 seed with
        | Tupelo.Discover.Mapping m -> Tupelo.Mapping.length m
        | _ ->
            Alcotest.failf "seed %d: %s found no mapping" seed
              (Tupelo.Discover.algorithm_name alg)
      in
      let oracle = cost Tupelo.Discover.Bfs in
      List.iter
        (fun alg ->
          Alcotest.(check int)
            (Printf.sprintf "seed %d: %s cost" seed
               (Tupelo.Discover.algorithm_name alg))
            oracle (cost alg))
        [
          Tupelo.Discover.Astar;
          Tupelo.Discover.Ida;
          Tupelo.Discover.Ida_tt;
          Tupelo.Discover.Rbfs;
        ])
    agreement_seeds

(* Parallel Beam's contract is stronger than equal cost: the discovered
   expression and every stat must be bit-identical to a sequential run. *)
let test_beam_jobs_bit_identical () =
  List.iter
    (fun seed ->
      match
        ( discover_with (Tupelo.Discover.Beam 8) 1 seed,
          discover_with (Tupelo.Discover.Beam 8) test_jobs seed )
      with
      | Tupelo.Discover.Mapping seq, Tupelo.Discover.Mapping par ->
          Alcotest.(check string)
            (Printf.sprintf "seed %d: expression" seed)
            (Fira.Expr.to_string seq.Tupelo.Mapping.expr)
            (Fira.Expr.to_string par.Tupelo.Mapping.expr);
          let st (m : Tupelo.Mapping.t) = m.Tupelo.Mapping.stats in
          Alcotest.(check int)
            (Printf.sprintf "seed %d: examined" seed)
            (st seq).Search.Space.examined (st par).Search.Space.examined;
          Alcotest.(check int)
            (Printf.sprintf "seed %d: generated" seed)
            (st seq).Search.Space.generated (st par).Search.Space.generated;
          Alcotest.(check int)
            (Printf.sprintf "seed %d: expanded" seed)
            (st seq).Search.Space.expanded (st par).Search.Space.expanded
      | _ -> Alcotest.failf "seed %d: beam found no mapping" seed)
    (List.filteri (fun i _ -> i < 8) cross_engine_seeds)

let test_portfolio_discovers () =
  let g = Workloads.Prng.create 42 in
  let source, target = Workloads.Random_db.rename_task g 3 in
  match
    Tupelo.Discover.discover
      (Tupelo.Discover.config ~algorithm:Tupelo.Discover.Portfolio
         ~budget:200_000 ~jobs:2 ())
      ~source ~target
  with
  | Tupelo.Discover.Mapping m ->
      Alcotest.(check bool) "winner recorded" true
        (String.length m.Tupelo.Mapping.algorithm > String.length "Portfolio");
      Alcotest.(check bool) "stats aggregated" true
        (m.Tupelo.Mapping.stats.Search.Space.examined > 0);
      let out = Tupelo.Mapping.apply Fira.Semfun.empty_registry m source in
      Alcotest.(check bool) "mapping replays to the target" true
        (Tupelo.Goal.reached Tupelo.Goal.Superset ~target out)
  | _ -> Alcotest.fail "portfolio found no mapping"

(* --- memo cache --- *)

let test_memo_hits_and_bound () =
  let memo : (string, int) Heuristics.Memo.t = Heuristics.Memo.create ~cap:100 () in
  let computes = ref 0 in
  let f key =
    incr computes;
    String.length key
  in
  Alcotest.(check int) "computes" 5
    (Heuristics.Memo.find_or_add memo "abcde" f);
  Alcotest.(check int) "cached" 5 (Heuristics.Memo.find_or_add memo "abcde" f);
  Alcotest.(check int) "computed once" 1 !computes;
  (* Flood far past the cap: residency stays bounded. *)
  for i = 1 to 1000 do
    ignore (Heuristics.Memo.find_or_add memo (string_of_int i) f)
  done;
  Alcotest.(check bool) "bounded" true (Heuristics.Memo.size memo <= 100);
  Alcotest.(check bool) "evictions happened" true
    (Heuristics.Memo.evictions memo > 0);
  (* The hottest recent key survives the flood's generation flips when
     re-touched between them. *)
  let before = !computes in
  ignore (Heuristics.Memo.find_or_add memo "1000" f);
  Alcotest.(check int) "most recent key still cached" before !computes

let test_memo_working_set_survives_eviction () =
  let memo : (string, int) Heuristics.Memo.t = Heuristics.Memo.create ~cap:10 () in
  let f key = String.length key in
  (* Inserting 6 keys with cap 10 flips once (generation size 5). Unlike
     the old full-flush, the flip demotes rather than discards: the
     first five keys stay findable from the previous generation. *)
  for i = 1 to 6 do
    ignore (Heuristics.Memo.find_or_add memo (string_of_int i) f)
  done;
  Alcotest.(check int) "one flip" 1 (Heuristics.Memo.evictions memo);
  let computes = ref 0 in
  let g key =
    incr computes;
    String.length key
  in
  for i = 1 to 4 do
    ignore (Heuristics.Memo.find_or_add memo (string_of_int i) g)
  done;
  Alcotest.(check int) "no recomputation after the flip" 0 !computes

let test_memo_promote_moves_entry () =
  let memo : (string, int) Heuristics.Memo.t =
    Heuristics.Memo.create ~cap:10 ()
  in
  let f key = String.length key in
  for i = 1 to 6 do
    ignore (Heuristics.Memo.find_or_add memo (string_of_int i) f)
  done;
  Alcotest.(check int) "one flip" 1 (Heuristics.Memo.evictions memo);
  Alcotest.(check int) "six resident" 6 (Heuristics.Memo.size memo);
  (* Promoting a previous-generation key must move the entry, not copy it.
     (Regression: promotion used to leave the old copy in the previous
     generation, double-counting the key so residency could exceed the
     cap.) *)
  ignore (Heuristics.Memo.find_or_add memo "3" f);
  Alcotest.(check int) "promotion does not duplicate" 6
    (Heuristics.Memo.size memo);
  (* Re-touching the promoted key is now a plain current-generation hit. *)
  ignore (Heuristics.Memo.find_or_add memo "3" f);
  Alcotest.(check int) "still six" 6 (Heuristics.Memo.size memo)

let test_memo_domain_local () =
  let memo : (string, int) Heuristics.Memo.t = Heuristics.Memo.create ~cap:100 () in
  let f _ = 1 in
  ignore (Heuristics.Memo.find_or_add memo "k" f);
  let other_domain_size =
    Domain.join (Domain.spawn (fun () -> Heuristics.Memo.size memo))
  in
  Alcotest.(check int) "fresh table in a fresh domain" 0 other_domain_size;
  Alcotest.(check int) "caller's table intact" 1 (Heuristics.Memo.size memo)

let test_memo_weighted () =
  (* Weight 10 per entry and cap 100: five entries fill a generation, the
     sixth flips it. A value heavier than a generation is never kept. *)
  let memo : (int, int) Heuristics.Memo.t =
    Heuristics.Memo.create ~weight:Fun.id ~cap:100 ()
  in
  for i = 1 to 5 do
    ignore (Heuristics.Memo.find_or_add memo i (fun _ -> 10))
  done;
  Alcotest.(check int) "no flip at the bound" 0 (Heuristics.Memo.evictions memo);
  ignore (Heuristics.Memo.find_or_add memo 6 (fun _ -> 10));
  Alcotest.(check int) "flip past the bound" 1 (Heuristics.Memo.evictions memo);
  let computes = ref 0 in
  let heavy _ =
    incr computes;
    51
  in
  ignore (Heuristics.Memo.find_or_add memo 7 heavy);
  ignore (Heuristics.Memo.find_or_add memo 7 heavy);
  Alcotest.(check int) "heavy value recomputed" 2 !computes;
  Alcotest.(check int) "heavy value not resident" 6 (Heuristics.Memo.size memo)

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let test_memo_reclaimed () =
  (* A dropped memo must take its tables with it, including the one a
     second domain created. Tables held in Domain.DLS slots, which OCaml
     never frees, keep about a million words live here. *)
  let fill () =
    let memo : (int, int) Heuristics.Memo.t = Heuristics.Memo.create () in
    for i = 1 to 200 do
      ignore (Heuristics.Memo.find_or_add memo i Fun.id)
    done;
    ignore (Domain.join (Domain.spawn (fun () -> Heuristics.Memo.size memo)))
  in
  fill ();
  let before = live_words () in
  for _ = 1 to 500 do
    fill ()
  done;
  let grown = live_words () - before in
  if grown > 20_000 then
    Alcotest.failf "500 dropped memos left %d words live" grown

let suite =
  [
    Alcotest.test_case "pool: map matches sequential" `Quick
      test_pool_map_matches_sequential;
    Alcotest.test_case "pool: reuse across batches" `Quick
      test_pool_reuse_and_list;
    Alcotest.test_case "pool: single domain inline" `Quick
      test_pool_single_domain_inline;
    Alcotest.test_case "pool: exception propagates" `Quick
      test_pool_exception_propagates;
    Alcotest.test_case "pool: invalid domains" `Quick test_pool_invalid_domains;
    Alcotest.test_case "portfolio: sequential first winner" `Quick
      test_portfolio_sequential_first_winner;
    Alcotest.test_case "portfolio: parallel race cancels losers" `Quick
      test_portfolio_parallel_race;
    Alcotest.test_case "portfolio: no winner" `Quick test_portfolio_no_winner;
    Alcotest.test_case "beam: parallel run bit-identical" `Quick
      test_beam_parallel_bit_identical;
    Alcotest.test_case "astar: parallel run equal cost" `Quick
      test_astar_parallel_equal_cost;
    Alcotest.test_case "cancellation: Cancelled outcome" `Quick
      test_cancelled_outcome;
    Alcotest.test_case "cross-engine: A* equal cost on 22 seeds" `Slow
      (test_cross_engine_equal_cost Tupelo.Discover.Astar);
    Alcotest.test_case "cross-engine: Beam equal cost on 22 seeds" `Slow
      (test_cross_engine_equal_cost (Tupelo.Discover.Beam 8));
    Alcotest.test_case "cross-algorithm: admissible costs agree on 8 seeds"
      `Slow test_admissible_algorithms_agree;
    Alcotest.test_case "beam: jobs=2 run bit-identical on 8 seeds" `Slow
      test_beam_jobs_bit_identical;
    Alcotest.test_case "portfolio: discovers a mapping" `Quick
      test_portfolio_discovers;
    Alcotest.test_case "memo: hits and bounded eviction" `Quick
      test_memo_hits_and_bound;
    Alcotest.test_case "memo: working set survives a flip" `Quick
      test_memo_working_set_survives_eviction;
    Alcotest.test_case "memo: promotion moves, not copies" `Quick
      test_memo_promote_moves_entry;
    Alcotest.test_case "memo: domain-local tables" `Quick
      test_memo_domain_local;
    Alcotest.test_case "memo: weight bounds residency" `Quick
      test_memo_weighted;
    Alcotest.test_case "memo: dropped memos are reclaimed" `Quick
      test_memo_reclaimed;
  ]
