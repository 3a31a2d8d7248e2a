open Relational
module D = Tupelo.Discover

let db_t = Alcotest.testable Database.pp Database.equal

(* --- goal tests --- *)

let test_goal_modes () =
  let target = Workloads.Flights.a in
  Alcotest.(check bool) "superset: reflexive" true
    (Tupelo.Goal.reached Tupelo.Goal.Superset ~target target);
  Alcotest.(check bool) "exact: reflexive" true
    (Tupelo.Goal.reached Tupelo.Goal.Exact ~target target);
  let padded =
    Database.add target "extra" (Relation.of_strings [ "x" ] [ [ "1" ] ])
  in
  Alcotest.(check bool) "superset tolerates extra relation" true
    (Tupelo.Goal.reached Tupelo.Goal.Superset ~target padded);
  Alcotest.(check bool) "exact rejects extra relation" false
    (Tupelo.Goal.reached Tupelo.Goal.Exact ~target padded);
  Alcotest.(check bool) "superset rejects missing data" false
    (Tupelo.Goal.reached Tupelo.Goal.Superset ~target Database.empty)

let test_goal_mode_strings () =
  Alcotest.(check (option string)) "superset round-trip" (Some "superset")
    (Option.map Tupelo.Goal.mode_to_string
       (Tupelo.Goal.mode_of_string "superset"));
  Alcotest.(check bool) "unknown mode" true
    (Tupelo.Goal.mode_of_string "nope" = None)

(* --- state caching --- *)

let state_key s = Database.canonical_key (Idb.to_database (Tupelo.State.idb s))

let test_state () =
  let s = Tupelo.State.of_database Workloads.Flights.b in
  Alcotest.(check string) "key is canonical"
    (Database.canonical_key Workloads.Flights.b)
    (state_key s);
  let s2 = Tupelo.State.of_database Workloads.Flights.b in
  Alcotest.(check bool) "equal states" true (Tupelo.State.equal s s2)

(* --- moves / pruning --- *)

let candidates ?(registry = Fira.Semfun.empty_registry) ~source ~target () =
  let info = Tupelo.Moves.target_info target in
  Tupelo.Moves.candidates
    (Tupelo.Moves.default Tupelo.Goal.Superset)
    registry info (Idb.of_database source)

let count_kind pred ops = List.length (List.filter pred ops)

let test_moves_synthetic_only_renames () =
  let source, target = Workloads.Synthetic.matching_pair 3 in
  let ops = candidates ~source ~target () in
  Alcotest.(check bool) "only attribute renames proposed" true
    (List.for_all
       (function Fira.Op.RenameAtt _ -> true | _ -> false)
       ops);
  (* With the Rosetta Stone value check, only the three data-compatible
     renames Ai -> Bi survive. *)
  Alcotest.(check int) "3 value-compatible renames" 3 (List.length ops);
  List.iter
    (function
      | Fira.Op.RenameAtt { old_name; new_name; _ } ->
          Alcotest.(check string)
            "rename pairs aligned indices"
            (String.sub old_name 1 2) (String.sub new_name 1 2)
      | _ -> ())
    ops;
  (* The no-value-check ablation proposes the full 3x3 grid. *)
  let info = Tupelo.Moves.target_info target in
  let config =
    { (Tupelo.Moves.default Tupelo.Goal.Superset) with
      Tupelo.Moves.rename_value_check = false }
  in
  let all_ops =
    Tupelo.Moves.candidates config Fira.Semfun.empty_registry info
      (Idb.of_database source)
  in
  Alcotest.(check int) "3x3 renames without the check" 9 (List.length all_ops)

let test_moves_no_renames_when_covered () =
  (* The paper's example rule: if the state has all target attribute names,
     attribute renaming is not explored. *)
  let source, _ = Workloads.Synthetic.matching_pair 3 in
  let ops = candidates ~source ~target:source () in
  Alcotest.(check int) "no candidates at the goal" 0 (List.length ops)

let test_moves_flights_b_to_a () =
  let ops =
    candidates ~source:Workloads.Flights.b ~target:Workloads.Flights.a ()
  in
  Alcotest.(check bool) "promote Route/Cost proposed" true
    (List.exists
       (function
         | Fira.Op.Promote { name_col = "Route"; value_col = "Cost"; _ } -> true
         | _ -> false)
       ops);
  Alcotest.(check int) "no demote from B to A" 0
    (count_kind (function Fira.Op.Demote _ -> true | _ -> false) ops);
  Alcotest.(check int) "no drops before nulls appear" 0
    (count_kind (function Fira.Op.Drop _ -> true | _ -> false) ops);
  Alcotest.(check bool) "rename rel Prices->Flights proposed" true
    (List.exists
       (function
         | Fira.Op.RenameRel { old_name = "Prices"; new_name = "Flights" } ->
             true
         | _ -> false)
       ops)

let test_moves_flights_a_to_b () =
  let ops =
    candidates ~source:Workloads.Flights.a ~target:Workloads.Flights.b ()
  in
  Alcotest.(check int) "exactly one demote" 1
    (count_kind (function Fira.Op.Demote _ -> true | _ -> false) ops);
  Alcotest.(check int) "no promote" 0
    (count_kind (function Fira.Op.Promote _ -> true | _ -> false) ops)

let test_moves_demote_not_repeated () =
  let registry = Fira.Semfun.empty_registry in
  let info = Tupelo.Moves.target_info Workloads.Flights.b in
  let config = Tupelo.Moves.default Tupelo.Goal.Superset in
  let demoted =
    Fira.Eval.apply registry
      (Fira.Op.demote "Flights")
      Workloads.Flights.a
  in
  let ops =
    Tupelo.Moves.candidates config registry info (Idb.of_database demoted)
  in
  Alcotest.(check int) "no second demote" 0
    (count_kind (function Fira.Op.Demote _ -> true | _ -> false) ops);
  Alcotest.(check bool) "dereference now available" true
    (List.exists (function Fira.Op.Dereference _ -> true | _ -> false) ops)

let test_moves_partition_b_to_c () =
  let ops =
    candidates ~registry:Workloads.Flights.registry
      ~source:Workloads.Flights.b ~target:Workloads.Flights.c ()
  in
  Alcotest.(check bool) "partition on Carrier proposed" true
    (List.exists
       (function
         | Fira.Op.Partition { col = "Carrier"; _ } -> true
         | _ -> false)
       ops);
  Alcotest.(check bool) "λ total_cost proposed at its signature" true
    (List.exists
       (function
         | Fira.Op.Apply { func = "total_cost"; inputs = [ "Cost"; "AgentFee" ];
                           output = "TotalCost"; _ } -> true
         | _ -> false)
       ops)

let test_moves_all_applicable () =
  (* Every proposed candidate must pass the evaluator's own check. *)
  List.iter
    (fun (_, source, target) ->
      let ops =
        candidates ~registry:Workloads.Flights.registry ~source ~target ()
      in
      List.iter
        (fun op ->
          Alcotest.(check bool)
            ("applicable: " ^ Fira.Op.to_string op)
            true
            (Fira.Eval.applicable Workloads.Flights.registry op source))
        ops)
    Workloads.Flights.pairs

let test_successors_dedupe () =
  let source, target = Workloads.Synthetic.matching_pair 2 in
  let info = Tupelo.Moves.target_info target in
  let succs =
    Tupelo.Moves.successors
      (Tupelo.Moves.default Tupelo.Goal.Superset)
      Fira.Semfun.empty_registry info
      (Tupelo.State.of_database source)
  in
  let keys = List.map (fun (_, s) -> state_key s) succs in
  Alcotest.(check int) "keys distinct"
    (List.length keys)
    (List.length (List.sort_uniq String.compare keys))

let test_paranoid_cross_check () =
  (* Explore Flights B→A greedily under h1 until the target is reached,
     and re-evaluate every successor [Moves.successors] generates along
     the boxed path: applying the operator with
     [Fira.Eval.apply_syntactic_delta] to the parent's boxed database must
     give the successor's canonical key, and a from-scratch fingerprint of
     that result must equal the successor's incrementally maintained one. *)
  let registry = Workloads.Flights.registry in
  let target = Workloads.Flights.a in
  let info = Tupelo.Moves.target_info target in
  let config = Tupelo.Moves.default Tupelo.Goal.Superset in
  let h s =
    Heuristics.Heuristic.h1.estimate
      ~target:(Heuristics.Profile.of_database target)
      (Tupelo.State.profile s)
  in
  let agg = Telemetry.Agg.create () in
  let telemetry = Telemetry.create (Telemetry.Agg.sink agg) in
  let visited = Hashtbl.create 256 in
  let checked = ref 0 and reached = ref false in
  (* Open list of (estimate, arrival order, state); the least pair first. *)
  let open_ = ref [] and arrivals = ref 0 in
  let push s =
    if not (Hashtbl.mem visited (state_key s)) then begin
      Hashtbl.add visited (state_key s) ();
      incr arrivals;
      open_ := List.merge compare [ (h s, !arrivals, s) ] !open_
    end
  in
  push (Tupelo.State.of_database Workloads.Flights.b);
  while (not !reached) && !open_ <> [] do
    let parent =
      match !open_ with
      | (_, _, s) :: rest ->
          open_ := rest;
          s
      | [] -> assert false
    in
    let db = Idb.to_database (Tupelo.State.idb parent) in
    List.iter
      (fun (op, s') ->
        let db', _ = Fira.Eval.apply_syntactic_delta registry op db in
        incr checked;
        Alcotest.(check string)
          ("canonical key: " ^ Fira.Op.to_string op)
          (Database.canonical_key db') (state_key s');
        Alcotest.(check bool)
          ("fingerprint: " ^ Fira.Op.to_string op)
          true
          (Fingerprint.equal (Fingerprint.of_database db')
             (Tupelo.State.fingerprint s'));
        if Tupelo.Goal.reached Tupelo.Goal.Superset ~target db' then
          reached := true;
        push s')
      (Tupelo.Moves.successors ~telemetry config registry info parent)
  done;
  Alcotest.(check bool) "the exploration reaches the target" true !reached;
  Alcotest.(check bool) "successors checked" true (!checked > 20);
  let collisions =
    List.fold_left
      (fun acc (_, m, v) ->
        if String.equal m "fingerprint.collision" then acc + int_of_string v
        else acc)
      0 (Telemetry.Agg.rows agg)
  in
  Alcotest.(check int) "no collisions" 0 collisions

let test_successors_collision_accounting () =
  (* Fingerprint-equal successors are only discarded after a canonical
     content comparison; on a workload full of duplicate successors (the
     matching pair proposes many renames that commute into identical
     states) every hit must confirm as a true duplicate — zero entries on
     the [fingerprint.collision] counter and distinct canonical keys in
     the result. *)
  let source, target = Workloads.Synthetic.matching_pair 3 in
  let agg = Telemetry.Agg.create () in
  let telemetry = Telemetry.create (Telemetry.Agg.sink agg) in
  let info = Tupelo.Moves.target_info target in
  let succs =
    Tupelo.Moves.successors ~telemetry
      (Tupelo.Moves.default Tupelo.Goal.Superset)
      Fira.Semfun.empty_registry info
      (Tupelo.State.of_database source)
  in
  let keys = List.map (fun (_, s) -> state_key s) succs in
  Alcotest.(check int) "result keys distinct"
    (List.length keys)
    (List.length (List.sort_uniq String.compare keys));
  let count metric =
    List.fold_left
      (fun acc (_, m, v) ->
        if String.equal m metric then acc + int_of_string v else acc)
      0
      (Telemetry.Agg.rows agg)
  in
  Alcotest.(check bool) "states built incrementally" true
    (count "fingerprint.incremental" >= List.length succs);
  Alcotest.(check int) "no confirmed collisions" 0
    (count "fingerprint.collision")

let test_state_cell_guard () =
  (* With a tiny cell cap, the demote successor (2 rows x 4 cols -> 8 rows
     x 6 cols = 48 cells) must be pruned. *)
  let config =
    { (Tupelo.Moves.default Tupelo.Goal.Superset) with
      Tupelo.Moves.max_state_cells = 10 }
  in
  let info = Tupelo.Moves.target_info Workloads.Flights.b in
  let succs =
    Tupelo.Moves.successors config Fira.Semfun.empty_registry info
      (Tupelo.State.of_database Workloads.Flights.a)
  in
  Alcotest.(check bool) "no oversized successors" true
    (List.for_all
       (fun (op, _) ->
         match op with Fira.Op.Demote _ -> false | _ -> true)
       succs)

let test_lambda_enumeration_without_signature () =
  (* A function with no articulated signature: inputs are enumerated over
     the relation's columns, bounded by max_lambda_inputs. *)
  let f =
    Fira.Semfun.make ~name:"mystery" ~arity:2
      ~examples:[ ([ Value.Int 1; Value.Int 2 ], Value.Int 3) ]
      ()
  in
  let registry = Fira.Semfun.of_list [ f ] in
  let source =
    Database.of_list
      [ ("r", Relation.of_strings [ "x"; "y" ] [ [ "1"; "2" ] ]) ]
  in
  let target =
    Database.of_list
      [ ("r", Relation.of_strings [ "x"; "y"; "sum" ] [ [ "1"; "2"; "3" ] ]) ]
  in
  let info = Tupelo.Moves.target_info target in
  let ops =
    Tupelo.Moves.candidates
      (Tupelo.Moves.default Tupelo.Goal.Superset)
      registry info (Idb.of_database source)
  in
  let applies =
    List.filter (function Fira.Op.Apply _ -> true | _ -> false) ops
  in
  (* 2 columns, arity 2 => 4 ordered input tuples, one output. *)
  Alcotest.(check int) "enumerated applications" 4 (List.length applies);
  (* And discovery picks the example-consistent one. *)
  match
    Tupelo.Discover.discover ~registry
      (Tupelo.Discover.config ~algorithm:Tupelo.Discover.Ida
         ~heuristic:Heuristics.Heuristic.h1 ~budget:10_000 ())
      ~source ~target
  with
  | Tupelo.Discover.Mapping m -> (
      match Fira.Expr.ops m.Tupelo.Mapping.expr with
      | [ Fira.Op.Apply { inputs; output = "sum"; _ } ] ->
          Alcotest.(check (list string)) "correct inputs" [ "x"; "y" ] inputs
      | _ -> Alcotest.fail "expected a single λ application")
  | _ -> Alcotest.fail "unsigned λ mapping not discovered"

(* --- end-to-end discovery --- *)

let discover ?registry ?(algorithm = D.Ida) ?heuristic ?goal ?(budget = 100_000)
    ~source ~target () =
  let heuristic =
    match heuristic with Some h -> h | None -> Heuristics.Heuristic.h1
  in
  D.discover ?registry
    (D.config ~algorithm ~heuristic ?goal ~budget ())
    ~source ~target

let check_mapping_outcome name outcome ~source ~target ~registry ~goal =
  match outcome with
  | D.Mapping m ->
      (* Replaying the discovered expression must reach the goal. *)
      let result = Tupelo.Mapping.apply registry m source in
      Alcotest.(check bool)
        (name ^ ": replay reaches goal")
        true
        (Tupelo.Goal.reached goal ~target result)
  | D.No_mapping _ -> Alcotest.fail (name ^ ": no mapping found")
  | D.Gave_up _ -> Alcotest.fail (name ^ ": budget exceeded")

let test_discover_flights_all_pairs () =
  let registry = Workloads.Flights.registry in
  List.iter
    (fun (name, source, target) ->
      let outcome = discover ~registry ~source ~target () in
      check_mapping_outcome name outcome ~source ~target ~registry
        ~goal:Tupelo.Goal.Superset)
    Workloads.Flights.pairs

let test_discover_b_to_a_exact () =
  (* Exact goal forces the full Example 2 shape: the result must equal
     FlightsA on the nose. *)
  let registry = Workloads.Flights.registry in
  let source = Workloads.Flights.b and target = Workloads.Flights.a in
  match
    discover ~registry ~goal:Tupelo.Goal.Exact ~source ~target ()
  with
  | D.Mapping m ->
      Alcotest.check db_t "exact replay equals FlightsA" target
        (Tupelo.Mapping.apply registry m source);
      Alcotest.(check int) "six operators, like Example 2" 6
        (Tupelo.Mapping.length m)
  | _ -> Alcotest.fail "exact B->A not found"

let test_discover_synthetic () =
  List.iter
    (fun n ->
      let source, target = Workloads.Synthetic.matching_pair n in
      match discover ~source ~target () with
      | D.Mapping m ->
          Alcotest.(check int)
            (Printf.sprintf "n=%d: optimal cost is n" n)
            n (Tupelo.Mapping.length m)
      | _ -> Alcotest.fail (Printf.sprintf "n=%d: not found" n))
    [ 1; 2; 4; 8 ]

let test_discover_algorithms_agree () =
  let source, target = Workloads.Synthetic.matching_pair 4 in
  List.iter
    (fun alg ->
      match discover ~algorithm:alg ~source ~target () with
      | D.Mapping m ->
          Alcotest.(check int)
            (D.algorithm_name alg ^ " finds cost 4")
            4 (Tupelo.Mapping.length m)
      | _ -> Alcotest.fail (D.algorithm_name alg ^ ": not found"))
    [ D.Ida; D.Ida_tt; D.Rbfs; D.Astar; D.Bfs ]

let test_discover_inventory () =
  List.iter
    (fun k ->
      let t = Workloads.Inventory.task k in
      match
        discover ~registry:t.Workloads.Inventory.registry
          ~source:t.Workloads.Inventory.source
          ~target:t.Workloads.Inventory.target ()
      with
      | D.Mapping m ->
          Alcotest.(check int)
            (Printf.sprintf "k=%d: k λ steps" k)
            k (Tupelo.Mapping.length m);
          (* Full-semantics replay reproduces the target exactly. *)
          Alcotest.check db_t "replay equals target"
            t.Workloads.Inventory.target
            (Tupelo.Mapping.apply t.Workloads.Inventory.registry m
               t.Workloads.Inventory.source)
      | _ -> Alcotest.fail (Printf.sprintf "inventory k=%d not found" k))
    [ 1; 3; 5 ]

let test_discover_real_estate () =
  let t = Workloads.Real_estate.task 4 in
  match
    discover ~registry:t.Workloads.Real_estate.registry
      ~source:t.Workloads.Real_estate.source
      ~target:t.Workloads.Real_estate.target ()
  with
  | D.Mapping m ->
      Alcotest.(check int) "4 λ steps" 4 (Tupelo.Mapping.length m)
  | _ -> Alcotest.fail "real estate k=4 not found"

let test_discover_bamm_sample () =
  List.iter
    (fun dom ->
      let pairs = Workloads.Bamm.pairs dom in
      (* First three targets of each domain keep the test fast. *)
      List.iteri
        (fun i (source, target) ->
          if i < 3 then
            match discover ~source ~target () with
            | D.Mapping _ -> ()
            | _ ->
                Alcotest.fail
                  (Printf.sprintf "%s target %d not mapped"
                     (Workloads.Bamm.domain_name dom) i))
        pairs)
    Workloads.Bamm.all_domains

let test_discover_unreachable () =
  (* A target value that exists nowhere in the source cannot be created by
     ℒ: discovery must exhaust, not loop. *)
  let source =
    Database.of_list [ ("r", Relation.of_strings [ "a" ] [ [ "1" ] ]) ]
  in
  let target =
    Database.of_list [ ("r", Relation.of_strings [ "a" ] [ [ "999" ] ]) ]
  in
  match discover ~budget:10_000 ~source ~target () with
  | D.No_mapping _ -> ()
  | D.Mapping _ -> Alcotest.fail "impossible mapping reported"
  | D.Gave_up _ -> Alcotest.fail "expected exhaustion, not budget"

let test_states_examined_reported () =
  let source, target = Workloads.Synthetic.matching_pair 3 in
  let outcome = discover ~source ~target () in
  Alcotest.(check bool) "examined > 0" true (D.states_examined outcome > 0)

let test_discover_identity () =
  (* Source already contains the target: empty mapping, one state. *)
  let db = Workloads.Flights.a in
  match discover ~source:db ~target:db () with
  | D.Mapping m ->
      Alcotest.(check int) "empty expression" 0 (Tupelo.Mapping.length m);
      Alcotest.(check int) "one state examined" 1
        m.Tupelo.Mapping.stats.Search.Space.examined
  | _ -> Alcotest.fail "identity mapping not found"

let test_refine_a_to_b () =
  (* Discover A->B under the superset goal, then apply the paper's σ
     post-processing: select the fare rows and project to the target
     schema. The refined result is exactly FlightsB. *)
  let registry = Workloads.Flights.registry in
  let source = Workloads.Flights.a and target = Workloads.Flights.b in
  match discover ~registry ~source ~target () with
  | D.Mapping m ->
      let raw = Tupelo.Mapping.apply registry m source in
      let refined =
        Tupelo.Refine.refine
          ~selections:
            [
              ( "Prices",
                Algebra.In
                  ( Algebra.Att "Route",
                    [ Value.String "ATL29"; Value.String "ORD17" ] ) );
            ]
          ~target_schema:target raw
      in
      Alcotest.check db_t "refined result equals FlightsB" target refined
  | _ -> Alcotest.fail "A->B not discovered"

let test_refine_projection_only () =
  (* Without selections, refinement trims columns and surplus relations. *)
  let mapped =
    Database.of_list
      [
        ("keep", Relation.of_strings [ "a"; "b"; "extra" ]
           [ [ "1"; "2"; "x" ] ]);
        ("drop_me", Relation.of_strings [ "z" ] [ [ "9" ] ]);
      ]
  in
  let target_schema =
    Database.of_list [ ("keep", Relation.of_strings [ "a"; "b" ] []) ]
  in
  let refined = Tupelo.Refine.project_to_target ~target_schema mapped in
  Alcotest.(check (list string)) "only target relations" [ "keep" ]
    (Database.relation_names refined);
  Alcotest.(check (list string)) "only target attributes" [ "a"; "b" ]
    (Relation.attributes (Database.find refined "keep"))

let test_refine_select_passthrough () =
  let db = Workloads.Flights.b in
  let same =
    Tupelo.Refine.select [ ("NoSuchRel", Algebra.True) ] db
  in
  Alcotest.check db_t "unknown relation selection ignored" db same;
  let filtered =
    Tupelo.Refine.select
      [ ("Prices",
         Algebra.Cmp (Algebra.Gt, Algebra.Att "Cost", Algebra.Const (Value.Int 150))) ]
      db
  in
  Alcotest.(check int) "filtered rows" 2
    (Relation.cardinality (Database.find filtered "Prices"))

let test_critical_roundtrip () =
  (* §4's interchange format: one TNF table carries data + λ annotations. *)
  let tnf =
    Tupelo.Critical.encode Workloads.Flights.registry Workloads.Flights.b
  in
  let db, registry = Tupelo.Critical.decode tnf in
  Alcotest.check db_t "data survives" Workloads.Flights.b db;
  match Fira.Semfun.find registry "total_cost" with
  | None -> Alcotest.fail "function lost in round-trip"
  | Some f ->
      Alcotest.(check int) "arity" 2 (Fira.Semfun.arity f);
      Alcotest.(check int) "examples" 4 (List.length (Fira.Semfun.examples f));
      Alcotest.(check bool) "signature" true
        (Fira.Semfun.signature f = Some ([ "Cost"; "AgentFee" ], "TotalCost"))

let test_critical_discovery () =
  (* Discovery driven entirely from the flat TNF critical instances. *)
  let source_tnf =
    Tupelo.Critical.encode Workloads.Flights.registry Workloads.Flights.b
  in
  let target_tnf =
    Tupelo.Critical.encode Fira.Semfun.empty_registry Workloads.Flights.c
  in
  let source, registry = Tupelo.Critical.decode source_tnf in
  let target, _ = Tupelo.Critical.decode target_tnf in
  match discover ~registry ~source ~target () with
  | D.Mapping m ->
      (* The decoded registry has no implementations, only examples — the
         mapping must still replay on the critical instance. *)
      let out = Fira.Expr.eval_syntactic registry m.Tupelo.Mapping.expr source in
      Alcotest.(check bool) "syntactic replay reaches goal" true
        (Tupelo.Goal.reached Tupelo.Goal.Superset ~target out)
  | _ -> Alcotest.fail "B->C not discovered from TNF critical instances"

let test_matching_correspondences () =
  (* Example 2 traced: Carrier stays, AgentFee -> Fee, Route and Cost are
     dropped, promoted columns have no source correspondence. *)
  let found =
    Tupelo.Matching.correspondences ~source:Workloads.Flights.b
      Workloads.Flights.example2_expression
    |> List.sort compare
  in
  Alcotest.(check (list (pair string string)))
    "traced correspondences"
    [ ("AgentFee", "Fee"); ("Carrier", "Carrier") ]
    found

let test_matching_score () =
  let truth = [ ("a", "x"); ("b", "y"); ("c", "z") ] in
  let s =
    Tupelo.Matching.score ~truth ~found:[ ("a", "x"); ("b", "wrong") ]
  in
  Alcotest.(check (float 1e-9)) "precision" 0.5 s.Tupelo.Matching.precision;
  Alcotest.(check (float 1e-9)) "recall" (1.0 /. 3.0) s.Tupelo.Matching.recall;
  let perfect = Tupelo.Matching.score ~truth ~found:truth in
  Alcotest.(check (float 1e-9)) "perfect F1" 1.0 perfect.Tupelo.Matching.f1;
  let empty = Tupelo.Matching.score ~truth:[] ~found:[] in
  Alcotest.(check (float 1e-9)) "empty scores 1.0" 1.0 empty.Tupelo.Matching.f1

let test_matching_on_bamm_truth () =
  (* Discovery on a few BAMM tasks must reproduce the generator's truth. *)
  let tasks = Workloads.Bamm.pairs_with_truth Workloads.Bamm.Music in
  List.iteri
    (fun i (source, target, truth) ->
      if i < 5 then
        match discover ~source ~target () with
        | D.Mapping m ->
            let found =
              Tupelo.Matching.correspondences ~source m.Tupelo.Mapping.expr
              |> List.filter (fun (_, t) ->
                     List.exists (fun (_, tt) -> String.equal t tt)
                       truth.Workloads.Bamm.attribute_map)
            in
            let s =
              Tupelo.Matching.score
                ~truth:truth.Workloads.Bamm.attribute_map ~found
            in
            Alcotest.(check (float 1e-9))
              (Printf.sprintf "task %d F1" i)
              1.0 s.Tupelo.Matching.f1
        | _ -> Alcotest.fail "BAMM task not discovered")
    tasks

let test_config_defaults () =
  let c = D.config () in
  Alcotest.(check string) "default algorithm" "RBFS"
    (D.algorithm_name c.D.algorithm);
  Alcotest.(check string) "default heuristic" "cosine"
    c.D.heuristic.Heuristics.Heuristic.name;
  Alcotest.(check bool) "algorithm parsing" true
    (D.algorithm_of_string "rbfs" = Some D.Rbfs
    && D.algorithm_of_string "IDA" = Some D.Ida
    && D.algorithm_of_string "ida-tt" = Some D.Ida_tt
    && D.algorithm_of_string "beam" = Some (D.Beam 8)
    && D.algorithm_of_string "beam:32" = Some (D.Beam 32)
    && D.algorithm_of_string "beam:0" = None
    && D.algorithm_of_string "quantum" = None)

(* --- successor memo and the live heap --- *)

(* The shape of perfbench's cold pair: a B-shaped price list (carrier,
   route, cost, fee) against the A-shaped target with one cost column per
   route. Default RBFS examines 489 states on it. Every name carries
   [tag], so pairs with different tags share no names. *)
let cold_pair ?(tag = "c1x0_") () =
  let t = tag in
  let carriers = List.init 8 Fun.id and routes = List.init 3 Fun.id in
  let carrier c = Printf.sprintf "%sC%d" t c and route r = Printf.sprintf "%sR%d" t r in
  let cost c r = string_of_int ((100 * (c + 1)) + (10 * r)) in
  let fee c = string_of_int (15 + c) in
  let rel header rows = Csv.parse_relation (Csv.print (header :: rows)) in
  let source =
    rel
      [ t ^ "Carrier"; t ^ "Route"; t ^ "Cost"; t ^ "AgentFee" ]
      (List.concat_map
         (fun c -> List.map (fun r -> [ carrier c; route r; cost c r; fee c ]) routes)
         carriers)
  and target =
    rel
      ((t ^ "Carrier") :: (t ^ "Fee") :: List.map route routes)
      (List.map (fun c -> carrier c :: fee c :: List.map (cost c) routes) carriers)
  in
  ( Database.add Database.empty (t ^ "Prices") source,
    Database.add Database.empty (t ^ "Flights") target )

let test_successor_memo_counts () =
  let source, target = cold_pair () in
  let agg = Telemetry.Agg.create () in
  let telemetry = Telemetry.create (Telemetry.Agg.sink agg) in
  match D.discover (D.config ~telemetry ()) ~source ~target with
  | D.Mapping m ->
      let st = m.Tupelo.Mapping.stats in
      let counter = Telemetry.Agg.counter agg in
      (* Memoized expansions are still expansions: the paper's counts do
         not move. *)
      Alcotest.(check int) "examined" 489 st.Search.Space.examined;
      Alcotest.(check int) "expanded" 488 st.Search.Space.expanded;
      Alcotest.(check int) "generated" 548 st.Search.Space.generated;
      (* RBFS expands 185 distinct states; 303 re-expansions are hits. *)
      Alcotest.(check int) "successors.miss" 185 (counter "successors.miss");
      Alcotest.(check int) "successors.hit" 303 (counter "successors.hit");
      Alcotest.(check int) "moves.propose runs once per miss" 185
        (Telemetry.Agg.timer_count agg "moves.propose");
      Alcotest.(check int) "goal.test runs once per examined state" 489
        (Telemetry.Agg.timer_count agg "goal.test");
      (* memo.* remain the heuristic memo's: one miss per evaluation. *)
      Alcotest.(check int) "memo.miss" 228 (counter "memo.miss");
      Alcotest.(check int) "memo.hit" 321 (counter "memo.hit");
      Alcotest.(check int) "memo.miss = heuristic evaluations"
        (Telemetry.Agg.timer_count agg "heuristic.eval")
        (counter "memo.miss")
  | _ -> Alcotest.fail "no mapping for the cold pair"

let test_discovery_heap_bounded () =
  (* Every run creates a heuristic memo and a successor memo; once the
     run is over, nothing may keep them alive. Memo tables held in
     Domain.DLS slots leave about 4000 words behind per run. *)
  let source, target = cold_pair () in
  let growth name config =
    let run () = ignore (D.discover config ~source ~target) in
    run ();
    Gc.full_major ();
    let before = (Gc.stat ()).Gc.live_words in
    for _ = 1 to 40 do
      run ()
    done;
    Gc.full_major ();
    let grown = (Gc.stat ()).Gc.live_words - before in
    if grown > 20_000 then
      Alcotest.failf "%s: 40 discoveries left %d words live" name grown
  in
  growth "rbfs, jobs 1" (D.config ());
  growth "astar, jobs 2" (D.config ~algorithm:D.Astar ~jobs:2 ());
  growth "portfolio, jobs 2" (D.config ~algorithm:D.Portfolio ~jobs:2 ())

let test_fresh_pairs_heap_bounded () =
  (* A server discovers fresh pairs: each one interns new names, so the
     pool's ids keep growing. Per-run state may grow with the pairs'
     names, but nothing indexed by value id may be allocated per name:
     such a table grows with the pool and lives as long as it does. *)
  let run i =
    let source, target = cold_pair ~tag:(Printf.sprintf "lh%d_" i) () in
    ignore (D.discover (D.config ()) ~source ~target)
  in
  run 0;
  Gc.full_major ();
  let before = (Gc.stat ()).Gc.live_words in
  let pairs = 40 in
  for i = 1 to pairs do
    run i
  done;
  Gc.full_major ();
  let per_pair = ((Gc.stat ()).Gc.live_words - before) / pairs in
  if per_pair >= 2_000 then
    Alcotest.failf "%d fresh pairs left %d words live per pair" pairs per_pair

let test_finished_run_leaves_nothing_young () =
  (* A finished search is garbage, and the next minor collection must be
     able to drop it rather than promote it. A memo table on the major
     heap whose entries still point at the run's states makes them
     remembered-set roots: before memos started young and were cleared
     at run end, the collection after the 489-state cold pair promoted
     about 163k words. The minor heap is raised so that each search runs
     without a minor collection: RBFS/h1 allocates about 12M words. *)
  let source, target = cold_pair () in
  let saved = Gc.get () in
  Fun.protect ~finally:(fun () -> Gc.set saved) @@ fun () ->
  Gc.set { saved with Gc.minor_heap_size = 16 lsl 20 };
  let promoted name config examined =
    (* A first run interns the pair's names; the measured run adds none. *)
    ignore (D.discover config ~source ~target);
    Gc.minor ();
    let before = Gc.quick_stat () in
    (match D.discover config ~source ~target with
    | D.Mapping m ->
        Alcotest.(check int)
          (name ^ ": examined") examined
          m.Tupelo.Mapping.stats.Search.Space.examined
    | _ -> Alcotest.failf "%s: no mapping for the cold pair" name);
    let ran = Gc.quick_stat () in
    Alcotest.(check int)
      (name ^ ": no minor collection during the search")
      before.Gc.minor_collections ran.Gc.minor_collections;
    Gc.minor ();
    let words =
      int_of_float ((Gc.quick_stat ()).Gc.promoted_words -. ran.Gc.promoted_words)
    in
    if words >= 8_192 then
      Alcotest.failf "%s: the minor collection after the run promoted %d words"
        name words
  in
  promoted "rbfs/cosine" (D.config ()) 489;
  promoted "ida/cosine" (D.config ~algorithm:D.Ida ()) 61;
  promoted "rbfs/h1" (D.config ~heuristic:Heuristics.Heuristic.h1 ()) 2_963

(* --- per-state kernels allocate nothing per row ---

   Once the target's row index exists, a Superset goal test streams the
   state relation's rows and allocates a constant number of minor words
   whatever their number; so does a fingerprint recomputed (under another
   relation name) over a relation whose column lanes are cached. Each goal
   test gets a relation it has never seen, as a fresh successor would. *)

let minor_words_per_call calls f =
  let w0 = Gc.minor_words () in
  for i = 0 to calls - 1 do
    ignore (Sys.opaque_identity (f i))
  done;
  (Gc.minor_words () -. w0) /. float_of_int calls

let test_per_state_kernels_allocation () =
  let rel = Intern.string_id "alloc/R" and other = Intern.string_id "alloc/S" in
  let atts = [| Intern.string_id "alloc/a"; Intern.string_id "alloc/b" |] in
  let rows n =
    List.init n (fun i ->
        [| Intern.value_id (Value.Int i); Intern.value_id (Value.String (string_of_int (i mod 7))) |])
  in
  let target = Idb.add Idb.empty rel (Irel.of_rows atts (rows 4)) in
  let calls = 20 in
  let costs n =
    let states =
      Array.init calls (fun _ -> Idb.add Idb.empty rel (Irel.of_rows atts (rows n)))
    in
    assert (Tupelo.Goal.reached_interned Tupelo.Goal.Superset ~target states.(0));
    let goal =
      minor_words_per_call calls (fun i ->
          Tupelo.Goal.reached_interned Tupelo.Goal.Superset ~target states.(i))
    in
    let r = Irel.of_rows atts (rows n) in
    ignore (Irel.fingerprint ~name:other r);
    let fp =
      minor_words_per_call calls (fun i ->
          Irel.fingerprint ~name:(if i land 1 = 0 then rel else other) r)
    in
    (goal, fp)
  in
  let goal_small, fp_small = costs 8 and goal_big, fp_big = costs 4096 in
  let check what small big =
    if big > small +. 1. || big > 256. then
      Alcotest.failf "%s: %.1f minor words per call at 8 rows, %.1f at 4096"
        what small big
  in
  check "Goal.reached_interned Superset" goal_small goal_big;
  check "Irel.fingerprint on cached lanes" fp_small fp_big

let suite =
  [
    Alcotest.test_case "goal modes" `Quick test_goal_modes;
    Alcotest.test_case "goal mode strings" `Quick test_goal_mode_strings;
    Alcotest.test_case "state caching" `Quick test_state;
    Alcotest.test_case "moves: synthetic => only renames" `Quick test_moves_synthetic_only_renames;
    Alcotest.test_case "moves: nothing at the goal" `Quick test_moves_no_renames_when_covered;
    Alcotest.test_case "moves: B->A families" `Quick test_moves_flights_b_to_a;
    Alcotest.test_case "moves: A->B demote" `Quick test_moves_flights_a_to_b;
    Alcotest.test_case "moves: demote not repeated" `Quick test_moves_demote_not_repeated;
    Alcotest.test_case "moves: B->C partition and λ" `Quick test_moves_partition_b_to_c;
    Alcotest.test_case "moves: all candidates applicable" `Quick test_moves_all_applicable;
    Alcotest.test_case "successors deduplicated" `Quick test_successors_dedupe;
    Alcotest.test_case "paranoid cross-check" `Quick test_paranoid_cross_check;
    Alcotest.test_case "collision accounting" `Quick
      test_successors_collision_accounting;
    Alcotest.test_case "state cell guard" `Quick test_state_cell_guard;
    Alcotest.test_case "λ enumeration without signature" `Quick test_lambda_enumeration_without_signature;
    Alcotest.test_case "discover: Flights pairs" `Quick test_discover_flights_all_pairs;
    Alcotest.test_case "discover: B->A exact (Example 2)" `Quick test_discover_b_to_a_exact;
    Alcotest.test_case "discover: synthetic sizes" `Quick test_discover_synthetic;
    Alcotest.test_case "discover: algorithms agree on cost" `Quick test_discover_algorithms_agree;
    Alcotest.test_case "discover: inventory λ tasks" `Quick test_discover_inventory;
    Alcotest.test_case "discover: real estate λ task" `Quick test_discover_real_estate;
    Alcotest.test_case "discover: BAMM sample" `Quick test_discover_bamm_sample;
    Alcotest.test_case "discover: unreachable target exhausts" `Quick test_discover_unreachable;
    Alcotest.test_case "states examined reported" `Quick test_states_examined_reported;
    Alcotest.test_case "discover: identity mapping" `Quick test_discover_identity;
    Alcotest.test_case "refine: A->B σ post-processing" `Quick test_refine_a_to_b;
    Alcotest.test_case "refine: projection shaping" `Quick test_refine_projection_only;
    Alcotest.test_case "refine: selection pass-through" `Quick test_refine_select_passthrough;
    Alcotest.test_case "critical TNF round-trip (§4)" `Quick test_critical_roundtrip;
    Alcotest.test_case "discovery from flat TNF instances" `Quick test_critical_discovery;
    Alcotest.test_case "matching: correspondences traced" `Quick test_matching_correspondences;
    Alcotest.test_case "matching: scoring" `Quick test_matching_score;
    Alcotest.test_case "matching: BAMM ground truth" `Quick test_matching_on_bamm_truth;
    Alcotest.test_case "config defaults" `Quick test_config_defaults;
    Alcotest.test_case "successor memo: cold-pair counts" `Quick
      test_successor_memo_counts;
    Alcotest.test_case "discover: live heap bounded over repeated runs" `Quick
      test_discovery_heap_bounded;
    Alcotest.test_case "discover: live heap bounded over fresh pairs" `Quick
      test_fresh_pairs_heap_bounded;
    Alcotest.test_case "discover: a finished run leaves nothing young alive"
      `Quick test_finished_run_leaves_nothing_young;
    Alcotest.test_case "goal test and fingerprint: no minor words per row"
      `Quick test_per_state_kernels_allocation;
  ]
