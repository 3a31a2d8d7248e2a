open Relational

let db_t = Alcotest.testable Database.pp Database.equal
let no_registry = Fira.Semfun.empty_registry

let test_example2 () =
  (* The paper's Example 2: the hand-written expression maps FlightsB
     exactly onto FlightsA. *)
  let out =
    Fira.Expr.eval Workloads.Flights.registry
      Workloads.Flights.example2_expression Workloads.Flights.b
  in
  Alcotest.check db_t "R4 = FlightsA" Workloads.Flights.a out

let test_partition_consumes_source () =
  let db = Workloads.Flights.b in
  let out =
    Fira.Eval.apply no_registry
      (Fira.Op.Partition { rel = "Prices"; col = "Carrier" })
      db
  in
  Alcotest.(check (list string)) "carrier relations replace Prices"
    [ "AirEast"; "JetWest" ]
    (Database.relation_names out)

let test_product_creates_new_relation () =
  let db =
    Database.of_list
      [
        ("l", Relation.of_strings [ "x" ] [ [ "1" ] ]);
        ("r", Relation.of_strings [ "y" ] [ [ "2" ] ]);
      ]
  in
  let out =
    Fira.Eval.apply no_registry
      (Fira.Op.Product { left = "l"; right = "r"; out = "lr" })
      db
  in
  Alcotest.(check (list string)) "operands remain" [ "l"; "lr"; "r" ]
    (Database.relation_names out);
  Alcotest.(check int) "product arity" 2
    (Schema.arity (Relation.schema (Database.find out "lr")))

let test_rename_rel () =
  let out =
    Fira.Eval.apply no_registry
      (Fira.Op.RenameRel { old_name = "Prices"; new_name = "P2" })
      Workloads.Flights.b
  in
  Alcotest.(check (list string)) "renamed" [ "P2" ] (Database.relation_names out)

let test_applicability () =
  let db = Workloads.Flights.b in
  let check_reason op expect_applicable =
    Alcotest.(check bool)
      (Fira.Op.to_string op) expect_applicable
      (Fira.Eval.applicable no_registry op db)
  in
  check_reason (Fira.Op.Drop { rel = "Prices"; col = "Cost" }) true;
  check_reason (Fira.Op.Drop { rel = "Nope"; col = "Cost" }) false;
  check_reason (Fira.Op.Drop { rel = "Prices"; col = "Nope" }) false;
  check_reason
    (Fira.Op.RenameAtt { rel = "Prices"; old_name = "Cost"; new_name = "Route" })
    false;
  check_reason
    (Fira.Op.RenameAtt { rel = "Prices"; old_name = "Cost"; new_name = "Cost2" })
    true;
  check_reason
    (Fira.Op.Apply { rel = "Prices"; func = "nope"; inputs = [ "Cost" ]; output = "o" })
    false;
  check_reason (Fira.Op.Demote { rel = "Prices"; att_att = "Cost"; rel_att = "R" }) false;
  check_reason (Fira.Op.Demote { rel = "Prices"; att_att = "A"; rel_att = "A" }) false;
  check_reason (Fira.Op.Demote { rel = "Prices"; att_att = "A"; rel_att = "R" }) true;
  (* explain gives a reason exactly when inapplicable *)
  Alcotest.(check bool) "explain none when applicable" true
    (Fira.Eval.explain_inapplicable no_registry
       (Fira.Op.Merge { rel = "Prices"; col = "Carrier" })
       db
    = None);
  Alcotest.(check bool) "explain some when inapplicable" true
    (Fira.Eval.explain_inapplicable no_registry
       (Fira.Op.Merge { rel = "X"; col = "Carrier" })
       db
    <> None)

let test_drop_last_column_rejected () =
  let db = Database.of_list [ ("r", Relation.of_strings [ "only" ] [ [ "1" ] ]) ] in
  Alcotest.(check bool) "cannot drop last column" false
    (Fira.Eval.applicable no_registry (Fira.Op.Drop { rel = "r"; col = "only" }) db)

let test_apply_semantics () =
  let f =
    Fira.Semfun.make
      ~impl:(fun vs ->
        match List.map Value.as_int vs with
        | [ Some a ] -> Value.Int (a * 10)
        | _ -> Value.Null)
      ~name:"times10" ~arity:1
      ~examples:[ ([ Value.Int 1 ], Value.Int 10) ]
      ()
  in
  let registry = Fira.Semfun.of_list [ f ] in
  let db = Database.of_list [ ("r", Relation.of_strings [ "n" ] [ [ "1" ]; [ "2" ] ]) ] in
  let op = Fira.Op.Apply { rel = "r"; func = "times10"; inputs = [ "n" ]; output = "out" } in
  (* Full semantics uses the implementation on every tuple. *)
  let full = Fira.Eval.apply registry op db in
  Alcotest.(check (list string)) "full semantics" [ "10"; "20" ]
    (List.sort String.compare
       (List.map Value.to_string (Relation.column (Database.find full "r") "out")));
  (* Syntactic semantics only knows the example (1 -> 10); 2 maps to null. *)
  let syn = Fira.Eval.apply_syntactic registry op db in
  let vals =
    List.map Value.to_string (Relation.column (Database.find syn "r") "out")
    |> List.sort String.compare
  in
  Alcotest.(check (list string)) "syntactic semantics" [ "10"; "NULL" ] vals

let test_expr_compose_pp () =
  let e1 = Fira.Expr.of_ops [ Fira.Op.Drop { rel = "r"; col = "a" } ] in
  let e2 = Fira.Expr.of_ops [ Fira.Op.Merge { rel = "r"; col = "k" } ] in
  let e = Fira.Expr.compose e1 e2 in
  Alcotest.(check int) "compose length" 2 (Fira.Expr.length e);
  Alcotest.(check bool) "paper pp numbers steps" true
    (let s = Fira.Expr.to_paper_string e in
     String.length s > 0
     && String.sub s 0 2 = "R1"
     && String.length (String.concat "" (String.split_on_char '\n' s)) > 0);
  Alcotest.(check bool) "ops round-trip" true
    (Fira.Expr.equal e (Fira.Expr.of_ops (Fira.Expr.ops e)))

let test_inapplicable_raises () =
  Alcotest.(check bool) "apply raises on inapplicable op" true
    (match
       Fira.Eval.apply no_registry
         (Fira.Op.Drop { rel = "nope"; col = "c" })
         Database.empty
     with
    | exception Fira.Eval.Error _ -> true
    | _ -> false)

let test_semfun_annotations () =
  let f =
    Fira.Semfun.make
      ~signature:([ "Cost"; "AgentFee" ], "TotalCost")
      ~name:"total_cost" ~arity:2
      ~examples:
        [
          ([ Value.Int 100; Value.Int 15 ], Value.Int 115);
          ([ Value.Int 200; Value.Int 16 ], Value.Int 216);
        ]
      ()
  in
  let annotations = Fira.Semfun.encode_annotation f in
  Alcotest.(check int) "one annotation per example" 2 (List.length annotations);
  List.iter
    (fun a ->
      Alcotest.(check bool) "recognized as annotation" true
        (Fira.Semfun.is_annotation a))
    annotations;
  match Fira.Semfun.decode_annotations ("noise" :: annotations) with
  | [ g ] ->
      Alcotest.(check string) "name" "total_cost" (Fira.Semfun.name g);
      Alcotest.(check int) "arity" 2 (Fira.Semfun.arity g);
      Alcotest.(check int) "examples" 2 (List.length (Fira.Semfun.examples g));
      Alcotest.(check bool) "signature preserved" true
        (Fira.Semfun.signature g = Some ([ "Cost"; "AgentFee" ], "TotalCost"));
      Alcotest.(check bool) "example lookup works" true
        (Fira.Semfun.apply_example g [ Value.Int 200; Value.Int 16 ]
        = Some (Value.Int 216))
  | fs -> Alcotest.fail (Printf.sprintf "expected 1 function, got %d" (List.length fs))

let test_full_fira_ops () =
  (* σ / ∪ / − / ⋈ — the beyond-ℒ extension operators. *)
  let db =
    Database.of_list
      [
        ("l", Relation.of_strings [ "x" ] [ [ "1" ]; [ "2" ] ]);
        ("r", Relation.of_strings [ "x" ] [ [ "2" ]; [ "3" ] ]);
        ("j", Relation.of_strings [ "x"; "y" ] [ [ "2"; "b" ]; [ "9"; "z" ] ]);
      ]
  in
  let u = Fira.Eval.apply no_registry (Fira.Op.Union { left = "l"; right = "r"; out = "u" }) db in
  Alcotest.(check int) "union" 3 (Relation.cardinality (Database.find u "u"));
  let d = Fira.Eval.apply no_registry (Fira.Op.Diff { left = "l"; right = "r"; out = "d" }) db in
  Alcotest.(check (list string)) "diff" [ "1" ]
    (List.map Value.to_string (Relation.column (Database.find d "d") "x"));
  let j = Fira.Eval.apply no_registry (Fira.Op.Join { left = "l"; right = "j"; out = "lj" }) db in
  Alcotest.(check int) "natural join" 1 (Relation.cardinality (Database.find j "lj"));
  let sel =
    Fira.Eval.apply no_registry
      (Fira.Op.Select
         { rel = "l";
           pred = Algebra.Cmp (Algebra.Gt, Algebra.Att "x", Algebra.Const (Value.Int 1)) })
      db
  in
  Alcotest.(check int) "select" 1 (Relation.cardinality (Database.find sel "l"));
  (* is_core distinguishes ℒ from the extensions. *)
  Alcotest.(check bool) "union is not core" false
    (Fira.Op.is_core (Fira.Op.Union { left = "l"; right = "r"; out = "u" }));
  Alcotest.(check bool) "merge is core" true
    (Fira.Op.is_core (Fira.Op.Merge { rel = "l"; col = "x" }));
  (* Applicability: schema mismatch rejected. *)
  Alcotest.(check bool) "union schema mismatch inapplicable" false
    (Fira.Eval.applicable no_registry
       (Fira.Op.Union { left = "l"; right = "j"; out = "u" })
       db)

let test_c_to_b_expression () =
  (* The hand-written full-FIRA mapping for the direction ℒ cannot
     express: its result contains FlightsB. *)
  let out =
    Fira.Expr.eval Workloads.Flights.registry
      Workloads.Flights.c_to_b_expression Workloads.Flights.c
  in
  Alcotest.(check bool) "result contains FlightsB" true
    (Database.contains out Workloads.Flights.b);
  (* And projecting to the target schema gives exactly FlightsB. *)
  let refined =
    Tupelo.Refine.project_to_target ~target_schema:Workloads.Flights.b out
  in
  Alcotest.check db_t "refined equals FlightsB" Workloads.Flights.b refined

let test_pred_syntax_roundtrip () =
  let preds =
    [
      Algebra.True;
      Algebra.False;
      Algebra.Cmp (Algebra.Eq, Algebra.Att "a", Algebra.Const (Value.Int 5));
      Algebra.Cmp (Algebra.Neq, Algebra.Att "a", Algebra.Const (Value.String "hi there"));
      Algebra.Cmp (Algebra.Leq, Algebra.Att "a", Algebra.Att "b");
      Algebra.In (Algebra.Att "route", [ Value.String "ATL29"; Value.Int 7 ]);
      Algebra.And
        ( Algebra.Cmp (Algebra.Gt, Algebra.Att "x", Algebra.Const (Value.Int 0)),
          Algebra.Not
            (Algebra.Or
               ( Algebra.Cmp (Algebra.Lt, Algebra.Att "y", Algebra.Const (Value.Int 9)),
                 Algebra.True )) );
    ]
  in
  List.iter
    (fun p ->
      let s = Fira.Pred_syntax.to_string p in
      match Fira.Pred_syntax.of_string s with
      | Ok p' ->
          Alcotest.(check string) ("round-trip: " ^ s) s
            (Fira.Pred_syntax.to_string p')
      | Error m -> Alcotest.fail (s ^ ": " ^ m))
    preds;
  Alcotest.(check bool) "garbage rejected" true
    (match Fira.Pred_syntax.of_string "a == (" with Error _ -> true | Ok _ -> false);
  Alcotest.(check bool) "quoted string with spaces" true
    (match Fira.Pred_syntax.of_string "name = 'John Smith'" with
    | Ok (Algebra.Cmp (Algebra.Eq, Algebra.Att "name", Algebra.Const (Value.String "John Smith"))) -> true
    | _ -> false)

let test_select_op_parses () =
  let op =
    Fira.Op.Select
      { rel = "Prices";
        pred =
          Algebra.In
            (Algebra.Att "Route", [ Value.String "ATL29"; Value.String "ORD17" ]) }
  in
  match Fira.Parser.op_of_string (Fira.Op.to_string op) with
  | Ok parsed ->
      Alcotest.(check string) "select round-trips"
        (Fira.Op.to_string op) (Fira.Op.to_string parsed)
  | Error m -> Alcotest.fail m

let test_parser_roundtrip () =
  let ops =
    [
      Fira.Op.Promote { rel = "Prices"; name_col = "Route"; value_col = "Cost" };
      Fira.Op.demote "Prices";
      Fira.Op.Dereference { rel = "R"; target = "Cost"; pointer_col = "ATT" };
      Fira.Op.Partition { rel = "R"; col = "Carrier" };
      Fira.Op.Product { left = "l"; right = "r"; out = "lr" };
      Fira.Op.Drop { rel = "R"; col = "Cost" };
      Fira.Op.Merge { rel = "R"; col = "Carrier" };
      Fira.Op.RenameAtt { rel = "R"; old_name = "a"; new_name = "b" };
      Fira.Op.RenameRel { old_name = "R"; new_name = "S" };
      Fira.Op.Apply
        { rel = "R"; func = "f"; inputs = [ "x"; "y" ]; output = "z" };
      Fira.Op.Union { left = "l"; right = "r"; out = "u" };
      Fira.Op.Diff { left = "l"; right = "r"; out = "d" };
      Fira.Op.Join { left = "l"; right = "r"; out = "j" };
      Fira.Op.Select
        { rel = "R";
          pred = Algebra.Cmp (Algebra.Eq, Algebra.Att "a", Algebra.Const (Value.Int 1)) };
    ]
  in
  let expr = Fira.Expr.of_ops ops in
  (match Fira.Parser.expr_of_string (Fira.Expr.to_string expr) with
  | Ok parsed ->
      Alcotest.(check bool) "expression round-trips" true
        (Fira.Expr.equal expr parsed)
  | Error m -> Alcotest.fail m);
  (* The file form (with header comment) parses too. *)
  match Fira.Parser.expr_of_string (Fira.Parser.expr_to_file_string expr) with
  | Ok parsed ->
      Alcotest.(check bool) "file form round-trips" true
        (Fira.Expr.equal expr parsed)
  | Error m -> Alcotest.fail m

let test_parser_errors () =
  let bad =
    [
      "frobnicate[x](r)";
      "promote[RouteCost](Prices)";
      "rename_att[ab](R)";
      "drop[](R)";
      "merge[x]";
      "apply[f->z](R)";
      "rename_rel[a->b](R)";
    ]
  in
  List.iter
    (fun line ->
      match Fira.Parser.op_of_string line with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "parsed bad input %S" line))
    bad;
  (* error carries the line number *)
  match Fira.Parser.expr_of_string "drop[a](r)\nbogus[x](y)" with
  | Error m ->
      Alcotest.(check bool) "line number reported" true
        (String.length m >= 6 && String.sub m 0 6 = "line 2")
  | Ok _ -> Alcotest.fail "expected parse error"

let test_parser_comments () =
  match
    Fira.Parser.expr_of_string "# header\n\n  drop[a](r)\n# done\n"
  with
  | Ok e -> Alcotest.(check int) "one op" 1 (Fira.Expr.length e)
  | Error m -> Alcotest.fail m

let test_registry () =
  let f = Fira.Semfun.make ~name:"f" ~arity:1 ~examples:[] () in
  let reg = Fira.Semfun.of_list [ f ] in
  Alcotest.(check bool) "find" true (Fira.Semfun.find reg "f" <> None);
  Alcotest.(check bool) "find missing" true (Fira.Semfun.find reg "g" = None);
  Alcotest.(check bool) "duplicate registration raises" true
    (match Fira.Semfun.register reg f with
    | exception Fira.Semfun.Error _ -> true
    | _ -> false);
  Alcotest.(check bool) "arity mismatch raises" true
    (match Fira.Semfun.apply f [ Value.Int 1; Value.Int 2 ] with
    | exception Fira.Semfun.Error _ -> true
    | _ -> false)

(* Telemetry counters are named [<prefix><kind>] and consumers sum them
   by name, so the precomputed names must read exactly as before. *)
let test_event_names () =
  let open Fira.Op in
  let ops =
    [
      Promote { rel = "r"; name_col = "a"; value_col = "b" };
      Demote { rel = "r"; att_att = "a"; rel_att = "b" };
      Dereference { rel = "r"; target = "a"; pointer_col = "b" };
      Partition { rel = "r"; col = "a" };
      Product { left = "r"; right = "s"; out = "t" };
      Drop { rel = "r"; col = "a" };
      Merge { rel = "r"; col = "a" };
      RenameAtt { rel = "r"; old_name = "a"; new_name = "b" };
      RenameRel { old_name = "r"; new_name = "s" };
      Apply { rel = "r"; func = "f"; inputs = [ "a" ]; output = "b" };
      Union { left = "r"; right = "s"; out = "t" };
      Diff { left = "r"; right = "s"; out = "t" };
      Join { left = "r"; right = "s"; out = "t" };
      Select { rel = "r"; pred = Relational.Algebra.True };
    ]
  in
  let proposed = event_names "moves.proposed." in
  Alcotest.(check (list string))
    "one name per kind"
    [
      "moves.proposed.promote"; "moves.proposed.demote";
      "moves.proposed.dereference"; "moves.proposed.partition";
      "moves.proposed.product"; "moves.proposed.drop"; "moves.proposed.merge";
      "moves.proposed.rename_att"; "moves.proposed.rename_rel";
      "moves.proposed.apply"; "moves.proposed.union"; "moves.proposed.diff";
      "moves.proposed.join"; "moves.proposed.select";
    ]
    (List.map proposed ops);
  List.iter
    (fun op ->
      Alcotest.(check string) "prefix ^ kind_name"
        ("moves.applied." ^ kind_name op)
        (event_names "moves.applied." op))
    ops

let suite =
  [
    Alcotest.test_case "Example 2 end-to-end" `Quick test_example2;
    Alcotest.test_case "partition consumes source" `Quick test_partition_consumes_source;
    Alcotest.test_case "product creates new relation" `Quick test_product_creates_new_relation;
    Alcotest.test_case "rename relation" `Quick test_rename_rel;
    Alcotest.test_case "applicability checks" `Quick test_applicability;
    Alcotest.test_case "cannot drop last column" `Quick test_drop_last_column_rejected;
    Alcotest.test_case "λ full vs syntactic semantics" `Quick test_apply_semantics;
    Alcotest.test_case "expression compose and pp" `Quick test_expr_compose_pp;
    Alcotest.test_case "inapplicable op raises" `Quick test_inapplicable_raises;
    Alcotest.test_case "semfun TNF annotations" `Quick test_semfun_annotations;
    Alcotest.test_case "full-FIRA extension ops" `Quick test_full_fira_ops;
    Alcotest.test_case "hand-written C->B mapping" `Quick test_c_to_b_expression;
    Alcotest.test_case "predicate syntax round-trip" `Quick test_pred_syntax_roundtrip;
    Alcotest.test_case "select op parses" `Quick test_select_op_parses;
    Alcotest.test_case "parser round-trip" `Quick test_parser_roundtrip;
    Alcotest.test_case "parser rejects malformed input" `Quick test_parser_errors;
    Alcotest.test_case "parser skips comments" `Quick test_parser_comments;
    Alcotest.test_case "semfun registry" `Quick test_registry;
    Alcotest.test_case "op: event names, one per kind" `Quick test_event_names;
  ]
