(* The bulk migration executor (lib/migrate): the chunked multi-domain
   run must equal sequential Fira.Eval, id for id, on random
   (database, program) pairs, and the streaming CSV ingest/emit path
   must agree with the one-shot parser — including a quoted multi-line
   field split across a chunk boundary. *)

open Relational
module Scenario = Fuzz.Scenario

let canonical_idb db = Idb.of_database db

(* --- the equivalence property ---

   500 generated scenarios (random source database + random applicable ℒ
   program), each executed chunked with deliberately tiny chunks — so
   every chunk-merge plan (promote's global schema pass, merge's
   cross-chunk regroup, partition's class reassembly, diff's sorted
   probe) actually crosses chunk boundaries — and with both a sequential
   and a 2-domain pool. The result must equal the boxed sequential
   evaluator's, id for id. *)
let test_equivalence () =
  let chunk_sizes = [| 1; 2; 3; 7 |] in
  for seed = 1 to 500 do
    let s = Scenario.generate ~depth:4 seed in
    let expected = canonical_idb (Fira.Expr.eval s.registry s.program s.source) in
    let chunk_rows = chunk_sizes.(seed mod Array.length chunk_sizes) in
    let jobs = 1 + (seed mod 2) in
    let cfg = Migrate.config ~chunk_rows ~jobs () in
    let got, stats =
      Migrate.run_idb ~registry:s.registry cfg s.program
        (canonical_idb s.source)
    in
    if not (Idb.equal got expected) then
      Alcotest.failf
        "seed %d (chunk_rows=%d jobs=%d): chunked result diverges from \
         sequential eval\nprogram:\n%s"
        seed chunk_rows jobs
        (Fira.Expr.to_string s.program);
    if stats.Migrate.ops <> Fira.Expr.length s.program then
      Alcotest.failf "seed %d: %d ops applied, program has %d" seed
        stats.Migrate.ops
        (Fira.Expr.length s.program)
  done

(* --- edge cases --- *)

let expr_exn text =
  match Fira.Parser.expr_of_string text with
  | Ok e -> e
  | Error m -> Alcotest.failf "bad test program: %s" m

let rel_of_strings header rows =
  Irel.of_relation (Relation.of_strings header rows)

let idb_of name r = Idb.add Idb.empty (Intern.string_id name) r

let test_empty_relation () =
  (* A rowless relation flows through per-row and global operators alike
     and keeps its (renamed) schema. *)
  let source = idb_of "R" (rel_of_strings [ "a"; "b"; "c" ] []) in
  let program = expr_exn "drop[c](R)\nmerge[a](R)\nrename_rel[R->Out]" in
  let cfg = Migrate.config ~chunk_rows:2 ~jobs:2 () in
  let got, stats = Migrate.run_idb cfg program source in
  let out = Idb.find got (Intern.string_id "Out") in
  Alcotest.(check int) "no rows" 0 (Irel.cardinality out);
  Alcotest.(check int) "schema survives" 2 (Irel.arity out);
  Alcotest.(check int) "three ops ran" 3 stats.Migrate.ops

let test_single_chunk_matches_eval () =
  (* chunk_rows larger than the relation: one chunk, still equal. *)
  let s = Scenario.generate ~depth:5 77 in
  let expected = canonical_idb (Fira.Expr.eval s.registry s.program s.source) in
  let cfg = Migrate.config ~chunk_rows:1_000_000 ~jobs:1 () in
  let got, _ =
    Migrate.run_idb ~registry:s.registry cfg s.program (canonical_idb s.source)
  in
  Alcotest.(check bool) "single chunk = sequential" true
    (Idb.equal got expected)

let test_absent_relation_error () =
  let source = idb_of "R" (rel_of_strings [ "a" ] [ [ "1" ] ]) in
  let cfg = Migrate.config () in
  Alcotest.(check bool) "clear error names the relation" true
    (match Migrate.run_idb cfg (expr_exn "drop[a](Missing)") source with
    | exception Migrate.Error m ->
        (* same phrasing as Fira.Eval: ... inapplicable: no relation ... *)
        let has needle =
          let rec go i =
            i + String.length needle <= String.length m
            && (String.sub m i (String.length needle) = needle || go (i + 1))
          in
          go 0
        in
        has "inapplicable" && has "no relation \"Missing\""
    | _ -> false)

let test_stop_cancels () =
  let source = idb_of "R" (rel_of_strings [ "a"; "b" ] [ [ "1"; "2" ] ]) in
  let program = expr_exn "drop[b](R)\nrename_rel[R->Out]" in
  let polls = ref 0 in
  let cfg =
    Migrate.config
      ~stop:(fun () ->
        incr polls;
        !polls > 1)
      ()
  in
  Alcotest.(check bool) "second op cancelled" true
    (match Migrate.run_idb cfg program source with
    | exception Migrate.Cancelled -> true
    | _ -> false)

let with_temp_csv contents f =
  let path = Filename.temp_file "tupelo_migrate" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc contents;
      close_out oc;
      let ic = open_in_bin path in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> f path ic))

let test_ingest_matches_parse_relation () =
  (* Chunked interning ingest — including a quoted multi-line field that
     a row-count chunk boundary falls inside — equals the boxed one-shot
     parse. chunk_rows=2 puts a flush right before the multi-line row. *)
  let doc =
    "name,note,price\nwidget,plain,25\ngadget,\"spans,\nlines\",60\n\
     gizmo,\"he said \"\"hi\"\"\",\nsprocket,,19\n"
  in
  let expected = Irel.of_relation (Csv.parse_relation doc) in
  with_temp_csv doc (fun _path ic ->
      let cfg = Migrate.config ~chunk_rows:2 ~jobs:1 () in
      let cdb = Migrate.ingest_channel cfg Migrate.Cdb.empty ~name:"R" ic in
      Alcotest.(check int) "two chunks of two" 2
        (Migrate.Cdb.chunk_count cdb);
      let got = Idb.find (Migrate.Cdb.to_idb cdb) (Intern.string_id "R") in
      Alcotest.(check bool) "ingest = parse_relation" true
        (Irel.equal got expected))

let test_ingest_errors () =
  let cfg = Migrate.config () in
  with_temp_csv "" (fun _ ic ->
      Alcotest.(check bool) "empty document" true
        (match Migrate.ingest_channel cfg Migrate.Cdb.empty ~name:"R" ic with
        | exception Migrate.Error _ -> true
        | _ -> false));
  with_temp_csv "a,a\n1,2\n" (fun _ ic ->
      Alcotest.(check bool) "duplicate attribute" true
        (match Migrate.ingest_channel cfg Migrate.Cdb.empty ~name:"R" ic with
        | exception Migrate.Error _ -> true
        | _ -> false));
  with_temp_csv "a,,b\n1,2,3\n" (fun _ ic ->
      Alcotest.(check string) "empty attribute name"
        "migrate: relation \"R\": empty attribute name"
        (match Migrate.ingest_channel cfg Migrate.Cdb.empty ~name:"R" ic with
        | exception Migrate.Error msg -> msg
        | _ -> "accepted"));
  (* A second relation under a bound name is refused, not swapped in. *)
  with_temp_csv "a\n1\n" (fun _ ic ->
      let cdb = Migrate.ingest_channel cfg Migrate.Cdb.empty ~name:"R" ic in
      with_temp_csv "a\n2\n" (fun _ ic ->
          Alcotest.(check string) "duplicate relation name"
            "migrate: relation \"R\": duplicate relation name"
            (match Migrate.ingest_channel cfg cdb ~name:"R" ic with
            | exception Migrate.Error msg -> msg
            | _ -> "accepted")))

let test_emit_roundtrip () =
  (* emit_channel then parse_relation recovers the relation (modulo the
     usual CSV type-guess on cell strings, which to_string survives for
     interned values by construction). *)
  let r =
    rel_of_strings
      [ "name"; "qty"; "note" ]
      [
        [ "widget"; "2"; "with,comma" ];
        [ "gadget"; "5"; "multi\nline" ];
        [ "gizmo"; ""; "quote\"y" ];
      ]
  in
  let path = Filename.temp_file "tupelo_emit" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      Migrate.emit_channel (Migrate.config ()) oc r;
      close_out oc;
      let ic = open_in_bin path in
      let doc =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let got = Irel.of_relation (Csv.parse_relation doc) in
      Alcotest.(check bool) "emit then parse = id" true
        (Irel.equal got r))

let test_cdb_roundtrip () =
  (* of_idb with tiny chunks, then to_idb, is the identity. *)
  for seed = 1 to 20 do
    let s = Scenario.generate ~depth:0 seed in
    let idb = canonical_idb s.source in
    let cdb = Migrate.Cdb.of_idb ~chunk_rows:1 idb in
    (* one chunk per row, plus one schema-carrying empty chunk per
       rowless relation *)
    let empties =
      Idb.fold
        (fun _ r n -> if Irel.cardinality r = 0 then n + 1 else n)
        idb 0
    in
    Alcotest.(check int)
      (Printf.sprintf "seed %d: one row per chunk" seed)
      (Migrate.Cdb.rows cdb + empties)
      (Migrate.Cdb.chunk_count cdb);
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: to_idb ∘ of_idb = id" seed)
      true
      (Idb.equal idb (Migrate.Cdb.to_idb cdb))
  done

(* --- one applicability check ---

   Every operator instance over a scenario database's names, plus an
   absent relation and attribute, with no applicability filter: the boxed
   check, the interned check and a chunked run (chunk_rows 1 and 3) must
   agree exactly — all applicable, or all inapplicable for the same
   reason. Scenario data names relations in its cells, so ℘ group-name
   clashes occur; a relation named after the first cell of the database
   adds more. *)

let migrate_reason registry op db ~chunk_rows =
  let cfg = Migrate.config ~chunk_rows ~jobs:1 () in
  match
    Migrate.run ~registry cfg (Fira.Expr.of_ops [ op ])
      (Migrate.Cdb.of_database ~chunk_rows db)
  with
  | _ -> None
  | exception Migrate.Error m ->
      let prefix =
        Printf.sprintf "migrate: %s inapplicable: " (Fira.Op.to_string op)
      in
      let n = String.length prefix in
      if String.starts_with ~prefix m then
        Some (String.sub m n (String.length m - n))
      else Some ("unexpected error: " ^ m)

(* [db] plus a relation named by its first non-null cell, when that name
   is free. *)
let with_clash db =
  let first_value =
    List.find_opt (fun v -> not (Value.is_null v)) (Database.all_values db)
  in
  match (first_value, Database.relations db) with
  | Some v, (_, r) :: _ when not (Database.mem db (Value.to_string v)) ->
      Database.add db (Value.to_string v) r
  | _ -> db

let check_cross_form registry db =
  let idb = Idb.of_database db in
  let rels = Database.relation_names db @ [ "Absent" ] in
  let atts = Database.all_attributes db @ [ "absent" ] in
  List.for_all
    (fun op ->
      let boxed = Fira.Eval.explain_inapplicable registry op db in
      let agree =
        Fira.Eval.iexplain_inapplicable registry op idb = boxed
        && migrate_reason registry op db ~chunk_rows:1 = boxed
        && migrate_reason registry op db ~chunk_rows:3 = boxed
      in
      if not agree then
        QCheck2.Test.fail_reportf "%s on %s: boxed %s" (Fira.Op.to_string op)
          (Database.canonical_key db)
          (Option.value boxed ~default:"applicable");
      agree)
    (All_ops.all ~registry ~rels ~atts)

let prop_one_applicability_check =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:50
       ~name:"applicability: boxed = interned = chunked, reason for reason"
       QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 0 3))
       (fun (seed, depth) ->
         let s = Scenario.generate ~depth seed in
         List.for_all
           (check_cross_form s.registry)
           [ s.source; s.target; with_clash s.source ]))

(* --- ℘ group names ---

   Int 1 and Float 1.0 are two values, so two groups, named by their
   printed forms "1" and "1.0" in every evaluator. *)
let test_partition_group_names () =
  let open Value in
  let r =
    Relation.of_rows
      (Schema.of_list [ "k"; "v" ])
      (List.map Row.of_list
         [
           [ Float 1.0; String "b" ]; [ Int 1; String "a" ]; [ Int 2; String "c" ];
         ])
  in
  let db = Database.of_list [ ("R", r) ] in
  let op = Fira.Op.Partition { rel = "R"; col = "k" } in
  let names_of_idb idb = List.map Intern.string_of_id (Idb.names idb) in
  let check what names =
    Alcotest.(check (list string)) what [ "1"; "1.0"; "2" ]
      (List.sort String.compare names)
  in
  let registry = Fira.Semfun.empty_registry in
  check "boxed" (Database.relation_names (Fira.Eval.apply registry op db));
  check "interned"
    (names_of_idb
       (fst
          (Fira.Eval.apply_interned_delta ~semantics:`Full registry op
             (Idb.of_database db))));
  List.iter
    (fun chunk_rows ->
      let got, _ =
        Migrate.run_idb
          (Migrate.config ~chunk_rows ~jobs:1 ())
          (Fira.Expr.of_ops [ op ]) (Idb.of_database db)
      in
      check (Printf.sprintf "chunked (chunk_rows %d)" chunk_rows)
        (names_of_idb got))
    [ 1; 64 ]

(* Int 1 and String "1" are two values that print alike: ℘ would name
   both groups "1" and keep one. Every form rejects it, for one reason. *)
let test_partition_duplicate_group_name () =
  let open Value in
  let r =
    Relation.of_rows
      (Schema.of_list [ "k"; "v" ])
      (List.map Row.of_list [ [ Int 1; String "a" ]; [ String "1"; String "b" ] ])
  in
  let db = Database.of_list [ ("R", r) ] in
  let op = Fira.Op.Partition { rel = "R"; col = "k" } in
  let registry = Fira.Semfun.empty_registry in
  let expected = Some "duplicate group name \"1\"" in
  let check what got =
    Alcotest.(check (option string)) what expected got
  in
  check "boxed" (Fira.Eval.explain_inapplicable registry op db);
  check "interned"
    (Fira.Eval.iexplain_inapplicable registry op (Idb.of_database db));
  List.iter
    (fun chunk_rows ->
      check
        (Printf.sprintf "chunked (chunk_rows %d)" chunk_rows)
        (Migrate.cexplain_inapplicable registry op
           (Migrate.Cdb.of_database ~chunk_rows db)))
    [ 1; 64 ]

(* --- µ kernel pinned cases ---

   Each case holds typed rows split into chunks. µ on the key runs
   sequentially (Irel.merge over the chunks' union) and chunked (the
   chunks joined by ∪, then merge[k]); both must give the expected rows
   id for id, as must the former µ (Mu_oracle) and the boxed
   Relation.merge. *)

let mu_case ?(chunk_rows = 2) what header chunks key expected =
  let atts = Array.of_list (List.map Intern.string_id header) in
  let ids rows = List.map (fun r -> Array.of_list (List.map Intern.value_id r)) rows in
  let chunks = List.map (fun rows -> Irel.of_rows atts (ids rows)) chunks in
  let whole = Irel.of_rows atts (List.concat_map Irel.to_rows chunks) in
  let key = Intern.string_id key in
  let want = Irel.of_rows atts (ids expected) in
  let check path got =
    Alcotest.(check bool)
      (Printf.sprintf "%s: %s µ" what path)
      true (Mu_oracle.same_ids got want)
  in
  check "sequential" (Irel.merge whole key);
  check "former sequential" (Mu_oracle.merge whole key);
  check "boxed"
    (Irel.of_relation
       (Relation.merge (Irel.to_relation whole) (Intern.string_of_id key)));
  List.iter
    (fun jobs ->
      check (Printf.sprintf "chunked (jobs %d)" jobs)
        (Mu_oracle.migrate ~chunk_rows ~jobs chunks key))
    [ 1; 2 ];
  check "former chunked"
    (Mu_oracle.coalesce atts
       (Mu_oracle.chunked ~order:`Hash ~chunk_rows chunks key));
  whole

let test_mu_kernel_pinned () =
  let open Value in
  (* Each key's rows are compatible across chunks: their lubs. x is first
     seen before w, so the one batch of lubs is out of order and must be
     sorted. *)
  ignore
    (mu_case "all-compatible groups over 3 chunks" [ "k"; "a"; "b"; "c" ]
       [
         [ [ String "x"; Int 1; Null; Null ] ];
         [ [ String "w"; Int 3; Null; Null ]; [ String "x"; Null; String "p"; Null ] ];
         [ [ String "w"; Null; String "q"; Null ]; [ String "x"; Null; Null; Float 2.5 ] ];
       ]
       "k"
       [
         [ String "w"; Int 3; String "q"; Null ];
         [ String "x"; Int 1; String "p"; Float 2.5 ];
       ]);
  (* "a" against "b" in v: the fixpoint, fed (x,b,-) (x,a,-) (x,-,c),
     merges (x,b,-) with (x,-,c) and leaves (x,a,-). *)
  ignore
    (mu_case "a/b conflict" [ "k"; "v"; "w" ]
       [
         [ [ String "x"; String "a"; Null ] ];
         [ [ String "x"; String "b"; Null ]; [ String "x"; Null; String "c" ] ];
       ]
       "k"
       [ [ String "x"; String "a"; Null ]; [ String "x"; String "b"; String "c" ] ]);
  (* Int 1 and Float 1.0 are two values: the column conflicts, the
     fixpoint runs, and the rows are incompatible, so nothing merges. *)
  ignore
    (mu_case ~chunk_rows:1 "Int 1 / Float 1.0 in one column" [ "k"; "v"; "w" ]
       [ [ [ String "x"; Int 1; Null ] ]; [ [ String "x"; Float 1.0; String "c" ] ] ]
       "k"
       [ [ String "x"; Int 1; Null ]; [ String "x"; Float 1.0; String "c" ] ]);
  (* Int 1 and String "1" print alike, so they are one group, but they
     are not equal values: nothing merges and µ returns its input. The
     null key leaves w the only null-free column, which defeats the
     µ-identity certificate, so the kernel really runs. *)
  let rows =
    [
      [ Int 1; Null; String "z" ]; [ String "1"; Null; String "z" ];
      [ Null; String "q"; String "z" ];
    ]
  in
  let whole =
    mu_case "Int 1 / String \"1\" keys" [ "k"; "v"; "w" ]
      [ [ List.nth rows 0; List.nth rows 2 ]; [ List.nth rows 1 ] ]
      "k" rows
  in
  Alcotest.(check bool) "Int 1 / String \"1\" keys: no certificate" false
    (Irel.mu_identity whole);
  Alcotest.(check bool) "Int 1 / String \"1\" keys: input returned" true
    (Irel.merge whole (Intern.string_id "k") == whole);
  (* The Int 1 rows merge into (1, a, b), which sits beside the unique
     Float 1.0 row (1.0, a, b): two rows in every evaluator and every
     chunking. *)
  ignore
    (mu_case "merged row meets a unique row" [ "k"; "v"; "w" ]
       [
         [ [ Int 1; Null; String "b" ]; [ Int 1; String "a"; Null ] ];
         [ [ Float 1.0; String "a"; String "b" ] ];
       ]
       "k"
       [
         [ Int 1; String "a"; String "b" ];
         [ Float 1.0; String "a"; String "b" ];
       ]);
  (* Every key unique, with no certificate (v is null-free but not
     injective, k holds a null): both paths return their input. *)
  let atts = [| Intern.string_id "k"; Intern.string_id "v" |] in
  let chunk row = Irel.of_rows atts [ Array.of_list (List.map Intern.value_id row) ] in
  let chunks = [ chunk [ String "a"; String "x" ]; chunk [ Null; String "x" ] ] in
  let whole = Irel.of_rows atts (List.concat_map Irel.to_rows chunks) in
  Alcotest.(check bool) "all-unique: no certificate" false (Irel.mu_identity whole);
  Alcotest.(check bool) "all-unique: sequential returns its input" true
    (Irel.merge whole atts.(0) == whole);
  Alcotest.(check bool) "all-unique: chunked returns its input" true
    (Irel.merge_chunks Irel.sequential ~chunk_rows:1 chunks atts.(0) == chunks)

(* --- columnar ingest = the former ingest, id for id ---

   Random documents: quoted fields holding commas, doubled quotes and
   CR/LF; LF or CRLF line ends; blank lines; short and long rows; a
   header-only document; cells whose printed form differs from their
   bytes ("01", "1e3", "NULL", "-0.0") or that compare equal under other
   ids (0 / 0.0 / -0.0, 1 / 1.0); fresh strings, so ids are issued
   during the ingest too. Some documents fail: empty, a duplicate or
   empty attribute, a byte after a closing quote, an unclosed quote. The
   columnar ingest must bind the same chunks as the oracle in
   test/ingest_oracle.ml, or raise the same exception with the same
   message. *)

let ingest_cells =
  [ ""; "NULL"; "null"; "true"; "0"; "0.0"; "-0.0"; "1"; "1.0"; "1.00"; "01";
    "1e3"; "0.3"; "0.30000000000000004"; "a"; "b"; "a,b"; "say \"hi\"";
    "x\ny"; "x\r\ny" ]

let quote s =
  "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""

let ingest_doc_gen =
  QCheck2.Gen.(
    let needs_quotes s =
      String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s
    in
    let cell =
      let* s =
        frequency
          [ (6, oneofl ingest_cells);
            (1, map (Printf.sprintf "s%d") (int_bound 1_000_000)) ]
      in
      if needs_quotes s then return (quote s)
      else
        map
          (fun q -> if q then quote s else s)
          (frequency [ (4, return false); (1, return true) ])
    in
    let* header =
      frequency
        [ (8, map (fun k -> List.filteri (fun i _ -> i < k) [ "a"; "b"; "c" ])
                (int_range 1 3));
          (1, list_size (int_range 1 3) (oneofl [ "a"; "b"; "" ])) ]
    in
    let* rows =
      list_size (int_bound 9)
        (frequency
           [ (8, list_size (int_range 1 5) cell);
             (1, return [ "" ]) (* a blank line *) ])
    in
    let* eol = oneofl [ "\n"; "\r\n" ] in
    let* last_eol = bool in
    let* fault =
      frequency [ (8, return ""); (1, return "\"x\"y"); (1, return "\"abc") ]
    in
    let lines = List.map (String.concat ",") (header :: rows) in
    let doc = String.concat eol lines ^ (if last_eol then eol else "") in
    let* empty = frequency [ (20, return false); (1, return true) ] in
    let+ chunk_rows = int_range 1 4 in
    let doc = if fault = "" then doc else doc ^ eol ^ "z," ^ fault in
    ((if empty then "" else doc), chunk_rows))

let ingest_result f =
  match f () with
  | r -> Ok r
  | exception ((Migrate.Error _ | Csv.Error _) as e) ->
      Error (Printexc.to_string e)

let columnar_ingest ~chunk_rows ic =
  let cfg = Migrate.config ~chunk_rows ~jobs:1 () in
  let cdb = Migrate.ingest_channel cfg Migrate.Cdb.empty ~name:"R" ic in
  match Migrate.Cdb.chunks cdb (Intern.string_id "R") with
  | c :: _ as cs -> (Irel.atts c, cs)
  | [] -> Alcotest.fail "no chunk"

let ingest_matches_oracle (doc, chunk_rows) =
  let run f = with_temp_csv doc (fun _ ic -> ingest_result (fun () -> f ic)) in
  let oracle () = run (Ingest_oracle.ingest ~chunk_rows ~name:"R")
  and columnar () = run (columnar_ingest ~chunk_rows) in
  (* Either side may meet the document's fresh cells first. *)
  let want, got =
    if chunk_rows mod 2 = 0 then
      let w = oracle () in
      (w, columnar ())
    else
      let g = columnar () in
      (oracle (), g)
  in
  match (want, got) with
  | Ok w, Ok g -> Ingest_oracle.same_chunks w g
  | Error w, Error g -> String.equal w g
  | _ -> false

let prop_ingest_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:1000
       ~print:(fun (doc, k) -> Printf.sprintf "chunk_rows %d, doc %S" k doc)
       ~name:"ingest: columnar = former ingest, chunk for chunk"
       ingest_doc_gen ingest_matches_oracle)

let test_ingest_pinned () =
  let both doc chunk_rows =
    let got = with_temp_csv doc (fun _ ic -> columnar_ingest ~chunk_rows ic) in
    let want =
      with_temp_csv doc (fun _ ic ->
          Ingest_oracle.ingest ~chunk_rows ~name:"R" ic)
    in
    Alcotest.(check bool) (Printf.sprintf "%S = former ingest" doc) true
      (Ingest_oracle.same_chunks want got);
    got
  in
  (* 0, 0.0 and -0.0 are three values: Int before Float, -0.0 before
     0.0. *)
  (match both "a\n0\n0.0\n-0.0\n" 3 with
  | _, [ c ] ->
      Alcotest.(check (list string)) "three rows, in order"
        [ "0"; "-0.0"; "0.0" ]
        (Array.to_list
           (Array.map
              (fun id -> Value.to_string (Intern.value_of_id id))
              (Irel.col_ids c 0)))
  | _ -> Alcotest.fail "one chunk expected");
  (* A header-only document binds one empty chunk. *)
  (match both "a,b\r\n" 2 with
  | atts, [ c ] ->
      Alcotest.(check int) "header-only: two attributes" 2 (Array.length atts);
      Alcotest.(check int) "header-only: no rows" 0 (Irel.cardinality c)
  | _ -> Alcotest.fail "one empty chunk expected");
  (* Cells enter the pool in row-major first-seen order, as they did
     before the cell memo. *)
  let fresh = Printf.sprintf "ingest-order-%d-%s" in
  let doc =
    String.concat "\n"
      [ "a,b,c"; fresh 1 "x" ^ "," ^ fresh 2 "y" ^ ",900917";
        fresh 2 "y" ^ "," ^ fresh 3 "z" ^ "," ^ fresh 1 "x" ^ "," ^ fresh 5 "cut";
        "0900913," ^ fresh 4 "w" ]
  in
  let _, before = Intern.size () in
  ignore (both doc 1);
  let _, after = Intern.size () in
  let issued =
    List.init (after - before) (fun k -> Intern.value_of_id (before + k))
  in
  Alcotest.(check (list string)) "ids in first-seen order"
    [ fresh 1 "x"; fresh 2 "y"; "900917"; fresh 3 "z"; "900913"; fresh 4 "w" ]
    (List.map Value.to_string issued)

(* --- migrate = apply on 1 / 1.0 keys ---

   1 and 1.0 are two keys: µ folds the two 1 rows into (1, a, b) and
   keeps (1.0, a, b). The CSV migration, at one row per chunk and at one
   chunk, and the boxed evaluator behind [tupelo apply] give those two
   rows, and migrate's row count is what it emits. *)
let test_numeric_keys_agree () =
  let doc = "k,v,w\n1,,b\n1,a,\n1.0,a,b\n" in
  let program = expr_exn "merge[k](R)" in
  let want = "k,v,w\n1,a,b\n1.0,a,b\n" in
  let emitted r =
    let path = Filename.temp_file "tupelo_emit" ".csv" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let oc = open_out_bin path in
        Migrate.emit_channel (Migrate.config ()) oc r;
        close_out oc;
        In_channel.with_open_bin path In_channel.input_all)
  in
  List.iter
    (fun chunk_rows ->
      let cfg = Migrate.config ~chunk_rows ~jobs:1 () in
      let cdb =
        with_temp_csv doc (fun _ ic ->
            Migrate.ingest_channel cfg Migrate.Cdb.empty ~name:"R" ic)
      in
      let out, stats = Migrate.run cfg program cdb in
      let r = Idb.find (Migrate.Cdb.to_idb out) (Intern.string_id "R") in
      let what = Printf.sprintf "chunk_rows %d" chunk_rows in
      Alcotest.(check string) (what ^ ": migrate") want (emitted r);
      Alcotest.(check int) (what ^ ": 3 rows in") 3 stats.Migrate.rows_in;
      Alcotest.(check int) (what ^ ": 2 rows out") 2 stats.Migrate.rows_out;
      Alcotest.(check int) (what ^ ": 2 rows emitted") 2 (Irel.cardinality r))
    [ 1; 65536 ];
  let applied =
    Fira.Expr.eval Fira.Semfun.empty_registry program
      (Database.of_list [ ("R", Csv.parse_relation doc) ])
  in
  Alcotest.(check string) "apply" want
    (emitted (Irel.of_relation (Database.find applied "R")))

let suite =
  [
    Alcotest.test_case "chunked = sequential (500 seeds)" `Slow
      test_equivalence;
    Alcotest.test_case "empty relation" `Quick test_empty_relation;
    Alcotest.test_case "single chunk" `Quick test_single_chunk_matches_eval;
    Alcotest.test_case "absent relation error" `Quick
      test_absent_relation_error;
    Alcotest.test_case "stop cancels" `Quick test_stop_cancels;
    Alcotest.test_case "ingest chunk boundary" `Quick
      test_ingest_matches_parse_relation;
    Alcotest.test_case "ingest errors" `Quick test_ingest_errors;
    Alcotest.test_case "emit round-trip" `Quick test_emit_roundtrip;
    Alcotest.test_case "cdb round-trip" `Quick test_cdb_roundtrip;
    prop_one_applicability_check;
    Alcotest.test_case "℘ group names (Int 1 / Float 1.0)" `Quick
      test_partition_group_names;
    Alcotest.test_case "µ kernel pinned cases" `Quick test_mu_kernel_pinned;
    Alcotest.test_case "ingest pinned cases" `Quick test_ingest_pinned;
    prop_ingest_oracle;
    Alcotest.test_case "µ over 1 / 1.0 keys: migrate = apply" `Quick
      test_numeric_keys_agree;
    Alcotest.test_case "℘ duplicate group name (Int 1 / String \"1\")" `Quick
      test_partition_duplicate_group_name;
  ]
