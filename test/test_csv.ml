open Relational

let test_parse_simple () =
  Alcotest.(check (list (list string)))
    "two rows"
    [ [ "a"; "b" ]; [ "1"; "2" ] ]
    (Csv.parse "a,b\n1,2\n")

let test_parse_quoted () =
  Alcotest.(check (list (list string)))
    "quotes, commas, newlines"
    [ [ "x,y"; "he said \"hi\""; "line1\nline2" ] ]
    (Csv.parse "\"x,y\",\"he said \"\"hi\"\"\",\"line1\nline2\"\n")

let test_parse_crlf () =
  Alcotest.(check (list (list string)))
    "CRLF" [ [ "a"; "b" ]; [ "1"; "2" ] ]
    (Csv.parse "a,b\r\n1,2\r\n")

let test_parse_no_trailing_newline () =
  Alcotest.(check (list (list string)))
    "no trailing newline" [ [ "a" ]; [ "1" ] ]
    (Csv.parse "a\n1")

let test_parse_empty_fields () =
  Alcotest.(check (list (list string)))
    "empty fields" [ [ ""; ""; "x" ] ]
    (Csv.parse ",,x\n")

let test_unterminated_quote () =
  Alcotest.(check bool) "unterminated quote raises" true
    (match Csv.parse "\"oops\n" with
    | exception Csv.Error _ -> true
    | _ -> false)

let test_roundtrip () =
  let rows = [ [ "plain"; "with,comma" ]; [ "with\"quote"; "multi\nline" ] ] in
  Alcotest.(check (list (list string)))
    "print then parse" rows
    (Csv.parse (Csv.print rows))

let test_relation_roundtrip () =
  let r =
    Relation.of_strings [ "name"; "price" ]
      [ [ "widget"; "25" ]; [ "gadget, deluxe"; "60" ] ]
  in
  let r' = Csv.parse_relation (Csv.print_relation r) in
  Alcotest.(check bool) "relation round-trips" true (Relation.equal r r')

let test_parse_relation_pads () =
  let r = Csv.parse_relation "a,b,c\n1,2\n" in
  Alcotest.(check int) "short rows padded" 3
    (Schema.arity (Relation.schema r));
  let row = List.hd (Relation.rows r) in
  Alcotest.(check bool) "padding is null" true (Value.is_null (Row.cell row 2))

let test_parse_relation_types () =
  let r = Csv.parse_relation "n,s\n42,hello\n" in
  let row = List.hd (Relation.rows r) in
  Alcotest.(check string) "int inferred" "int"
    (Value.type_name (Row.cell row 0));
  Alcotest.(check string) "string kept" "string"
    (Value.type_name (Row.cell row 1))

let test_parse_relation_errors () =
  Alcotest.(check bool) "empty doc raises" true
    (match Csv.parse_relation "" with
    | exception Csv.Error _ -> true
    | _ -> false);
  Alcotest.(check bool) "duplicate header raises" true
    (match Csv.parse_relation "a,a\n1,2\n" with
    | exception Csv.Error _ -> true
    | _ -> false)

(* --- streaming --- *)

let test_fold_rows_matches_parse () =
  let doc = "a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n\"l1\nl2\",z\n1,2" in
  Alcotest.(check (list (list string)))
    "fold_rows visits the rows parse returns" (Csv.parse doc)
    (List.rev (Csv.fold_rows (fun acc row -> row :: acc) [] doc))

let test_stream_split_anywhere () =
  (* Feeding the document byte by byte — every quoted field, escaped
     quote and CRLF split across feed calls — must agree with one-shot
     parsing. This is the invariant chunked channel ingest relies on. *)
  let doc = "a,b,c\r\n\"x,\ny\",\"q\"\"q\",plain\r\n,,\"\"\n1,2,3" in
  let rows = ref [] in
  let stream = Csv.Stream.create ~on_row:(fun r -> rows := r :: !rows) () in
  String.iter (fun ch -> Csv.Stream.feed stream (String.make 1 ch)) doc;
  Csv.Stream.finish stream;
  Alcotest.(check (list (list string)))
    "byte-by-byte = one-shot" (Csv.parse doc) (List.rev !rows)

let test_fold_channel_chunk_boundary () =
  (* A quoted multi-line field straddling the 64 KiB read boundary: the
     reader must not cut the field at the chunk edge. *)
  let buf = Buffer.create 70_000 in
  Buffer.add_string buf "a,b\n";
  while Buffer.length buf < 65_530 do
    Buffer.add_string buf "xxxxxxxx,yyyyyyyy\n"
  done;
  Buffer.add_string buf "\"multi\nline,field\",tail\nlast,row\n";
  let doc = Buffer.contents buf in
  let path = Filename.temp_file "tupelo_csv" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc doc;
      close_out oc;
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let streamed =
            List.rev (Csv.fold_channel (fun acc row -> row :: acc) [] ic)
          in
          Alcotest.(check (list (list string)))
            "fold_channel = parse across the 64KiB boundary" (Csv.parse doc)
            streamed))

let test_stream_max_bytes () =
  let stream = Csv.Stream.create ~max_bytes:8 ~on_row:(fun _ -> ()) () in
  Alcotest.(check bool) "cumulative max_bytes enforced" true
    (match
       Csv.Stream.feed stream "abcd";
       Csv.Stream.feed stream "efghij"
     with
    | exception Csv.Error _ -> true
    | _ -> false)

(* qcheck round-trip: print is the left inverse of parse for arbitrary
   field contents (commas, quotes, newlines, CRs, unicode bytes), both
   through the one-shot parser and the streaming reader at an arbitrary
   feed split. *)
let field_gen =
  QCheck2.Gen.(
    string_size ~gen:(oneofl [ 'a'; 'z'; ','; '"'; '\n'; '\r'; ' '; '\xc3' ])
      (int_bound 8))

let rows_gen =
  QCheck2.Gen.(
    list_size (int_range 1 8) (list_size (int_range 1 5) field_gen))

let prop_print_parse_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"csv: parse (print rows) = rows"
       QCheck2.Gen.(pair rows_gen (int_bound 200))
       (fun (rows, split) ->
         (* parse cannot represent a trailing row of one empty field
            (indistinguishable from the final newline); print never emits
            an ambiguous document for non-empty fields, but the generator
            can make one — normalize by comparing against parse's view. *)
         let doc = Csv.print rows in
         let oneshot = Csv.parse doc in
         let streamed = ref [] in
         let stream =
           Csv.Stream.create ~on_row:(fun r -> streamed := r :: !streamed) ()
         in
         let cut = min split (String.length doc) in
         Csv.Stream.feed stream ~off:0 ~len:cut doc;
         Csv.Stream.feed stream ~off:cut ~len:(String.length doc - cut) doc;
         Csv.Stream.finish stream;
         oneshot = List.rev !streamed
         && List.length oneshot = List.length rows
         && List.for_all2
              (fun got want ->
                (* short rows lose nothing: fields match pointwise *)
                got = want)
              oneshot rows))

let test_fields_are_slices () =
  (* Plain fields reach the callback as slices of the fed string; a
     quoted field or one with a CR in it is assembled first. *)
  let doc = "ab,\"c,d\",e\rf,gh\n" in
  let seen = ref [] in
  let stream =
    Csv.Stream.create_fields
      ~on_field:(fun s off len -> seen := (s == doc, String.sub s off len) :: !seen)
      ~on_row_end:(fun () -> seen := (true, "<eol>") :: !seen)
      ()
  in
  Csv.Stream.feed stream doc;
  Csv.Stream.finish stream;
  Alcotest.(check (list (pair bool string)))
    "slices of the input where possible"
    [ (true, "ab"); (false, "c,d"); (false, "ef"); (true, "gh"); (true, "<eol>") ]
    (List.rev !seen)

(* --- relation documents, for the streamed fingerprint oracle --- *)

let quote s =
  "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""

(* A cell: the guessing rule's edges (one number spelled several ways,
   neighbouring numbers, over-range ints, null and bool spellings),
   quoted text with commas, quotes and newlines, a CR inside a field, and
   now and then a syntax error. *)
let cell_gen =
  let open QCheck2.Gen in
  let scalar =
    oneofl
      [ "1"; "01"; "+1"; "-1"; "99999999999999999999"; "4611686018427387904";
        "true"; "false"; "NULL"; "null"; ""; "alice"; "e"; "."; "nan"; "1.0";
        "1.00"; "0.0"; "-0.0"; "0.3"; "0.30000000000000004"; "1e3";
        "9007199254740993.0" ]
  in
  frequency
    [
      (8, scalar);
      ( 2,
        map quote
          (string_size ~gen:(oneofl [ 'a'; ','; '"'; '\n'; '\r'; '1' ]) (int_range 0 4)) );
      (1, map2 (fun a b -> a ^ "\r" ^ b) (oneofl [ "a"; "1"; "" ]) (oneofl [ "b"; "2"; "" ]));
      (1, oneofl [ "\"a\"b"; "\"open" ]);
    ]

let relation_doc_gen =
  let open QCheck2.Gen in
  let* width = int_range 1 3 in
  let* header =
    frequency
      [
        (12, return (List.init width (Printf.sprintf "c%d")));
        (1, return [ "c0"; "c0" ]);
        (1, return [ "c0"; "" ]);
        (1, return []);
      ]
  in
  let row =
    frequency
      [ (6, list_size (int_range 1 (width + 2)) cell_gen); (1, return [ "" ]) ]
  in
  let* rows = list_size (int_range 0 6) row in
  let* eol = oneofl [ "\n"; "\r\n" ] in
  let* trailing = bool in
  let lines =
    (if header = [] then [] else [ String.concat "," header ])
    @ List.map (String.concat ",") rows
  in
  return (String.concat eol lines ^ if trailing && lines <> [] then eol else "")

let terms_of_parse ~rel doc =
  match Csv.parse_relation doc with
  | r -> Ok (Fingerprint.of_relation ~rel r, Fingerprint.of_schema ~rel (Relation.schema r))
  | exception Csv.Error m -> Error m

let prop_of_csv_matches_boxed =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:1000
       ~name:"fingerprint: of_csv = of_relation (parse_relation), errors too"
       ~print:(Printf.sprintf "%S") relation_doc_gen
       (fun doc ->
         let streamed =
           match Fingerprint.of_csv ~rel:"R" doc with
           | c -> Ok (c.Fingerprint.term, c.Fingerprint.schema_term)
           | exception Csv.Error m -> Error m
         in
         match (streamed, terms_of_parse ~rel:"R" doc) with
         | Ok (a, sa), Ok (b, sb) -> Fingerprint.equal a b && Fingerprint.equal sa sb
         | Error m, Error m' -> m = m'
         | _ -> false))

let prop_cell_fnv =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:1000
       ~name:"fingerprint: cell_fnv = value_fnv of the guessed value"
       QCheck2.Gen.(triple cell_gen (string_size (int_range 0 2))
                      (string_size (int_range 0 2)))
       (fun (cell, pre, post) ->
         let s = pre ^ cell ^ post in
         let h = Fingerprint.Hashing.fnv1a64 "att" in
         Int64.equal
           (Fingerprint.cell_fnv h s (String.length pre) (String.length cell))
           (Fingerprint.Hashing.value_fnv h (Value.of_string_guess cell))))

let suite =
  [
    Alcotest.test_case "parse simple" `Quick test_parse_simple;
    Alcotest.test_case "parse quoted" `Quick test_parse_quoted;
    Alcotest.test_case "parse CRLF" `Quick test_parse_crlf;
    Alcotest.test_case "parse without trailing newline" `Quick test_parse_no_trailing_newline;
    Alcotest.test_case "parse empty fields" `Quick test_parse_empty_fields;
    Alcotest.test_case "unterminated quote" `Quick test_unterminated_quote;
    Alcotest.test_case "print/parse round-trip" `Quick test_roundtrip;
    Alcotest.test_case "relation round-trip" `Quick test_relation_roundtrip;
    Alcotest.test_case "short rows padded" `Quick test_parse_relation_pads;
    Alcotest.test_case "type inference" `Quick test_parse_relation_types;
    Alcotest.test_case "relation errors" `Quick test_parse_relation_errors;
    Alcotest.test_case "fold_rows matches parse" `Quick
      test_fold_rows_matches_parse;
    Alcotest.test_case "stream split anywhere" `Quick test_stream_split_anywhere;
    Alcotest.test_case "fold_channel chunk boundary" `Quick
      test_fold_channel_chunk_boundary;
    Alcotest.test_case "stream max_bytes" `Quick test_stream_max_bytes;
    prop_print_parse_roundtrip;
    Alcotest.test_case "plain fields are slices" `Quick test_fields_are_slices;
    prop_of_csv_matches_boxed;
    prop_cell_fnv;
  ]
