open Relational

let check = Alcotest.check
let vt = Alcotest.testable Value.pp Value.equal

let test_of_string_guess () =
  check vt "int" (Value.Int 42) (Value.of_string_guess "42");
  check vt "negative int" (Value.Int (-7)) (Value.of_string_guess "-7");
  check vt "float" (Value.Float 3.5) (Value.of_string_guess "3.5");
  check vt "exponent float" (Value.Float 1e3) (Value.of_string_guess "1e3");
  check vt "string" (Value.String "abc") (Value.of_string_guess "abc");
  check vt "empty is null" Value.Null (Value.of_string_guess "");
  check vt "NULL is null" Value.Null (Value.of_string_guess "NULL");
  check vt "true" (Value.Bool true) (Value.of_string_guess "true");
  check vt "false" (Value.Bool false) (Value.of_string_guess "false");
  check vt "mixed alnum stays string" (Value.String "12ab")
    (Value.of_string_guess "12ab");
  check vt "leading zeros stay int" (Value.Int 7) (Value.of_string_guess "007")

let test_ordering () =
  let lt a b =
    Alcotest.(check bool)
      (Printf.sprintf "%s < %s" (Value.to_string a) (Value.to_string b))
      true
      (Value.compare a b < 0)
  in
  lt Value.Null (Value.Bool false);
  lt (Value.Bool true) (Value.Int 0);
  lt (Value.Int 1) (Value.Int 2);
  lt (Value.Int 1) (Value.Float 1.5);
  lt (Value.Float 0.5) (Value.Int 1);
  lt (Value.Int 5) (Value.String "5");
  lt (Value.String "a") (Value.String "b")

(* Numbers order by exact value across Int and Float, but an Int and a
   Float are never one value: a numeric tie puts the Int first. *)
let test_numeric_cross_equal () =
  Alcotest.(check int) "Int 3 < Float 3.0" (-1)
    (Value.compare (Value.Int 3) (Value.Float 3.0));
  Alcotest.(check bool) "not equal across types" false
    (Value.equal (Value.Int 3) (Value.Float 3.0));
  Alcotest.(check int) "-0.0 < 0.0" (-1)
    (Value.compare (Value.Float (-0.0)) (Value.Float 0.0));
  (* Past 2^53 an int is compared exactly, not through float_of_int. *)
  Alcotest.(check int) "Int (2^53 + 1) > Float 2^53" 1
    (Value.compare (Value.Int ((1 lsl 53) + 1)) (Value.Float 0x1p53));
  Alcotest.(check int) "Float 2^62 > max_int" 1
    (Value.compare (Value.Float 0x1p62) (Value.Int max_int))

let test_to_string_roundtrip () =
  let roundtrip v =
    check vt
      (Printf.sprintf "roundtrip %s" (Value.to_string v))
      v
      (Value.of_string_guess (Value.to_string v))
  in
  List.iter roundtrip
    [ Value.Null; Value.Bool true; Value.Int 0; Value.Int (-12);
      Value.Float 2.25; Value.Float (-0.0); Value.Float (0.1 +. 0.2);
      Value.String "hello world" ];
  (* Up to 12 significant digits a float prints as string_of_float does;
     past that, with the fewest digits that read back exactly. *)
  List.iter
    (fun (f, s) ->
      Alcotest.(check string) s s (Value.to_string (Value.Float f)))
    [ (1.0, "1.0"); (-0.0, "-0.0"); (0.3, "0.3"); (1e20, "1e+20");
      (0.1 +. 0.2, "0.30000000000000004"); (1234567890123.0, "1234567890123.0");
      (Float.nan, "nan") ]

let test_coercions () =
  Alcotest.(check (option int)) "as_int of int" (Some 5) (Value.as_int (Value.Int 5));
  Alcotest.(check (option int)) "as_int of exact float" (Some 4)
    (Value.as_int (Value.Float 4.0));
  Alcotest.(check (option int)) "as_int of inexact float" None
    (Value.as_int (Value.Float 4.5));
  Alcotest.(check (option int)) "as_int of numeric string" (Some 9)
    (Value.as_int (Value.String "9"));
  Alcotest.(check (option int)) "as_int of null" None (Value.as_int Value.Null);
  Alcotest.(check (option (float 1e-9))) "as_float of int" (Some 3.0)
    (Value.as_float (Value.Int 3));
  Alcotest.(check (option string)) "as_string of null" None
    (Value.as_string Value.Null)

let test_display () =
  Alcotest.(check string) "null displays as dash" "-" (Value.to_display Value.Null);
  Alcotest.(check string) "int displays plainly" "7" (Value.to_display (Value.Int 7))

let test_type_names () =
  Alcotest.(check (list string))
    "type names"
    [ "null"; "bool"; "int"; "float"; "string" ]
    (List.map Value.type_name
       [ Value.Null; Value.Bool true; Value.Int 1; Value.Float 1.0;
         Value.String "x" ])

(* The guessing rule as it was first written, over whole strings with
   the stdlib parsers: the oracle for the slice classifier. *)
let reference_guess s =
  let int_literal =
    s <> ""
    && (match s.[0] with '-' | '+' -> String.length s > 1 | _ -> true)
    && String.for_all (fun c -> c >= '0' && c <= '9')
         (match s.[0] with '-' | '+' -> String.sub s 1 (String.length s - 1) | _ -> s)
  in
  match s with
  | "" | "NULL" | "null" -> Value.Null
  | "true" -> Value.Bool true
  | "false" -> Value.Bool false
  | _ when int_literal -> (
      match int_of_string_opt s with Some n -> Value.Int n | None -> Value.String s)
  | _ when String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s -> (
      match float_of_string_opt s with
      | Some f -> Value.Float f
      | None -> Value.String s)
  | _ -> Value.String s

let same_value a b =
  Value.type_name a = Value.type_name b
  && match (a, b) with
     | Value.Float x, Value.Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
     | _ -> Value.equal a b

let guess_gen =
  let open QCheck2.Gen in
  let chars =
    oneofl
      [ '0'; '1'; '9'; '+'; '-'; '.'; 'e'; 'E'; '_'; ' '; '\t'; 'i'; 'n'; 'f';
        'a'; 'N'; 'U'; 'L'; 'x'; 'p'; '('; ')'; 't'; 'r'; 'u' ]
  in
  let literal =
    oneofl
      [ "4611686018427387903"; "4611686018427387904"; "-4611686018427387904";
        "-4611686018427387905"; "99999999999999999999"; "nan"; "inf"; "-infinity";
        "nan(e)"; "0x1p3"; "1_0.5"; " 1.5"; "1.5e"; "NULL"; "null"; "true";
        "false"; ""; "+"; "-"; "00"; "+0"; "-0.0" ]
  in
  let* body = oneof [ string_size ~gen:chars (int_range 0 8); literal ] in
  let* pre = string_size ~gen:chars (int_range 0 3) in
  let* post = string_size ~gen:chars (int_range 0 3) in
  return (pre, body, post)

let prop_guess_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:2000
       ~name:"value: guess on a slice = the whole-string rule"
       ~print:(fun (a, b, c) -> Printf.sprintf "%S|%S|%S" a b c)
       guess_gen
       (fun (pre, body, post) ->
         let s = pre ^ body ^ post in
         let off = String.length pre and len = String.length body in
         let via_slice =
           match Value.guess s off len with
           | Value.G_null -> Value.Null
           | G_bool b -> Value.Bool b
           | G_int n -> Value.Int n
           | G_float f -> Value.Float f
           | G_string -> Value.String body
         in
         same_value via_slice (reference_guess body)
         && same_value (Value.of_string_guess body) (reference_guess body)))

let suite =
  [
    Alcotest.test_case "of_string_guess" `Quick test_of_string_guess;
    Alcotest.test_case "type-stratified ordering" `Quick test_ordering;
    Alcotest.test_case "numeric cross-type equality" `Quick test_numeric_cross_equal;
    Alcotest.test_case "to_string round-trip" `Quick test_to_string_roundtrip;
    Alcotest.test_case "coercions" `Quick test_coercions;
    Alcotest.test_case "display rendering" `Quick test_display;
    Alcotest.test_case "type names" `Quick test_type_names;
    prop_guess_matches_reference;
  ]
