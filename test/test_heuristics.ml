open Relational
module H = Heuristics.Heuristic
module P = Heuristics.Profile
module V = Heuristics.Vector
module T = Heuristics.Text

let profile db = P.of_database db

let flights_a () = profile Workloads.Flights.a
let flights_b () = profile Workloads.Flights.b

let estimate h ~target x = h.H.estimate ~target x

(* --- Levenshtein --- *)

let test_levenshtein_basics () =
  Alcotest.(check int) "identical" 0 (T.levenshtein "kitten" "kitten");
  Alcotest.(check int) "kitten/sitting" 3 (T.levenshtein "kitten" "sitting");
  Alcotest.(check int) "empty vs word" 4 (T.levenshtein "" "word");
  Alcotest.(check int) "word vs empty" 4 (T.levenshtein "word" "");
  Alcotest.(check int) "single substitution" 1 (T.levenshtein "cat" "car");
  Alcotest.(check int) "insertion" 1 (T.levenshtein "cat" "cats")

let test_levenshtein_normalized () =
  Alcotest.(check (float 1e-9)) "both empty" 0.0 (T.levenshtein_normalized "" "");
  Alcotest.(check (float 1e-9)) "disjoint" 1.0 (T.levenshtein_normalized "aaa" "bbb");
  let d = T.levenshtein_normalized "kitten" "sitting" in
  Alcotest.(check bool) "in (0,1)" true (d > 0.0 && d < 1.0)

(* --- vectors --- *)

let test_vector_basics () =
  let v = V.of_triples [ ("r", "a", "1"); ("r", "a", "1"); ("r", "b", "2") ] in
  Alcotest.(check int) "two distinct coordinates" 2
    (V.fold (fun _ _ n -> n + 1) v 0);
  Alcotest.(check int) "count of repeated triple" 2 (V.count v ("r", "a", "1"));
  Alcotest.(check int) "count of absent triple" 0 (V.count v ("x", "y", "z"));
  Alcotest.(check (float 1e-9)) "norm" (sqrt 5.0) (V.norm v)

let test_vector_distances () =
  let a = V.of_triples [ ("r", "a", "1") ] in
  let b = V.of_triples [ ("r", "b", "2") ] in
  Alcotest.(check (float 1e-9)) "self distance" 0.0 (V.euclidean_distance a a);
  Alcotest.(check (float 1e-9)) "orthogonal distance" (sqrt 2.0)
    (V.euclidean_distance a b);
  Alcotest.(check (float 1e-9)) "self cosine" 0.0 (V.cosine_distance a a);
  Alcotest.(check (float 1e-9)) "orthogonal cosine" 1.0 (V.cosine_distance a b);
  Alcotest.(check (float 1e-9)) "zero-vs-zero" 0.0
    (V.cosine_distance V.empty V.empty);
  Alcotest.(check (float 1e-9)) "zero-vs-nonzero cosine" 1.0
    (V.cosine_distance V.empty a);
  Alcotest.(check (float 1e-9)) "normalized orthogonal" (sqrt 2.0)
    (V.normalized_euclidean_distance a b);
  (* Scaling a vector leaves normalized distances unchanged. *)
  let a3 = V.of_triples [ ("r", "a", "1"); ("r", "a", "1"); ("r", "a", "1") ] in
  Alcotest.(check (float 1e-9)) "scale invariance (cosine)" 0.0
    (V.cosine_distance a a3);
  Alcotest.(check (float 1e-9)) "scale invariance (normalized)" 0.0
    (V.normalized_euclidean_distance a a3)

(* --- profiles --- *)

let test_profile () =
  let p = flights_b () in
  Alcotest.(check int) "one relation" 1 (P.Counts.cardinal (P.rel_counts p));
  Alcotest.(check int) "four attributes" 4 (P.Strings.cardinal (P.atts p));
  Alcotest.(check bool) "values include 100" true
    (P.Strings.mem "100" (P.values p));
  (* Profile agrees with the explicit TNF view. *)
  let via_tnf = P.of_triples (Tnf.triples (Tnf.encode Workloads.Flights.b)) in
  Alcotest.(check string) "string(d) agrees with TNF" (P.str via_tnf) (P.str p);
  Alcotest.(check (float 1e-9)) "vector norm agrees"
    (V.norm (P.vector via_tnf)) (V.norm (P.vector p))

let test_profile_skips_nulls () =
  let db =
    Database.of_list
      [ ("r", Relation.of_strings [ "a"; "b" ] [ [ "1"; "" ] ]) ]
  in
  let p = profile db in
  Alcotest.(check int) "null cell not a value" 1
    (P.Strings.cardinal (P.values p))

let test_profile_str_unambiguous () =
  (* The components of a cell must be separated in [str]: ("ab","c",·) and
     ("a","bc",·) have the same character stream, so without a separator
     the two profiles would serialize identically and Levenshtein-based
     heuristics could not tell them apart. (Regression: components used to
     be concatenated bare.) *)
  let p1 = P.of_triples [ ("ab", "c", "d") ] in
  let p2 = P.of_triples [ ("a", "bc", "d") ] in
  Alcotest.(check bool) "different triples, different str" false
    (String.equal (P.str p1) (P.str p2));
  (* Repeated triples appear with their multiplicity. *)
  let once = P.of_triples [ ("r", "a", "1") ] in
  let twice = P.of_triples [ ("r", "a", "1"); ("r", "a", "1") ] in
  Alcotest.(check bool) "multiplicity is visible" false
    (String.equal (P.str once) (P.str twice))

(* --- the seven heuristics --- *)

let test_h0 () =
  Alcotest.(check int) "h0 always zero" 0
    (estimate H.h0 ~target:(flights_a ()) (flights_b ()))

let test_h_zero_at_target () =
  (* Every heuristic must report 0 distance from the target to itself. *)
  let t = flights_a () in
  List.iter
    (fun h ->
      Alcotest.(check int) (h.H.name ^ " at target") 0 (estimate h ~target:t t))
    (H.all H.Scaling.ida)

let test_h1 () =
  let source, target = Workloads.Synthetic.matching_pair 4 in
  let h = estimate H.h1 ~target:(profile target) (profile source) in
  (* Target misses 4 attribute names; relation name and values coincide. *)
  Alcotest.(check int) "h1 counts missing attributes" 4 h

let test_h2 () =
  (* A target whose attribute name appears among the source's values needs
     promotions: h2 counts the cross-category overlap. *)
  let source =
    Database.of_list [ ("r", Relation.of_strings [ "k" ] [ [ "price" ] ]) ]
  in
  let target =
    Database.of_list [ ("r", Relation.of_strings [ "price" ] [ [ "9" ] ]) ]
  in
  let h = estimate H.h2 ~target:(profile target) (profile source) in
  Alcotest.(check int) "one value-to-attribute promotion" 1 h

let test_h3_is_max () =
  let pairs =
    [ (Workloads.Flights.b, Workloads.Flights.a);
      (Workloads.Flights.a, Workloads.Flights.c) ]
  in
  List.iter
    (fun (s, t) ->
      let sp = profile s and tp = profile t in
      Alcotest.(check int) "h3 = max(h1, h2)"
        (max (estimate H.h1 ~target:tp sp) (estimate H.h2 ~target:tp sp))
        (estimate H.h3 ~target:tp sp))
    pairs

let test_scaled_bounds () =
  let x = flights_b () and t = flights_a () in
  let check_range name v k =
    Alcotest.(check bool) (name ^ " within [0,k]-ish") true (v >= 0 && v <= 2 * k)
  in
  check_range "levenshtein" (estimate (H.levenshtein ~k:11) ~target:t x) 11;
  check_range "euclid-norm" (estimate (H.euclid_norm ~k:7) ~target:t x) 7;
  check_range "cosine" (estimate (H.cosine ~k:5) ~target:t x) 5

let test_scaling_constants () =
  Alcotest.(check int) "IDA k eucl-norm" 7 H.Scaling.ida.H.Scaling.k_euclid_norm;
  Alcotest.(check int) "IDA k cosine" 5 H.Scaling.ida.H.Scaling.k_cosine;
  Alcotest.(check int) "IDA k levenshtein" 11 H.Scaling.ida.H.Scaling.k_levenshtein;
  Alcotest.(check int) "RBFS k eucl-norm" 20 H.Scaling.rbfs.H.Scaling.k_euclid_norm;
  Alcotest.(check int) "RBFS k cosine" 24 H.Scaling.rbfs.H.Scaling.k_cosine;
  Alcotest.(check int) "RBFS k levenshtein" 15 H.Scaling.rbfs.H.Scaling.k_levenshtein

let test_combined () =
  let x = flights_b () and t = flights_a () in
  let h = H.combined ~k:5 in
  Alcotest.(check int) "combined = max(h1, cosine)"
    (max (estimate H.h1 ~target:t x) (estimate (H.cosine ~k:5) ~target:t x))
    (estimate h ~target:t x);
  Alcotest.(check int) "combined zero at target" 0 (estimate h ~target:t t);
  (* On the λ workload, combined must be at least as informed as h1. *)
  let task = Workloads.Inventory.task 4 in
  let sp = profile task.Workloads.Inventory.source in
  let tp = profile task.Workloads.Inventory.target in
  Alcotest.(check bool) "combined >= h1 on inventory" true
    (estimate h ~target:tp sp >= estimate H.h1 ~target:tp sp)

let test_all_and_by_name () =
  let hs = H.all H.Scaling.ida in
  Alcotest.(check (list string)) "the eight heuristics, paper order"
    [ "h0"; "h1"; "h2"; "h3"; "euclid"; "euclid-norm"; "cosine"; "levenshtein" ]
    (List.map (fun h -> h.H.name) hs);
  Alcotest.(check bool) "by_name finds cosine" true
    (H.by_name H.Scaling.ida "cosine" <> None);
  Alcotest.(check bool) "by_name unknown" true
    (H.by_name H.Scaling.ida "nope" = None);
  Alcotest.(check bool) "by_name resolves combined" true
    (H.by_name H.Scaling.ida "combined" <> None)

let test_relation_triples_ragged () =
  (* A ragged relation — row arity disagreeing with the schema — is only
     constructible through [Relation.unsafe_of_rows] (a loader bug, never a
     search state). [relation_triples] must fail diagnosably, naming the
     relation and both arities, rather than raising a bare
     [Invalid_argument] from deep inside [fold_left2]. *)
  let ragged =
    Relation.unsafe_of_rows
      (Schema.of_list [ "a"; "b"; "c" ])
      [
        Row.of_list [ Value.Int 1; Value.Int 2; Value.Int 3 ];
        Row.of_list [ Value.Int 4; Value.Int 5 ];
      ]
  in
  let expected =
    "Profile.relation_triples: ragged relation \"inventory\": row arity 2 \
     does not match schema arity 3"
  in
  Alcotest.check_raises "names relation and arities"
    (Invalid_argument expected) (fun () ->
      ignore (P.relation_triples "inventory" ragged));
  (* A well-formed relation through the same entry point still profiles. *)
  let ok =
    Relation.unsafe_of_rows
      (Schema.of_list [ "a" ])
      [ Row.of_list [ Value.Int 1 ] ]
  in
  Alcotest.(check int) "well-formed relation profiles" 1
    (List.length (P.relation_triples "r" ok))

let test_h1_monotone_under_progress () =
  (* Renaming an attribute toward the target must not increase h1. *)
  let source, target = Workloads.Synthetic.matching_pair 3 in
  let tp = profile target in
  let before = estimate H.h1 ~target:tp (profile source) in
  let renamed =
    Fira.Eval.apply Fira.Semfun.empty_registry
      (Fira.Op.RenameAtt { rel = "R"; old_name = "A01"; new_name = "B01" })
      source
  in
  let after = estimate H.h1 ~target:tp (profile renamed) in
  Alcotest.(check bool) "h1 decreases" true (after < before)

let suite =
  [
    Alcotest.test_case "levenshtein basics" `Quick test_levenshtein_basics;
    Alcotest.test_case "levenshtein normalized" `Quick test_levenshtein_normalized;
    Alcotest.test_case "vector basics" `Quick test_vector_basics;
    Alcotest.test_case "vector distances" `Quick test_vector_distances;
    Alcotest.test_case "profile construction" `Quick test_profile;
    Alcotest.test_case "profile skips nulls" `Quick test_profile_skips_nulls;
    Alcotest.test_case "profile str is unambiguous" `Quick
      test_profile_str_unambiguous;
    Alcotest.test_case "h0 blind" `Quick test_h0;
    Alcotest.test_case "all heuristics zero at target" `Quick test_h_zero_at_target;
    Alcotest.test_case "h1 missing names" `Quick test_h1;
    Alcotest.test_case "h2 cross-category overlap" `Quick test_h2;
    Alcotest.test_case "h3 = max(h1,h2)" `Quick test_h3_is_max;
    Alcotest.test_case "scaled heuristics bounded" `Quick test_scaled_bounds;
    Alcotest.test_case "paper scaling constants" `Quick test_scaling_constants;
    Alcotest.test_case "combined heuristic" `Quick test_combined;
    Alcotest.test_case "all/by_name" `Quick test_all_and_by_name;
    Alcotest.test_case "h1 rewards progress" `Quick test_h1_monotone_under_progress;
    Alcotest.test_case "ragged relation diagnosable" `Quick
      test_relation_triples_ragged;
  ]
