(* The cost of interning fresh values into a young pool, as a fresh
   migration process does: its own executable, so the pool is young,
   and test_main's ids stay as they are. *)

open Relational

(* Interning a fresh value pools its printed form too. Into a young
   pool, 10,000 fresh values measured 204 major words per value when
   lock-free reads went through amortized copies of the whole index, and
   35 with the open-addressing index; the bound sits between them. *)
let major_words_per_fresh_value = 80.

let test_fresh_insert_major_words () =
  let tag = "young-pool/" in
  let n = 10_000 in
  let values = Array.init n (fun i -> Value.String (tag ^ string_of_int i)) in
  let s0, v0 = Intern.size () in
  Gc.minor ();
  let m0 = (Gc.quick_stat ()).major_words in
  Array.iter (fun v -> ignore (Intern.value_id v)) values;
  let per = ((Gc.quick_stat ()).major_words -. m0) /. float_of_int n in
  Alcotest.(check (pair int int)) "all fresh" (s0 + n, v0 + n) (Intern.size ());
  if per > major_words_per_fresh_value then
    Alcotest.failf "%.1f major words per fresh value (bound %.0f)" per
      major_words_per_fresh_value

let () =
  Alcotest.run "tupelo-young-pool"
    [
      ( "intern.young",
        [
          Alcotest.test_case "fresh inserts: major words per value" `Quick
            test_fresh_insert_major_words;
        ] );
    ]
