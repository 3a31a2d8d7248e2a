(* Relational.Intern: ids against a reference table, concurrent interning,
   and the allocation cost of a hit. The cost of a fresh insert is
   measured in its own process, test_young_pool.ml. *)

open Relational

(* The model's key: a value's type and printed form, which is value
   identity (floats print losslessly, and every NaN as "nan"). *)
let value_key v = Value.type_name v ^ ":" ^ Value.to_string v
let same_value a b = String.equal (value_key a) (value_key b)

let fresh_tag =
  let n = ref 0 in
  fun name ->
    incr n;
    Printf.sprintf "intern-test/%s/%d/" name !n

(* A reference model of one pool: ids issued from [base] on are dense and
   in first-seen order; a key the process interned before the run
   answers with an older id, which only the round trip can check. *)
type model = { ids : (string, int) Hashtbl.t; base : int; mutable next : int }

let model base = { ids = Hashtbl.create 1024; base; next = base }

let see m k id ~round_trip =
  match Hashtbl.find_opt m.ids k with
  | Some want -> id = want
  | None ->
      let fresh_ok =
        if id >= m.base then id = m.next && (m.next <- m.next + 1; true)
        else true
      in
      Hashtbl.add m.ids k id;
      fresh_ok && round_trip id

let edge_values =
  [
    Value.Null;
    Value.Bool true;
    Value.Bool false;
    Value.Int 1;
    Value.Float 1.0;
    Value.Float 0.0;
    Value.Float (-0.0);
    Value.Float (Int64.float_of_bits 0x7ff8000000000001L);
    Value.Float (Int64.float_of_bits 0x7ff8000000000002L);
    Value.String "";
    Value.String "1";
  ]

type key = S of string | V of Value.t

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* [n] distinct keys and about [n / 4] repeats, shuffled. The fresh ones
   carry a per-run tag, so every id they get must be newly issued. *)
let key_stream seed n =
  let st = Random.State.make [| seed |] in
  let tag = fresh_tag "model" in
  let distinct =
    Array.init n (fun i ->
        match i mod 5 with
        | 0 | 1 -> S (tag ^ string_of_int i)
        | 2 -> V (Value.String (tag ^ "v" ^ string_of_int i))
        | 3 -> V (Value.Int ((1 lsl 52) + (seed lsl 20) + i))
        | _ -> V (Value.Float (Int64.float_of_bits (Random.State.bits64 st))))
  in
  let edges =
    List.map (fun v -> V v) edge_values @ [ S ""; S "NULL"; S "1" ]
  in
  let all =
    Array.concat
      [
        distinct;
        Array.init (n / 4) (fun _ -> distinct.(Random.State.int st n));
        Array.of_list edges;
      ]
  in
  shuffle st all;
  all

let prop_model =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:2
       ~name:"intern: ids = a reference table (resizes)" ~print:string_of_int
       QCheck2.Gen.(int_range 1 1_000_000)
       (fun seed ->
         let s0, v0 = Intern.size () in
         (* About n fresh strings and 3n/5 fresh values: both pools at
            least double, which forces an index resize (see
            [test_domains]). *)
         let n = max 40_000 (2 * max s0 v0) + (seed mod 1000) in
         let keys = key_stream seed n in
         let strs = model s0 and vals = model v0 in
         let see_string s =
           see strs s (Intern.string_id s) ~round_trip:(fun id ->
               String.equal (Intern.string_of_id id) s)
         in
         let ok =
           Array.for_all
             (function
               | S s -> see_string s
               | V v ->
                   let round_trip id =
                     same_value (Intern.value_of_id id) v
                     && Intern.value_str_id id
                        = Intern.string_id (Value.to_string v)
                   in
                   see vals (value_key v) (Intern.value_id v) ~round_trip
                   (* The value's printed form was pooled with it. *)
                   && see_string (Value.to_string v))
             keys
         in
         ok && Intern.size () = (strs.next, vals.next)))

let test_edge_cases () =
  let id = Intern.value_id in
  Alcotest.(check int) "\"\" = empty_string_id" Intern.empty_string_id
    (Intern.string_id "");
  Alcotest.(check int) "Null = null_value_id" Intern.null_value_id
    (id Value.Null);
  let distinct name a b =
    Alcotest.(check bool) name true (id a <> id b);
    List.iter
      (fun v ->
        Alcotest.(check bool) (name ^ ": round trip") true
          (same_value (Intern.value_of_id (id v)) v))
      [ a; b ]
  in
  distinct "0.0 vs -0.0" (Value.Float 0.0) (Value.Float (-0.0));
  distinct "Int 1 vs Float 1.0" (Value.Int 1) (Value.Float 1.0);
  Alcotest.(check int) "two NaN payloads: one value"
    (id (Value.Float (Int64.float_of_bits 0x7ff8000000000001L)))
    (id (Value.Float (Int64.float_of_bits 0x7ff8000000000002L)));
  distinct "true vs false" (Value.Bool true) (Value.Bool false);
  distinct "String \"\" vs Null" (Value.String "") Value.Null;
  List.iter
    (fun v ->
      Alcotest.(check int) "stable" (id v) (id v);
      Alcotest.(check int) "String s vs its string id"
        (Intern.value_str_id (id v))
        (Intern.string_id (Value.to_string v)))
    edge_values

let test_jobs =
  match Option.bind (Sys.getenv_opt "TUPELO_TEST_JOBS") int_of_string_opt with
  | Some n when n > 2 -> n
  | _ -> 2

(* Interning domains race over overlapping shuffled subsets of fresh keys
   (a string key and a value key share each printed form, so the two
   pools race too) while a reader only looks up keys interned before the
   race. Every key must get one id, holding that key, in every domain. *)
let test_domains () =
  let tag = fresh_tag "domains" in
  (* 2n fresh strings and 2n fresh values, so both pools at least
     double. An index is at most half full and was at most a quarter
     full after its last resize, so doubling a pool of over 4096 keys
     resizes its index mid-race. *)
  let n =
    let s, v = Intern.size () in
    max 30_000 ((max s v / 2) + 1)
  in
  let strings = Array.init n (fun i -> tag ^ string_of_int i) in
  let ints = Array.init n (fun i -> (1 lsl 53) + i) in
  let old_strings = Array.init 256 (fun i -> tag ^ "old" ^ string_of_int i) in
  let old_values = Array.map (fun s -> Value.String s) old_strings in
  let old_ids = Array.map Intern.value_id old_values in
  let s0, v0 = Intern.size () in
  (* Key [k < n] is string [k] and its [Value.String]; key [n + i] is
     [Int ints.(i)] and its printed form. *)
  let forms k =
    if k < n then (strings.(k), Value.String strings.(k))
    else
      let i = ints.(k - n) in
      (string_of_int i, Value.Int i)
  in
  (* One shuffled order for every domain, so domains sharing a key tend
     to reach it at the same time. *)
  let order = Array.init (2 * n) Fun.id in
  shuffle (Random.State.make [| n |]) order;
  let worker d () =
    let st = Random.State.make [| d |] in
    (* Each key goes to domain [k mod jobs] and, at random, to others. *)
    let mine =
      List.filter
        (fun k -> k mod test_jobs = d || Random.State.bool st)
        (Array.to_list order)
      |> Array.of_list
    in
    let got = Hashtbl.create n in
    let wrong = ref 0 in
    Array.iter
      (fun k ->
        let s, v = forms k in
        let sid = Intern.string_id s and vid = Intern.value_id v in
        if Intern.string_of_id sid <> s
           || not (same_value (Intern.value_of_id vid) v)
        then incr wrong;
        Hashtbl.replace got k (sid, vid))
      mine;
    (got, !wrong)
  in
  let stop = Atomic.make false in
  let reader =
    Domain.spawn (fun () ->
        let wrong = ref 0 and lookups = ref 0 in
        while not (Atomic.get stop) do
          Array.iteri
            (fun i v ->
              incr lookups;
              if Intern.value_id v <> old_ids.(i) then incr wrong;
              if Intern.string_id old_strings.(i)
                 <> Intern.value_str_id old_ids.(i)
              then incr wrong)
            old_values
        done;
        (!wrong, !lookups))
  in
  let results =
    List.init test_jobs (fun d -> Domain.spawn (worker d))
    |> List.map Domain.join
  in
  Atomic.set stop true;
  let reader_wrong, lookups = Domain.join reader in
  Alcotest.(check int) "reader: every lookup gave its id" 0 reader_wrong;
  Alcotest.(check bool) "reader ran" true (lookups > 0);
  List.iter
    (fun (_, wrong) ->
      Alcotest.(check int) "no id holds another key" 0 wrong)
    results;
  let agreed = Hashtbl.create n and disagreed = ref 0 in
  List.iter
    (fun (got, _) ->
      Hashtbl.iter
        (fun k ids ->
          match Hashtbl.find_opt agreed k with
          | Some ids' -> if ids <> ids' then incr disagreed
          | None -> Hashtbl.add agreed k ids)
        got)
    results;
  Alcotest.(check int) "same ids in every domain" 0 !disagreed;
  Alcotest.(check int) "every key interned" (2 * n) (Hashtbl.length agreed);
  (* n strings, n printed ints, 2n values. *)
  Alcotest.(check (pair int int))
    "size grows by the distinct new keys"
    (s0 + (2 * n), v0 + (2 * n))
    (Intern.size ())

let test_hit_allocates_nothing () =
  let strings = [| "intern-test/hit"; ""; "NULL" |] in
  let values =
    [|
      Value.String "intern-test/hit";
      Value.Int 42;
      Value.Float 2.5;
      Value.Float (-0.0);
      Value.Bool true;
      Value.Null;
    |]
  in
  Array.iter (fun s -> ignore (Intern.string_id s)) strings;
  Array.iter (fun v -> ignore (Intern.value_id v)) values;
  let hits = 10_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to hits do
    for i = 0 to Array.length strings - 1 do
      ignore (Sys.opaque_identity (Intern.string_id strings.(i)))
    done;
    for i = 0 to Array.length values - 1 do
      ignore (Sys.opaque_identity (Intern.value_id values.(i)))
    done
  done;
  let words = Gc.minor_words () -. w0 in
  (* A few words of slack for the measurement itself. *)
  if words > 16. then
    Alcotest.failf "%d hits allocated %.0f minor words"
      (hits * (Array.length strings + Array.length values))
      words

(* Registered after every other suite, so the 100k-odd keys these
   intern do not inflate the pool the others see. *)
let suite =
  [
    Alcotest.test_case "a hit allocates no minor words" `Quick
      test_hit_allocates_nothing;
    prop_model;
    Alcotest.test_case "edge cases" `Quick test_edge_cases;
    Alcotest.test_case "domains agree while a reader looks up" `Quick
      test_domains;
  ]
