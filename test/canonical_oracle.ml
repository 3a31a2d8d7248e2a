(* Relation equality as it was computed before the in-place check, kept
   as a test oracle: both relations projected onto their sorted attribute
   order, the rows sorted under Value.compare, then compared position by
   position, id for id. This is what [Database.canonical_key] equality
   means, row order included. *)

open Relational

let sorted_atts r = List.sort Intern.compare_strings (Array.to_list (Irel.atts r))

let project_rows r atts =
  let idx =
    Array.of_list
      (List.map
         (fun a ->
           match Irel.index_of_opt r a with
           | Some j -> j
           | None -> invalid_arg "Canonical_oracle.project_rows")
         atts)
  in
  List.init (Irel.cardinality r) (fun i ->
      Array.map (fun j -> (Irel.col_ids r j).(i)) idx)

let irel a b =
  a == b
  || Irel.cardinality a = Irel.cardinality b
     &&
     let sa = sorted_atts a and sb = sorted_atts b in
     List.equal Int.equal sa sb
     &&
     let norm t = List.sort Irel.compare_rows (project_rows t sa) in
     List.equal
       (fun x y ->
         let n = Array.length x in
         let rec go i =
           i >= n || (x.(i) = y.(i) && go (i + 1))
         in
         go 0)
       (norm a) (norm b)

let idb a b =
  let bindings d = List.rev (Idb.fold (fun name r acc -> (name, r) :: acc) d []) in
  List.equal
    (fun (n, r) (n', r') -> n = n' && irel r r')
    (bindings a) (bindings b)
