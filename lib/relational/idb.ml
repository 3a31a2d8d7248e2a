(* Interned databases: name-id → Irel.t bindings kept in an array sorted
   by relation-name string, mirroring Database's Map.Make(String) binding
   order so that iteration-order-sensitive consumers (candidate emission,
   fingerprint sums, canonical keys) see exactly the boxed sequence. *)

type entry = { name : int; rel : Irel.t }
type t = entry array

let empty : t = [||]

let find_index (t : t) name =
  let n = Array.length t in
  let rec go i = if i >= n then None else if t.(i).name = name then Some i else go (i + 1) in
  go 0

let find_opt t name =
  match find_index t name with Some i -> Some t.(i).rel | None -> None

let find t name =
  match find_opt t name with
  | Some r -> r
  | None ->
      invalid_arg
        (Printf.sprintf "Idb: no relation %S" (Intern.string_of_id name))

let mem t name = find_index t name <> None

let add (t : t) name rel : t =
  match find_index t name with
  | Some i ->
      let t' = Array.copy t in
      t'.(i) <- { name; rel };
      t'
  | None ->
      let n = Array.length t in
      let pos = ref n in
      (try
         for i = 0 to n - 1 do
           if Intern.compare_strings name t.(i).name < 0 then begin
             pos := i;
             raise Exit
           end
         done
       with Exit -> ());
      let pos = !pos in
      Array.init (n + 1) (fun i ->
          if i < pos then t.(i)
          else if i = pos then { name; rel }
          else t.(i - 1))

let remove (t : t) name : t =
  match find_index t name with
  | None ->
      invalid_arg
        (Printf.sprintf "Idb: no relation %S" (Intern.string_of_id name))
  | Some i ->
      Array.init
        (Array.length t - 1)
        (fun j -> if j < i then t.(j) else t.(j + 1))

let rename_rel t ~old_name ~new_name =
  let r = find t old_name in
  add (remove t old_name) new_name r

let names (t : t) = Array.to_list (Array.map (fun e -> e.name) t)

let iter f (t : t) = Array.iter (fun e -> f e.name e.rel) t

let fold f (t : t) acc =
  Array.fold_left (fun acc e -> f e.name e.rel acc) acc t

let cells (t : t) =
  Array.fold_left (fun acc e -> acc + Irel.cells e.rel) 0 t

let of_database db =
  (* Database bindings come out in name-sorted order already. *)
  Array.of_list
    (List.map
       (fun (name, rel) ->
         { name = Intern.string_id name; rel = Irel.of_relation rel })
       (Database.relations db))

let to_database (t : t) =
  Database.of_list
    (Array.to_list
       (Array.map
          (fun e -> (Intern.string_of_id e.name, Irel.to_relation e.rel))
          t))

let fingerprint (t : t) =
  Array.fold_left
    (fun acc e ->
      Fingerprint.combine acc (Irel.fingerprint ~name:e.name e.rel))
    Fingerprint.zero t

(* Database.equal: same relation-name set, and per name Relation.equal.
   Entries are physically shared between a state and its successors for
   every untouched relation ([add]/[remove] copy the spine only), so the
   [==] fast path skips almost all per-relation work when comparing
   siblings. *)
let equal (a : t) (b : t) =
  a == b
  || Array.length a = Array.length b
     && Array.for_all2
          (fun ea eb ->
            ea == eb || (ea.name = eb.name && Irel.equal ea.rel eb.rel))
          a b

(* Database.contains: every relation of [small] is contained (Relation.
   contains) in the same-named relation of [big]. *)
let contains (big : t) (small : t) =
  Array.for_all
    (fun e ->
      match find_opt big e.name with
      | Some big_rel -> Irel.contains big_rel e.rel
      | None -> false)
    small
