module M = Map.Make (String)

type t = Relation.t M.t

exception Error of string

let error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

let empty = M.empty

let check_name name = if name = "" then error "database: empty relation name"

let add db name rel =
  check_name name;
  M.add name rel db

let of_list entries =
  List.fold_left
    (fun db (name, rel) ->
      if M.mem name db then error "database: duplicate relation %S" name;
      add db name rel)
    empty entries

let remove db name =
  if not (M.mem name db) then error "database: no relation %S" name;
  M.remove name db

let find db name =
  match M.find_opt name db with
  | Some r -> r
  | None -> error "database: no relation %S" name

let find_opt db name = M.find_opt name db
let mem db name = M.mem name db
let relation_names db = List.map fst (M.bindings db)
let relations db = M.bindings db
let size db = M.cardinal db
let total_tuples db = M.fold (fun _ r acc -> acc + Relation.cardinality r) db 0
let fold f db acc = M.fold f db acc
let map f db = M.mapi f db

let all_attributes db =
  M.fold (fun _ r acc -> Relation.attributes r @ acc) db []
  |> List.sort_uniq String.compare

let all_values db =
  M.fold
    (fun _ r acc ->
      Relation.fold (fun row acc -> Row.to_list row @ acc) r acc)
    db []
  |> List.sort_uniq Value.compare

let rename_rel db ~old_name ~new_name =
  check_name new_name;
  if M.mem new_name db && old_name <> new_name then
    error "database: relation %S already present" new_name;
  let r = find db old_name in
  M.add new_name r (M.remove old_name db)

let compare a b = M.compare Relation.compare a b
let equal a b = compare a b = 0

let contains big small =
  M.for_all
    (fun name rel ->
      match M.find_opt name big with
      | Some big_rel -> Relation.contains big_rel rel
      | None -> false)
    small

let canonical_key db =
  let buf = Buffer.create 256 in
  M.iter
    (fun name rel ->
      Buffer.add_string buf name;
      Buffer.add_char buf '\x01';
      let atts = List.sort String.compare (Relation.attributes rel) in
      List.iter
        (fun a ->
          Buffer.add_string buf a;
          Buffer.add_char buf '\x02')
        atts;
      let rows =
        List.sort Row.compare
          (List.map
             (fun row ->
               Row.project (Relation.schema rel) row atts)
             (Relation.rows rel))
      in
      List.iter
        (fun row ->
          List.iter
            (fun v ->
              Buffer.add_string buf (Value.type_name v);
              Buffer.add_char buf ':';
              Buffer.add_string buf (Value.to_string v);
              Buffer.add_char buf '\x03')
            (Row.to_list row);
          Buffer.add_char buf '\x04')
        rows;
      Buffer.add_char buf '\x05')
    db;
  Buffer.contents buf

let to_string db =
  if M.is_empty db then "(empty database)"
  else
    String.concat "\n\n"
      (List.map
         (fun (name, rel) -> name ^ ":\n" ^ Relation.to_string rel)
         (M.bindings db))

let pp ppf db = Format.pp_print_string ppf (to_string db)
