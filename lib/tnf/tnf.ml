open Relational

exception Error of string

let error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

let tid_att = "TID"
let rel_att = "REL"
let att_att = "ATT"
let value_att = "VALUE"
let schema = Schema.of_list [ tid_att; rel_att; att_att; value_att ]

let encode_rows ~name ~first_tid rel =
  let atts = Relation.attributes rel in
  let rows = Relation.rows rel in
  let out = ref [] in
  List.iteri
    (fun i row ->
      let tid = Printf.sprintf "t%d" (first_tid + i) in
      List.iteri
        (fun j att ->
          let v = Row.cell row j in
          if not (Value.is_null v) then
            out :=
              Row.of_list
                [ Value.String tid; Value.String name; Value.String att;
                  Value.String (Value.to_string v) ]
              :: !out)
        atts)
    rows;
  (List.rev !out, first_tid + List.length rows)

let encode db =
  let rows, _ =
    List.fold_left
      (fun (acc, next) (name, rel) ->
        let rows, next' = encode_rows ~name ~first_tid:next rel in
        (acc @ rows, next'))
      ([], 1) (Database.relations db)
  in
  Relation.of_rows schema rows

let check_tnf r =
  if not (Schema.equal (Relation.schema r) schema) then
    error "tnf: relation schema %s is not (TID, REL, ATT, VALUE)"
      (Schema.to_string (Relation.schema r))

let decode tnf =
  check_tnf tnf;
  let s = Relation.schema tnf in
  (* Group cells per (REL, TID); remember per-relation attribute order of
     first appearance. *)
  let rel_atts : (string, string list ref) Hashtbl.t = Hashtbl.create 8 in
  let rel_order = ref [] in
  let cells : (string * string, (string * string) list ref) Hashtbl.t =
    Hashtbl.create 32
  in
  let tuple_order : (string, string list ref) Hashtbl.t = Hashtbl.create 8 in
  Relation.iter
    (fun row ->
      let get a = Value.to_string (Row.get s row a) in
      let tid = get tid_att and rel = get rel_att in
      let att = get att_att and v = get value_att in
      (match Hashtbl.find_opt rel_atts rel with
      | None ->
          Hashtbl.add rel_atts rel (ref [ att ]);
          rel_order := rel :: !rel_order;
          Hashtbl.add tuple_order rel (ref [])
      | Some atts -> if not (List.mem att !atts) then atts := !atts @ [ att ]);
      let key = (rel, tid) in
      (match Hashtbl.find_opt cells key with
      | None ->
          Hashtbl.add cells key (ref [ (att, v) ]);
          let order = Hashtbl.find tuple_order rel in
          order := tid :: !order
      | Some kv -> kv := (att, v) :: !kv))
    tnf;
  List.fold_left
    (fun db rel ->
      let atts = !(Hashtbl.find rel_atts rel) in
      let rel_schema =
        try Schema.of_list atts with Schema.Error m -> error "tnf: %s" m
      in
      let tids = List.rev !(Hashtbl.find tuple_order rel) in
      let rows =
        List.map
          (fun tid ->
            let kv = !(Hashtbl.find cells (rel, tid)) in
            Row.of_list
              (List.map
                 (fun att ->
                   match List.assoc_opt att kv with
                   | Some v -> Value.of_string_guess v
                   | None -> Value.Null)
                 atts))
          tids
      in
      Database.add db rel (Relation.of_rows rel_schema rows))
    Database.empty (List.rev !rel_order)

(* ------------------------------------------------------------------ *)
(* SQL demonstration                                                   *)

let sql_quote s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '\'';
  String.iter
    (fun c -> if c = '\'' then Buffer.add_string buf "''" else Buffer.add_char buf c)
    s;
  Buffer.add_char buf '\'';
  Buffer.contents buf

let sql_ident s = "\"" ^ s ^ "\""

let sql_script db =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "CREATE TABLE tnf (TID, REL, ATT, VALUE);\n";
  (* Discover the relations and their columns through the catalog. *)
  let tables = Sql.query db "SELECT REL FROM __tables ORDER BY REL" in
  let tid = ref 0 in
  List.iter
    (fun trow ->
      let rel =
        Value.to_string (Row.get (Relation.schema tables) trow "REL")
      in
      let cols =
        Sql.query db
          (Printf.sprintf
             "SELECT ATT FROM __columns WHERE REL = %s ORDER BY POS"
             (sql_quote rel))
      in
      let atts =
        List.map
          (fun crow ->
            Value.to_string (Row.get (Relation.schema cols) crow "ATT"))
          (Relation.rows cols)
      in
      let data =
        Sql.query db (Printf.sprintf "SELECT * FROM %s" (sql_ident rel))
      in
      List.iter
        (fun drow ->
          incr tid;
          List.iter
            (fun att ->
              let v = Row.get (Relation.schema data) drow att in
              if not (Value.is_null v) then
                Buffer.add_string buf
                  (Printf.sprintf "INSERT INTO tnf VALUES (%s, %s, %s, %s);\n"
                     (sql_quote (Printf.sprintf "t%d" !tid))
                     (sql_quote rel) (sql_quote att)
                     (sql_quote (Value.to_string v))))
            atts)
        (Relation.rows data))
    (Relation.rows tables);
  Buffer.contents buf

let via_sql db =
  let script = sql_script db in
  let results = Sql.exec_script db script in
  match List.rev results with
  | last :: _ -> Database.find last.Sql.db "tnf"
  | [] -> error "tnf: empty SQL script"

(* ------------------------------------------------------------------ *)
(* Heuristic views                                                     *)

let distinct_strings tnf att =
  check_tnf tnf;
  List.map Value.to_string (Relation.column_distinct tnf att)
  |> List.sort_uniq String.compare

let rel_names tnf = distinct_strings tnf rel_att
let att_names tnf = distinct_strings tnf att_att
let cell_values tnf = distinct_strings tnf value_att

let triples tnf =
  check_tnf tnf;
  let s = Relation.schema tnf in
  Relation.rows tnf
  |> List.map (fun row ->
         let get a = Value.to_string (Row.get s row a) in
         (get rel_att, get att_att, get value_att))
  |> List.sort compare

let to_sorted_string tnf =
  let parts =
    List.map (fun (r, a, v) -> r ^ a ^ v) (triples tnf)
    |> List.sort String.compare
  in
  String.concat "" parts
