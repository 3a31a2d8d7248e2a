type t = { schema : Schema.t; rows : Row.t list (* sorted, deduplicated *) }

exception Error of string

let error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

let canonicalize rows = List.sort_uniq Row.compare rows

let check_arity schema row =
  if Row.arity row <> Schema.arity schema then
    error "relation: row arity %d does not match schema %s" (Row.arity row)
      (Schema.to_string schema)

let create schema = { schema; rows = [] }

let of_rows schema rows =
  List.iter (check_arity schema) rows;
  { schema; rows = canonicalize rows }

let unsafe_of_rows schema rows = { schema; rows }

let of_strings atts rows =
  let schema = Schema.of_list atts in
  of_rows schema
    (List.map
       (fun cells -> Row.of_list (List.map Value.of_string_guess cells))
       rows)

let add r row =
  check_arity r.schema row;
  { r with rows = canonicalize (row :: r.rows) }

let schema r = r.schema
let attributes r = Schema.attributes r.schema
let rows r = r.rows
let cardinality r = List.length r.rows
let is_empty r = r.rows = []
let mem r row = List.exists (Row.equal row) r.rows

let column r att =
  let i = Schema.index_of r.schema att in
  List.map (fun row -> Row.cell row i) r.rows

let column_distinct r att = List.sort_uniq Value.compare (column r att)
let fold f r acc = List.fold_left (fun acc row -> f row acc) acc r.rows
let iter f r = List.iter f r.rows
let get r row att = Row.get r.schema row att

let project r atts =
  let schema' = Schema.restrict r.schema atts in
  { schema = schema'; rows = canonicalize (List.map (fun row -> Row.project r.schema row atts) r.rows) }

let project_away r att =
  let schema' = Schema.remove r.schema att in
  { schema = schema'; rows = canonicalize (List.map (fun row -> Row.drop r.schema row att) r.rows) }

let select r pred =
  { r with rows = List.filter (fun row -> pred r.schema row) r.rows }

let rename_att r ~old_name ~new_name =
  { r with schema = Schema.rename r.schema ~old_name ~new_name }

let product a b =
  (match Schema.inter a.schema b.schema with
  | [] -> ()
  | shared ->
      error "relation: product operands share attributes %s"
        (String.concat "," shared));
  let schema = Schema.union a.schema b.schema in
  let rows =
    List.concat_map
      (fun ra ->
        List.map (fun rb -> Row.of_array (Array.append (Row.to_array ra) (Row.to_array rb))) b.rows)
      a.rows
  in
  { schema; rows = canonicalize rows }

let align_to schema r =
  (* Reorder [r]'s cells to [schema]'s attribute order. *)
  let atts = Schema.attributes schema in
  List.map (fun row -> Row.project r.schema row atts) r.rows

let union a b =
  if not (Schema.equal a.schema b.schema) then
    error "relation: union schema mismatch %s vs %s"
      (Schema.to_string a.schema) (Schema.to_string b.schema);
  { schema = a.schema; rows = canonicalize (a.rows @ align_to a.schema b) }

let inter a b =
  if not (Schema.equal a.schema b.schema) then
    error "relation: inter schema mismatch %s vs %s"
      (Schema.to_string a.schema) (Schema.to_string b.schema);
  let brows = align_to a.schema b in
  { schema = a.schema; rows = List.filter (fun r -> List.exists (Row.equal r) brows) a.rows }

let diff a b =
  if not (Schema.equal a.schema b.schema) then
    error "relation: diff schema mismatch %s vs %s"
      (Schema.to_string a.schema) (Schema.to_string b.schema);
  let brows = align_to a.schema b in
  { schema = a.schema; rows = List.filter (fun r -> not (List.exists (Row.equal r) brows)) a.rows }

let extend r att f =
  if Schema.mem r.schema att then error "relation: attribute %S already present" att;
  let schema = Schema.append r.schema att in
  { schema; rows = canonicalize (List.map (fun row -> Row.append row (f r.schema row)) r.rows) }

(* ------------------------------------------------------------------ *)
(* Data-metadata operators                                             *)

let usable_column_name v =
  match v with
  | Value.String s when s <> "" -> Some s
  | Value.Int n -> Some (string_of_int n)
  | Value.Float f -> Some (Value.to_string (Value.Float f))
  | Value.Bool b -> Some (Bool.to_string b)
  | _ -> None

let promote r ~name_col ~value_col =
  let ni = Schema.index_of r.schema name_col
  and vi = Schema.index_of r.schema value_col in
  (* Collect the dynamically created column names, in first-seen order. *)
  let new_names =
    List.fold_left
      (fun acc row ->
        match usable_column_name (Row.cell row ni) with
        | Some name when not (Schema.mem r.schema name) && not (List.mem name acc) ->
            acc @ [ name ]
        | _ -> acc)
      [] r.rows
  in
  let schema' = List.fold_left Schema.append r.schema new_names in
  let base_arity = Schema.arity r.schema in
  let rows' =
    List.map
      (fun row ->
        let cells =
          Array.init (Schema.arity schema') (fun j ->
              if j < base_arity then Row.cell row j else Value.Null)
        in
        (match usable_column_name (Row.cell row ni) with
        | Some name ->
            (* The tuple's own promoted cell: either a fresh column or an
               existing one, overwritten for this tuple. *)
            let j = Schema.index_of schema' name in
            cells.(j) <- Row.cell row vi
        | None -> ());
        Row.of_array cells)
      r.rows
  in
  { schema = schema'; rows = canonicalize rows' }

let demote r ~rel_name ~att_att ~rel_att =
  if Schema.mem r.schema att_att then
    error "relation: demote column %S clashes" att_att;
  if Schema.mem r.schema rel_att || att_att = rel_att then
    error "relation: demote column %S clashes" rel_att;
  let meta =
    of_rows
      (Schema.of_list [ att_att; rel_att ])
      (List.map
         (fun a -> Row.of_list [ Value.String a; Value.String rel_name ])
         (Schema.attributes r.schema))
  in
  product r meta

let dereference r ~target ~pointer_col =
  if Schema.mem r.schema target then
    error "relation: dereference target %S already present" target;
  let pi = Schema.index_of r.schema pointer_col in
  extend r target (fun schema row ->
      match usable_column_name (Row.cell row pi) with
      | Some name -> (
          match Schema.index_of_opt schema name with
          | Some j -> Row.cell row j
          | None -> Value.Null)
      | None -> Value.Null)

(* Two rows are compatible if on every column they are equal or one is
   null; their merge takes the non-null cell. *)
let compatible a b =
  let n = Row.arity a in
  let rec go i =
    if i >= n then true
    else
      let x = Row.cell a i and y = Row.cell b i in
      (Value.is_null x || Value.is_null y || Value.equal x y) && go (i + 1)
  in
  go 0

let lub a b =
  Row.of_array
    (Array.init (Row.arity a) (fun i ->
         let x = Row.cell a i in
         if Value.is_null x then Row.cell b i else x))

let merge r att =
  let ai = Schema.index_of r.schema att in
  (* Within each group (same value under [att]), repeatedly merge compatible
     pairs until no pair merges. *)
  let rec merge_group rows =
    (* Find any compatible pair, replace it by its lub, restart; the groups
       are tiny so the quadratic scan is immaterial. *)
    let rec extract_one seen = function
      | [] -> None
      | x :: rest -> (
          let rec pick before = function
            | [] -> None
            | y :: after when compatible x y ->
                Some (lub x y :: List.rev_append before after)
            | y :: after -> pick (y :: before) after
          in
          match pick [] rest with
          | Some rest' -> Some (List.rev_append seen rest')
          | None -> extract_one (x :: seen) rest)
    in
    match extract_one [] rows with
    | Some rows' -> merge_group rows'
    | None -> rows
  in
  let groups = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun row ->
      let key = Value.to_string (Row.cell row ai) in
      if not (Hashtbl.mem groups key) then order := key :: !order;
      Hashtbl.replace groups key (row :: (Option.value ~default:[] (Hashtbl.find_opt groups key))))
    r.rows;
  let rows' =
    List.concat_map (fun key -> merge_group (Hashtbl.find groups key)) (List.rev !order)
  in
  { r with rows = canonicalize rows' }

let partition r att =
  let ai = Schema.index_of r.schema att in
  List.filter_map
    (fun row ->
      let v = Row.cell row ai in
      if Value.is_null v then None else Some (v, row))
    r.rows
  |> List.stable_sort (fun (a, _) (b, _) -> Value.compare a b)
  |> List.fold_left
       (fun acc (v, row) ->
         match acc with
         | (v0, rows) :: rest when Value.equal v0 v -> (v0, row :: rows) :: rest
         | _ -> (v, [ row ]) :: acc)
       []
  |> List.rev_map (fun (v, rows) -> (v, { r with rows = List.rev rows }))

(* ------------------------------------------------------------------ *)

let compare a b =
  let c = Schema.compare a.schema b.schema in
  if c <> 0 then c
  else
    (* Align column order before comparing rows so that attribute order is
       immaterial. *)
    let atts = List.sort String.compare (Schema.attributes a.schema) in
    let norm r = List.sort Row.compare (List.map (fun row -> Row.project r.schema row atts) r.rows) in
    List.compare Row.compare (norm a) (norm b)

let equal a b = compare a b = 0

let contains big small =
  Schema.subset small.schema big.schema
  &&
  let atts = Schema.attributes small.schema in
  let big_proj = List.map (fun row -> Row.project big.schema row atts) big.rows in
  List.for_all (fun row -> List.exists (Row.equal row) big_proj) small.rows

let to_string r =
  let atts = attributes r in
  let cells = List.map (fun row -> List.map Value.to_display (Row.to_list row)) r.rows in
  let widths =
    List.mapi
      (fun i a ->
        List.fold_left (fun w line -> max w (String.length (List.nth line i)))
          (String.length a) cells)
      atts
  in
  let pad s w = s ^ String.make (w - String.length s) ' ' in
  let line parts = "| " ^ String.concat " | " (List.map2 pad parts widths) ^ " |" in
  let sep = "+" ^ String.concat "+" (List.map (fun w -> String.make (w + 2) '-') widths) ^ "+" in
  if atts = [] then "(empty schema)"
  else
    String.concat "\n"
      ((sep :: line atts :: sep :: List.map line cells) @ [ sep ])

let pp ppf r = Format.pp_print_string ppf (to_string r)
