type t =
  | Promote of { rel : string; name_col : string; value_col : string }
  | Demote of { rel : string; att_att : string; rel_att : string }
  | Dereference of { rel : string; target : string; pointer_col : string }
  | Partition of { rel : string; col : string }
  | Product of { left : string; right : string; out : string }
  | Drop of { rel : string; col : string }
  | Merge of { rel : string; col : string }
  | RenameAtt of { rel : string; old_name : string; new_name : string }
  | RenameRel of { old_name : string; new_name : string }
  | Apply of { rel : string; func : string; inputs : string list; output : string }
  | Union of { left : string; right : string; out : string }
  | Diff of { left : string; right : string; out : string }
  | Join of { left : string; right : string; out : string }
  | Select of { rel : string; pred : Relational.Algebra.pred }

let is_core = function
  | Union _ | Diff _ | Join _ | Select _ -> false
  | _ -> true

let demote ?(att_att = "ATT") ?(rel_att = "REL") rel =
  Demote { rel; att_att; rel_att }

let rel_of = function
  | Promote { rel; _ }
  | Demote { rel; _ }
  | Dereference { rel; _ }
  | Partition { rel; _ }
  | Drop { rel; _ }
  | Merge { rel; _ }
  | RenameAtt { rel; _ }
  | Apply { rel; _ } ->
      Some rel
  | RenameRel { old_name; _ } -> Some old_name
  | Select { rel; _ } -> Some rel
  | Product _ | Union _ | Diff _ | Join _ -> None

let compare = Stdlib.compare
let equal a b = compare a b = 0

let kind_index = function
  | Promote _ -> 0
  | Demote _ -> 1
  | Dereference _ -> 2
  | Partition _ -> 3
  | Product _ -> 4
  | Drop _ -> 5
  | Merge _ -> 6
  | RenameAtt _ -> 7
  | RenameRel _ -> 8
  | Apply _ -> 9
  | Union _ -> 10
  | Diff _ -> 11
  | Join _ -> 12
  | Select _ -> 13

let kind_names =
  [|
    "promote"; "demote"; "dereference"; "partition"; "product"; "drop";
    "merge"; "rename_att"; "rename_rel"; "apply"; "union"; "diff"; "join";
    "select";
  |]

let kind_name op = kind_names.(kind_index op)

let event_names prefix =
  let names = Array.map (fun k -> prefix ^ k) kind_names in
  fun op -> names.(kind_index op)

(* Names in the compact ASCII form are printed raw when they cannot be
   mistaken for the syntax around them, and double-quoted (with backslash
   escapes for backslash, double quote, newline and CR) otherwise.
   Operators such as ↑ and ℘ mint attribute and relation names out of
   data values, so a discovered mapping can legitimately mention names
   containing any delimiter; quoting keeps [Parser.op_of_string] a total
   inverse. *)

let contains_sub s needle =
  let nl = String.length needle and sl = String.length s in
  let rec go i =
    if i + nl > sl then false
    else String.sub s i nl = needle || go (i + 1)
  in
  go 0

let needs_quoting s =
  s = ""
  || String.trim s <> s
  || String.exists
       (function
         | '"' | '[' | ']' | '(' | ')' | ',' | '/' | '\\' | '\n' | '\r' ->
             true
         | _ -> false)
       s
  || contains_sub s "->" || contains_sub s "<-*"

let quote_name s =
  if not (needs_quoting s) then s
  else begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (function
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end

let to_string op =
  let q = quote_name in
  match op with
  | Promote { rel; name_col; value_col } ->
      Printf.sprintf "promote[%s/%s](%s)" (q name_col) (q value_col) (q rel)
  | Demote { rel; att_att; rel_att } ->
      Printf.sprintf "demote[%s,%s](%s)" (q att_att) (q rel_att) (q rel)
  | Dereference { rel; target; pointer_col } ->
      Printf.sprintf "deref[%s<-*%s](%s)" (q target) (q pointer_col) (q rel)
  | Partition { rel; col } -> Printf.sprintf "partition[%s](%s)" (q col) (q rel)
  | Product { left; right; out } ->
      Printf.sprintf "product[%s](%s, %s)" (q out) (q left) (q right)
  | Drop { rel; col } -> Printf.sprintf "drop[%s](%s)" (q col) (q rel)
  | Merge { rel; col } -> Printf.sprintf "merge[%s](%s)" (q col) (q rel)
  | RenameAtt { rel; old_name; new_name } ->
      Printf.sprintf "rename_att[%s->%s](%s)" (q old_name) (q new_name) (q rel)
  | RenameRel { old_name; new_name } ->
      Printf.sprintf "rename_rel[%s->%s]" (q old_name) (q new_name)
  | Apply { rel; func; inputs; output } ->
      Printf.sprintf "apply[%s(%s)->%s](%s)" (q func)
        (String.concat "," (List.map q inputs))
        (q output) (q rel)
  | Union { left; right; out } ->
      Printf.sprintf "union[%s](%s, %s)" (q out) (q left) (q right)
  | Diff { left; right; out } ->
      Printf.sprintf "diff[%s](%s, %s)" (q out) (q left) (q right)
  | Join { left; right; out } ->
      Printf.sprintf "join[%s](%s, %s)" (q out) (q left) (q right)
  | Select { rel; pred } ->
      Printf.sprintf "select[%s](%s)" (Pred_syntax.to_string pred) (q rel)

let to_paper_string = function
  | Promote { rel; name_col; value_col } ->
      Printf.sprintf "\xe2\x86\x91^%s_%s(%s)" value_col name_col rel
  | Demote { rel; _ } -> Printf.sprintf "\xe2\x86\x93(%s)" rel
  | Dereference { rel; target; pointer_col } ->
      Printf.sprintf "\xe2\x86\x92^%s_%s(%s)" target pointer_col rel
  | Partition { rel; col } -> Printf.sprintf "\xe2\x84\x98_%s(%s)" col rel
  | Product { left; right; _ } -> Printf.sprintf "\xc3\x97(%s, %s)" left right
  | Drop { rel; col } -> Printf.sprintf "\xcf\x80\xcc\x85_%s(%s)" col rel
  | Merge { rel; col } -> Printf.sprintf "\xc2\xb5_%s(%s)" col rel
  | RenameAtt { rel; old_name; new_name } ->
      Printf.sprintf "\xcf\x81^att_%s\xe2\x86\x92%s(%s)" old_name new_name rel
  | RenameRel { old_name; new_name } ->
      Printf.sprintf "\xcf\x81^rel_%s\xe2\x86\x92%s" old_name new_name
  | Apply { rel; func; inputs; output } ->
      Printf.sprintf "\xce\xbb^%s_%s,%s(%s)" output func
        (String.concat "," inputs) rel
  | Union { left; right; _ } -> Printf.sprintf "\xe2\x88\xaa(%s, %s)" left right
  | Diff { left; right; _ } -> Printf.sprintf "\xe2\x88\x92(%s, %s)" left right
  | Join { left; right; _ } ->
      Printf.sprintf "\xe2\x8b\x88(%s, %s)" left right
  | Select { rel; pred } ->
      Printf.sprintf "\xcf\x83_%s(%s)" (Pred_syntax.to_string pred) rel

let pp ppf op = Format.pp_print_string ppf (to_string op)
