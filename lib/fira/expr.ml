type t = Op.t list

let of_ops ops = ops
let ops e = e
let length = List.length
let compose f g = f @ g
let equal a b = List.length a = List.length b && List.for_all2 Op.equal a b

let eval registry e db =
  List.fold_left (fun db op -> Eval.apply registry op db) db e

let eval_syntactic registry e db =
  List.fold_left (fun db op -> Eval.apply_syntactic registry op db) db e

let to_string e = String.concat "\n" (List.map Op.to_string e)

let to_paper_string e =
  String.concat "\n"
    (List.mapi
       (fun i op -> Printf.sprintf "R%d := %s" (i + 1) (Op.to_paper_string op))
       e)

let pp ppf e = Format.pp_print_string ppf (to_string e)
