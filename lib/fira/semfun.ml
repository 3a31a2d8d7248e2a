open Relational

exception Error of string

let error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

type t = {
  name : string;
  arity : int;
  examples : (Value.t list * Value.t) list;
  impl : (Value.t list -> Value.t) option;
  signature : (string list * string) option;
}

let make ?impl ?signature ~name ~arity ~examples () =
  if name = "" then error "semfun: empty name";
  if arity < 1 then error "semfun: arity must be >= 1 (got %d)" arity;
  List.iter
    (fun (ins, _) ->
      if List.length ins <> arity then
        error "semfun %s: example input arity %d, expected %d" name
          (List.length ins) arity)
    examples;
  (match signature with
  | Some (ins, _) when List.length ins <> arity ->
      error "semfun %s: signature has %d inputs, expected %d" name
        (List.length ins) arity
  | _ -> ());
  { name; arity; examples; impl; signature }

let name f = f.name
let arity f = f.arity
let examples f = f.examples
let signature f = f.signature

let check_arity f ins =
  if List.length ins <> f.arity then
    error "semfun %s: applied to %d inputs, expected %d" f.name
      (List.length ins) f.arity

let apply_example f ins =
  check_arity f ins;
  List.find_map
    (fun (eins, out) ->
      if List.for_all2 Value.equal eins ins then Some out else None)
    f.examples

let apply f ins =
  check_arity f ins;
  match f.impl with
  | Some impl -> impl ins
  | None -> ( match apply_example f ins with Some v -> v | None -> Value.Null)

(* ------------------------------------------------------------------ *)

module M = Map.Make (String)

type registry = t M.t

let empty_registry = M.empty

let register reg f =
  if M.mem f.name reg then error "semfun: duplicate function %S" f.name;
  M.add f.name f reg

let find reg n = M.find_opt n reg

let find_exn reg n =
  match find reg n with
  | Some f -> f
  | None -> error "semfun: unknown function %S" n

let of_list fs = List.fold_left register empty_registry fs
let to_list reg = List.map snd (M.bindings reg)

(* ------------------------------------------------------------------ *)
(* Annotation codec. Format (one string per example):
     λ<name>/<arity>:<in1>\x1f<in2>...\x1f<inN>→<out>
   \x1f (unit separator) cannot occur in values produced by the workload
   generators; the arrow is the three-byte UTF-8 sequence for U+2192. *)

let arrow = "\xe2\x86\x92"
let sep = '\x1f'

let is_annotation s = String.length s >= 2 && s.[0] = '\xce' && s.[1] = '\xbb'

let lambda = "\xce\xbb" (* U+03BB *)

let encode_annotation f =
  let sig_part =
    match f.signature with
    | None -> ""
    | Some (ins, out) -> Printf.sprintf "[%s>%s]" (String.concat "," ins) out
  in
  List.map
    (fun (ins, out) ->
      Printf.sprintf "%s%s/%d%s:%s%s%s" lambda f.name f.arity sig_part
        (String.concat (String.make 1 sep)
           (List.map Value.to_string ins))
        arrow (Value.to_string out))
    f.examples

let split_once ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i =
    if i + nl > hl then None
    else if String.sub hay i nl = needle then
      Some (String.sub hay 0 i, String.sub hay (i + nl) (hl - i - nl))
    else go (i + 1)
  in
  go 0

let decode_one s =
  (* s without the λ prefix: name/arity[sig]:ins→out *)
  match String.index_opt s '/' with
  | None -> error "semfun: malformed annotation %S (no '/')" s
  | Some slash -> (
      let name = String.sub s 0 slash in
      let rest = String.sub s (slash + 1) (String.length s - slash - 1) in
      match String.index_opt rest ':' with
      | None -> error "semfun: malformed annotation %S (no ':')" s
      | Some colon -> (
          let head = String.sub rest 0 colon in
          let body = String.sub rest (colon + 1) (String.length rest - colon - 1) in
          let arity_s, signature =
            match String.index_opt head '[' with
            | None -> (head, None)
            | Some lb ->
                if head.[String.length head - 1] <> ']' then
                  error "semfun: malformed signature in %S" s;
                let arity_s = String.sub head 0 lb in
                let sig_body =
                  String.sub head (lb + 1) (String.length head - lb - 2)
                in
                (match String.index_opt sig_body '>' with
                | None -> error "semfun: malformed signature in %S" s
                | Some gt ->
                    let ins =
                      String.split_on_char ','
                        (String.sub sig_body 0 gt)
                    in
                    let out =
                      String.sub sig_body (gt + 1)
                        (String.length sig_body - gt - 1)
                    in
                    (arity_s, Some (ins, out)))
          in
          let arity =
            match int_of_string_opt arity_s with
            | Some n -> n
            | None -> error "semfun: bad arity %S in annotation" arity_s
          in
          match split_once ~needle:arrow body with
          | None -> error "semfun: malformed annotation %S (no arrow)" s
          | Some (ins_s, out_s) ->
              let ins =
                String.split_on_char sep ins_s
                |> List.map Value.of_string_guess
              in
              if List.length ins <> arity then
                error "semfun: annotation %S input arity mismatch" s;
              (name, arity, signature, (ins, Value.of_string_guess out_s))))

let decode_annotations strings =
  let entries =
    List.filter_map
      (fun s ->
        if is_annotation s then
          Some (decode_one (String.sub s 2 (String.length s - 2)))
        else None)
      strings
  in
  let grouped = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun (name, arity, signature, example) ->
      match Hashtbl.find_opt grouped name with
      | None ->
          Hashtbl.add grouped name (arity, signature, ref [ example ]);
          order := name :: !order
      | Some (a, _, exs) ->
          if a <> arity then
            error "semfun: inconsistent arities for %S in annotations" name;
          exs := example :: !exs)
    entries;
  List.rev_map
    (fun name ->
      let arity, signature, exs = Hashtbl.find grouped name in
      make ?signature ~name ~arity ~examples:(List.rev !exs) ())
    !order
