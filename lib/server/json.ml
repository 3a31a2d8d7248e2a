type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* --- printing --- *)

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let add_num buf f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.0f" f)
  else Buffer.add_string buf (Printf.sprintf "%.17g" f)

let rec add buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num f -> add_num buf f
  | Str s -> escape_string buf s
  | Arr xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          add buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_string buf k;
          Buffer.add_char buf ':';
          add buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  add buf v;
  Buffer.contents buf

(* --- parsing --- *)

exception Fail of int * string

let parse_sub input ~off ~len =
  if off < 0 || len < 0 || off > String.length input - len then
    invalid_arg "Json.parse_sub";
  let n = off + len in
  let pos = ref off in
  let fail fmt =
    Format.kasprintf (fun m -> raise (Fail (!pos, m))) fmt
  in
  let peek () = if !pos < n then Some input.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && match input.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> incr pos
    | Some c' -> fail "expected %C, found %C" c c'
    | None -> fail "expected %C, found end of input" c
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub input !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail "invalid literal"
  in
  let parse_hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let s = String.sub input !pos 4 in
    match int_of_string_opt ("0x" ^ s) with
    | Some c ->
        pos := !pos + 4;
        c
    | None -> fail "bad \\u escape %S" s
  in
  (* First byte at or after [i] that a string cannot copy verbatim. *)
  let rec plain_end i =
    if i < n
       &&
       let c = String.unsafe_get input i in
       c <> '"' && c <> '\\' && Char.code c >= 0x20
    then plain_end (i + 1)
    else i
  in
  let parse_string () =
    expect '"';
    let start = !pos in
    pos := plain_end start;
    if !pos < n && input.[!pos] = '"' then begin
      (* no escapes: the common case is one copy *)
      incr pos;
      String.sub input start (!pos - 1 - start)
    end
    else begin
      let buf = Buffer.create (2 * (!pos - start) + 16) in
      Buffer.add_substring buf input start (!pos - start);
      let rec go () =
        if !pos >= n then fail "unterminated string";
        match input.[!pos] with
        | '"' -> incr pos
        | '\\' -> (
            incr pos;
            match peek () with
            | Some (('"' | '\\' | '/') as c) ->
                Buffer.add_char buf c;
                incr pos;
                run ()
            | Some 'n' -> Buffer.add_char buf '\n'; incr pos; run ()
            | Some 'r' -> Buffer.add_char buf '\r'; incr pos; run ()
            | Some 't' -> Buffer.add_char buf '\t'; incr pos; run ()
            | Some 'b' -> Buffer.add_char buf '\b'; incr pos; run ()
            | Some 'f' -> Buffer.add_char buf '\012'; incr pos; run ()
            | Some 'u' ->
                incr pos;
                let c = parse_hex4 () in
                (* The writer only \u-escapes control characters; decode
                   the BMP generally as UTF-8 so foreign producers work. *)
                if c < 0x80 then Buffer.add_char buf (Char.chr c)
                else if c < 0x800 then begin
                  Buffer.add_char buf (Char.chr (0xc0 lor (c lsr 6)));
                  Buffer.add_char buf (Char.chr (0x80 lor (c land 0x3f)))
                end
                else begin
                  Buffer.add_char buf (Char.chr (0xe0 lor (c lsr 12)));
                  Buffer.add_char buf
                    (Char.chr (0x80 lor ((c lsr 6) land 0x3f)));
                  Buffer.add_char buf (Char.chr (0x80 lor (c land 0x3f)))
                end;
                run ()
            | _ -> fail "bad escape")
        | _ -> fail "raw control character"
      (* copy the run of plain bytes up to the next quote, backslash or
         control byte in one go *)
      and run () =
        let i = !pos in
        pos := plain_end i;
        Buffer.add_substring buf input i (!pos - i);
        go ()
      in
      go ();
      Buffer.contents buf
    end
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char input.[!pos] do
      incr pos
    done;
    let s = String.sub input start (!pos - start) in
    match float_of_string_opt s with
    | Some f -> f
    | None -> fail "bad number %S" s
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin
          incr pos;
          Obj []
        end
        else begin
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                fields ((k, v) :: acc)
            | Some '}' ->
                incr pos;
                List.rev ((k, v) :: acc)
            | _ -> fail "expected ',' or '}' in object"
          in
          Obj (fields [])
        end
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin
          incr pos;
          Arr []
        end
        else begin
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                items (v :: acc)
            | Some ']' ->
                incr pos;
                List.rev (v :: acc)
            | _ -> fail "expected ',' or ']' in array"
          in
          Arr (items [])
        end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> Num (parse_number ())
    | Some c -> fail "unexpected %C" c
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then raise (Fail (!pos, "trailing garbage"));
    v
  with
  | v -> Ok v
  | exception Fail (at, m) ->
      Error (Printf.sprintf "json: %s at byte %d" m (at - off))

let parse input = parse_sub input ~off:0 ~len:(String.length input)

(* --- accessors --- *)

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let to_str = function Str s -> Some s | _ -> None
let to_num = function Num f -> Some f | _ -> None

let to_int = function
  | Num f when Float.is_integer f && Float.abs f <= 1e15 ->
      Some (int_of_float f)
  | _ -> None

let to_arr = function Arr xs -> Some xs | _ -> None
let to_obj = function Obj fields -> Some fields | _ -> None

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool a, Bool b -> a = b
  | Num a, Num b -> a = b || (Float.is_nan a && Float.is_nan b)
  | Str a, Str b -> String.equal a b
  | Arr a, Arr b -> List.length a = List.length b && List.for_all2 equal a b
  | Obj a, Obj b ->
      List.length a = List.length b
      && List.for_all2
           (fun (ka, va) (kb, vb) -> String.equal ka kb && equal va vb)
           a b
  | _ -> false
