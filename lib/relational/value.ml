type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string

let null = Null
let bool b = Bool b
let int n = Int n
let float f = Float f
let string s = String s

type guess = G_null | G_bool of bool | G_int of int | G_float of float | G_string

(* The helpers below are closed recursive functions over explicit
   bounds, so classifying a cell allocates nothing but its result. *)

(* Decimal digits in [i, stop), read as int_of_string reads them;
   [G_string] when the literal is out of range. Accumulates negatively
   so that min_int reads. *)
let rec digits_value s i stop neg acc =
  if i >= stop then
    if neg then G_int acc else if acc = min_int then G_string else G_int (-acc)
  else
    let d = Char.code (String.unsafe_get s i) - Char.code '0' in
    if acc < min_int / 10 || (acc = min_int / 10 && d > -(min_int mod 10))
    then G_string
    else digits_value s (i + 1) stop neg ((acc * 10) - d)

let rec all_digits s i stop =
  i >= stop
  || match String.unsafe_get s i with
     | '0' .. '9' -> all_digits s (i + 1) stop
     | _ -> false

let sign_skip s off =
  match String.unsafe_get s off with '-' | '+' -> off + 1 | _ -> off

let is_int_literal s off len =
  let first = sign_skip s off in
  first < off + len && all_digits s first (off + len)

let rec has_float_mark s i stop =
  i < stop
  && match String.unsafe_get s i with
     | '.' | 'e' | 'E' -> true
     | _ -> has_float_mark s (i + 1) stop

(* float_of_string drops every '_', lets strtod skip leading blanks and
   a sign, and then needs a digit, a '.', or the start of "inf"/"nan".
   A slice failing this test is certainly not a float literal, so the
   common string cell is classified without copying it. *)
let rec float_start s i stop =
  i < stop
  && match String.unsafe_get s i with
     | '_' | ' ' | '\t' | '\n' | '\011' | '\012' | '\r' | '+' | '-' ->
         float_start s (i + 1) stop
     | '0' .. '9' | '.' | 'i' | 'I' | 'n' | 'N' -> true
     | _ -> false

let rec same_bytes s off lit i =
  i >= String.length lit
  || String.unsafe_get s (off + i) = String.unsafe_get lit i
     && same_bytes s off lit (i + 1)

let slice_is s off len lit = len = String.length lit && same_bytes s off lit 0

let guess s off len =
  if off < 0 || len < 0 || off + len > String.length s then
    invalid_arg "Value.guess: bad substring";
  if len = 0 || slice_is s off len "NULL" || slice_is s off len "null" then
    G_null
  else if slice_is s off len "true" then G_bool true
  else if slice_is s off len "false" then G_bool false
  else if is_int_literal s off len then
    let neg = String.unsafe_get s off = '-' in
    digits_value s (sign_skip s off) (off + len) neg 0
  else if has_float_mark s off (off + len) && float_start s off (off + len) then
    match float_of_string_opt (String.sub s off len) with
    | Some f -> G_float f
    | None -> G_string
  else G_string

let of_string_guess s =
  match guess s 0 (String.length s) with
  | G_null -> Null
  | G_bool b -> Bool b
  | G_int n -> Int n
  | G_float f -> Float f
  | G_string -> String s

(* Rank for type stratification in the total order. *)
let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ | Float _ -> 2
  | String _ -> 3

(* [Int x] against [Float y] by exact value, NaN lowest; a numeric tie
   puts the Int first. Inside ±2^62, [y] truncates to an int exactly. *)
let compare_int_float x y =
  if Float.is_nan y || y < -0x1p62 then 1
  else if y >= 0x1p62 then -1
  else
    let t = Float.to_int y in
    let c = Int.compare x t in
    if c <> 0 then c else if y < Float.of_int t then 1 else -1

let compare a b =
  match (a, b) with
  | Null, Null -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Float x, Float y ->
      (* All NaNs are one value; -0.0 sorts before 0.0. *)
      let c = Float.compare x y in
      if c <> 0 || Float.is_nan x then c
      else Bool.compare (Float.sign_bit y) (Float.sign_bit x)
  | Int x, Float y -> compare_int_float x y
  | Float x, Int y -> -compare_int_float y x
  | String x, String y -> String.compare x y
  | _ -> Int.compare (rank a) (rank b)

let equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> Bool.equal x y
  | Int x, Int y -> Int.equal x y
  | Float x, Float y ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
      || (Float.is_nan x && Float.is_nan y)
  | String x, String y -> String.equal x y
  | _ -> false

(* Hashtbl.hash gives 0.0 and -0.0 (and every NaN) one hash; [equal]
   tells the zeros apart. A float hashes by value, so hashing allocates
   nothing. *)
let hash = function
  | Null -> 17
  | Bool b -> Hashtbl.hash b
  | Int n -> Hashtbl.hash n
  | Float f -> Hashtbl.hash f
  | String s -> Hashtbl.hash s

(* The printf-free float formatter behind [string_of_float]. *)
external format_float : string -> float -> string = "caml_format_float"

let is_null = function Null -> true | _ -> false

let type_name = function
  | Null -> "null"
  | Bool _ -> "bool"
  | Int _ -> "int"
  | Float _ -> "float"
  | String _ -> "string"

let to_string = function
  | Null -> "NULL"
  | Bool b -> Bool.to_string b
  | Int n -> string_of_int n
  | Float f ->
      (* The shortest of 12, 15, 16 and 17 significant digits that reads
         back bit for bit, with a decimal point kept so the value
         re-parses as a float. *)
      let rec digits = function
        | [] -> format_float "%.17g" f
        | fmt :: fmts ->
            let s = format_float fmt f in
            if equal (Float (float_of_string s)) (Float f) then s
            else digits fmts
      in
      if Float.is_nan f then "nan"
      else
        let s = valid_float_lexem (digits [ "%.12g"; "%.15g"; "%.16g" ]) in
        if s.[String.length s - 1] = '.' then s ^ "0" else s
  | String s -> s

let to_display = function Null -> "-" | v -> to_string v

let as_int = function
  | Int n -> Some n
  | Float f when Float.is_integer f -> Some (int_of_float f)
  | String s -> int_of_string_opt s
  | _ -> None

let as_float = function
  | Int n -> Some (float_of_int n)
  | Float f -> Some f
  | String s -> float_of_string_opt s
  | _ -> None

let as_string = function String s -> Some s | Null -> None | v -> Some (to_string v)

let pp ppf v = Format.pp_print_string ppf (to_string v)
