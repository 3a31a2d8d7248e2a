(** Recursive-descent parser for the SQL subset. *)

open Sql_ast
open Sql_lexer

exception Error of string

let error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

type stream = { mutable toks : token list }

let peek s = match s.toks with [] -> EOF | t :: _ -> t
let advance s = match s.toks with [] -> () | _ :: rest -> s.toks <- rest

let token_name = function
  | IDENT x -> Printf.sprintf "identifier %S" x
  | STRING _ -> "string literal"
  | NUMBER x -> Printf.sprintf "number %s" x
  | KW k -> k
  | COMMA -> "','" | DOT -> "'.'" | STAR -> "'*'"
  | LPAREN -> "'('" | RPAREN -> "')'" | SEMI -> "';'"
  | OP o -> Printf.sprintf "'%s'" o
  | EOF -> "end of input"

let expect s tok =
  if peek s = tok then advance s
  else error "sql: expected %s, found %s" (token_name tok) (token_name (peek s))

let expect_ident s =
  match peek s with
  | IDENT x -> advance s; x
  | t -> error "sql: expected identifier, found %s" (token_name t)

let accept s tok = if peek s = tok then (advance s; true) else false

let parse_literal s =
  match peek s with
  | STRING x -> advance s; Value.String x
  | NUMBER x -> (
      advance s;
      (* The guess a CSV cell gets, so a literal matches the data's
         spelling: 1 is an Int, 1.0 a Float. *)
      match Value.of_string_guess x with
      | (Value.Int _ | Value.Float _) as v -> v
      | _ -> error "sql: bad number %s" x)
  | KW "NULL" -> advance s; Value.Null
  | KW "TRUE" -> advance s; Value.Bool true
  | KW "FALSE" -> advance s; Value.Bool false
  | t -> error "sql: expected literal, found %s" (token_name t)

let rec parse_scalar s =
  let atom =
    match peek s with
    | IDENT x -> (
        advance s;
        if accept s DOT then
          let col = expect_ident s in
          Column (Some x, col)
        else Column (None, x))
    | STRING _ | NUMBER _ | KW ("NULL" | "TRUE" | "FALSE") ->
        Lit (parse_literal s)
    | LPAREN ->
        advance s;
        let e = parse_scalar s in
        expect s RPAREN;
        e
    | t -> error "sql: expected scalar expression, found %s" (token_name t)
  in
  if peek s = OP "||" then begin
    advance s;
    Concat (atom, parse_scalar s)
  end
  else atom

let parse_comparison_op s =
  match peek s with
  | OP "=" -> advance s; Eq
  | OP "<>" -> advance s; Neq
  | OP "<" -> advance s; Lt
  | OP "<=" -> advance s; Leq
  | OP ">" -> advance s; Gt
  | OP ">=" -> advance s; Geq
  | t -> error "sql: expected comparison operator, found %s" (token_name t)

let rec parse_condition s = parse_or s

and parse_or s =
  let left = parse_and s in
  if peek s = KW "OR" then begin
    advance s;
    Or (left, parse_or s)
  end
  else left

and parse_and s =
  let left = parse_not s in
  if peek s = KW "AND" then begin
    advance s;
    And (left, parse_and s)
  end
  else left

and parse_not s =
  if peek s = KW "NOT" then begin
    advance s;
    Not (parse_not s)
  end
  else parse_atom_condition s

and parse_atom_condition s =
  if peek s = LPAREN then begin
    (* Could be a parenthesized condition or a parenthesized scalar on the
       left of a comparison; conditions are the common case. *)
    advance s;
    let c = parse_condition s in
    expect s RPAREN;
    c
  end
  else
    let lhs = parse_scalar s in
    match peek s with
    | KW "IS" ->
        advance s;
        if accept s (KW "NOT") then begin
          expect s (KW "NULL");
          Is_not_null lhs
        end
        else begin
          expect s (KW "NULL");
          Is_null lhs
        end
    | _ ->
        let op = parse_comparison_op s in
        let rhs = parse_scalar s in
        Cmp (op, lhs, rhs)

let parse_aggregate s kw =
  advance s;
  expect s LPAREN;
  let func =
    match kw with
    | "COUNT" ->
        if accept s STAR then Aggregate.Count_all
        else Aggregate.Count (expect_ident s)
    | "SUM" -> Aggregate.Sum (expect_ident s)
    | "AVG" -> Aggregate.Avg (expect_ident s)
    | "MIN" -> Aggregate.Min (expect_ident s)
    | "MAX" -> Aggregate.Max (expect_ident s)
    | _ -> assert false
  in
  expect s RPAREN;
  func

let parse_select_item s =
  match peek s with
  | STAR ->
      advance s;
      Star
  | KW (("COUNT" | "SUM" | "AVG" | "MIN" | "MAX") as kw) ->
      let func = parse_aggregate s kw in
      if accept s (KW "AS") then Agg (func, Some (expect_ident s))
      else Agg (func, None)
  | _ ->
      let e = parse_scalar s in
      if accept s (KW "AS") then Expr (e, Some (expect_ident s))
      else Expr (e, None)

let rec parse_comma_list s parse_one =
  let x = parse_one s in
  if accept s COMMA then x :: parse_comma_list s parse_one else [ x ]

let parse_from_item s =
  let name = expect_ident s in
  match peek s with
  | IDENT alias -> advance s; (name, Some alias)
  | KW "AS" ->
      advance s;
      (name, Some (expect_ident s))
  | _ -> (name, None)

let parse_order_item s =
  let col = expect_ident s in
  if accept s (KW "DESC") then (col, Desc)
  else begin
    ignore (accept s (KW "ASC"));
    (col, Asc)
  end

let parse_select s =
  expect s (KW "SELECT");
  let distinct = accept s (KW "DISTINCT") in
  let items = parse_comma_list s parse_select_item in
  expect s (KW "FROM");
  let from = parse_comma_list s parse_from_item in
  let where = if accept s (KW "WHERE") then Some (parse_condition s) else None in
  let group_by =
    if accept s (KW "GROUP") then begin
      expect s (KW "BY");
      parse_comma_list s expect_ident
    end
    else []
  in
  let having =
    if accept s (KW "HAVING") then Some (parse_condition s) else None
  in
  let order_by =
    if accept s (KW "ORDER") then begin
      expect s (KW "BY");
      parse_comma_list s parse_order_item
    end
    else []
  in
  { distinct; items; from; where; group_by; having; order_by }

let rec parse_query s =
  let left = Select (parse_select s) in
  if accept s (KW "UNION") then
    if accept s (KW "ALL") then Union_all (left, parse_query s)
    else Union (left, parse_query s)
  else left

let parse_statement s =
  match peek s with
  | KW "CREATE" ->
      advance s;
      expect s (KW "TABLE");
      let name = expect_ident s in
      expect s LPAREN;
      let cols = parse_comma_list s expect_ident in
      expect s RPAREN;
      Create_table (name, cols)
  | KW "DROP" ->
      advance s;
      expect s (KW "TABLE");
      Drop_table (expect_ident s)
  | KW "INSERT" ->
      advance s;
      expect s (KW "INTO");
      let name = expect_ident s in
      expect s (KW "VALUES");
      let parse_tuple s =
        expect s LPAREN;
        let vs = parse_comma_list s parse_literal in
        expect s RPAREN;
        vs
      in
      let tuples = parse_comma_list s parse_tuple in
      Insert (name, tuples)
  | KW "SELECT" -> Query (parse_query s)
  | t -> error "sql: expected statement, found %s" (token_name t)

let parse input =
  let s = { toks = Sql_lexer.tokenize input } in
  let rec go acc =
    match peek s with
    | EOF -> List.rev acc
    | SEMI -> advance s; go acc
    | _ ->
        let st = parse_statement s in
        (match peek s with
        | SEMI | EOF -> ()
        | t -> error "sql: trailing %s after statement" (token_name t));
        go (st :: acc)
  in
  go []
