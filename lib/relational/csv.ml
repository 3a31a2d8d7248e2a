exception Error of string

let error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

type state = Field_start | In_field | In_quotes | Quote_seen

(* Refuse oversized documents up front: parsing is O(input) in both time
   and allocation, so a hostile payload (the mapping server accepts CSV
   inline over the wire) must be bounded before we touch it. *)
let check_size ~max_bytes input =
  match max_bytes with
  | None -> ()
  | Some limit ->
      if limit < 0 then invalid_arg "Csv: max_bytes must be >= 0";
      if String.length input > limit then
        error "csv: input of %d bytes exceeds the %d-byte limit"
          (String.length input) limit

(* Incremental parser. The state machine survives arbitrary chunk
   boundaries — a quoted field (or even a CRLF pair) may be split across
   two [feed] calls — which is what lets the bulk-migration ingest read
   multi-gigabyte relations through a fixed-size buffer.

   A field that lies whole inside one fed chunk and needs no rewriting
   (unquoted, no CR) is handed to [on_field] as a slice of that chunk;
   any other field is assembled in [buf] first. Either way the slice is
   only valid during the callback. *)
module Stream = struct
  type t = {
    on_field : string -> int -> int -> unit;
    on_row_end : unit -> unit;
    max_bytes : int option;
    mutable buf : Bytes.t; (* assembled field *)
    mutable blen : int;
    mutable fstart : int;
        (* In_field: the field's start in the current chunk, or -1 once
           it is being assembled in [buf]; -1 in every other state *)
    mutable row_open : bool; (* a field of the current row was emitted *)
    mutable state : state;
    mutable seen : int; (* cumulative bytes fed *)
    mutable finished : bool;
  }

  let create_fields ?max_bytes ~on_field ~on_row_end () =
    (match max_bytes with
    | Some limit when limit < 0 -> invalid_arg "Csv: max_bytes must be >= 0"
    | _ -> ());
    {
      on_field;
      on_row_end;
      max_bytes;
      buf = Bytes.create 64;
      blen = 0;
      fstart = -1;
      row_open = false;
      state = Field_start;
      seen = 0;
      finished = false;
    }

  let create ?max_bytes ~on_row () =
    let fields = ref [] in
    create_fields ?max_bytes
      ~on_field:(fun s off len -> fields := String.sub s off len :: !fields)
      ~on_row_end:(fun () ->
        let row = List.rev !fields in
        fields := [];
        on_row row)
      ()

  let add_sub t s off len =
    if t.blen + len > Bytes.length t.buf then begin
      let nbuf = Bytes.create (max (t.blen + len) (2 * Bytes.length t.buf)) in
      Bytes.blit t.buf 0 nbuf 0 t.blen;
      t.buf <- nbuf
    end;
    Bytes.blit_string s off t.buf t.blen len;
    t.blen <- t.blen + len

  let add_char t c =
    if t.blen = Bytes.length t.buf then add_sub t (String.make 1 c) 0 1
    else begin
      Bytes.unsafe_set t.buf t.blen c;
      t.blen <- t.blen + 1
    end

  (* Move the in-chunk part of the current field into [buf]. *)
  let spill t input upto =
    if t.fstart >= 0 then begin
      add_sub t input t.fstart (upto - t.fstart);
      t.fstart <- -1
    end

  let flush_field t input upto =
    t.row_open <- true;
    if t.fstart >= 0 then begin
      let start = t.fstart in
      t.fstart <- -1;
      t.on_field input start (upto - start)
    end
    else begin
      let len = t.blen in
      t.blen <- 0;
      t.on_field (Bytes.unsafe_to_string t.buf) 0 len
    end

  let end_row t input upto =
    flush_field t input upto;
    t.row_open <- false;
    t.on_row_end ()

  (* First byte at or after [i] that ends an unquoted run. *)
  let rec plain_end s i stop =
    if i < stop
       && match String.unsafe_get s i with ',' | '\n' | '\r' -> false | _ -> true
    then plain_end s (i + 1) stop
    else i

  let rec quote_end s i stop =
    if i < stop && String.unsafe_get s i <> '"' then quote_end s (i + 1) stop
    else i

  let feed ?(off = 0) ?len t input =
    if t.finished then invalid_arg "Csv.Stream: feed after finish";
    let len =
      match len with Some l -> l | None -> String.length input - off
    in
    if off < 0 || len < 0 || off + len > String.length input then
      invalid_arg "Csv.Stream.feed: bad substring";
    t.seen <- t.seen + len;
    (match t.max_bytes with
    | Some limit when t.seen > limit ->
        error "csv: input of %d bytes exceeds the %d-byte limit" t.seen limit
    | _ -> ());
    let stop = off + len in
    let i = ref off in
    while !i < stop do
      let c = String.unsafe_get input !i in
      match t.state with
      | Field_start ->
          (match c with
          | ',' -> flush_field t input !i
          | '\n' -> end_row t input !i
          | '\r' -> () (* swallow CR of CRLF *)
          | '"' -> t.state <- In_quotes
          | _ ->
              t.fstart <- !i;
              t.state <- In_field);
          incr i
      | In_field ->
          let j = plain_end input !i stop in
          if t.fstart < 0 then add_sub t input !i (j - !i);
          if j < stop then begin
            match String.unsafe_get input j with
            | ',' ->
                flush_field t input j;
                t.state <- Field_start
            | '\n' ->
                end_row t input j;
                t.state <- Field_start
            | _ -> spill t input j (* a CR is dropped *)
          end;
          i := j + 1
      | In_quotes ->
          let j = quote_end input !i stop in
          add_sub t input !i (j - !i);
          if j < stop then t.state <- Quote_seen;
          i := j + 1
      | Quote_seen ->
          (match c with
          | '"' ->
              add_char t '"';
              t.state <- In_quotes
          | ',' ->
              flush_field t input !i;
              t.state <- Field_start
          | '\n' ->
              end_row t input !i;
              t.state <- Field_start
          | '\r' -> ()
          | c -> error "csv: unexpected %C after closing quote" c);
          incr i
    done;
    if t.state = In_field then spill t input stop

  let finish t =
    if not t.finished then begin
      t.finished <- true;
      match t.state with
      | In_quotes -> error "csv: unterminated quoted field"
      | Field_start when not t.row_open -> ()
      | _ -> end_row t "" 0
    end
end

let fold_rows ?max_bytes f init input =
  check_size ~max_bytes input;
  let acc = ref init in
  let st = Stream.create ~on_row:(fun row -> acc := f !acc row) () in
  Stream.feed st input;
  Stream.finish st;
  !acc

let fold_channel ?max_bytes ?(chunk_bytes = 65536) f init ic =
  if chunk_bytes <= 0 then invalid_arg "Csv: chunk_bytes must be > 0";
  let acc = ref init in
  let st = Stream.create ?max_bytes ~on_row:(fun row -> acc := f !acc row) () in
  let chunk = Bytes.create chunk_bytes in
  let rec loop () =
    let n = input ic chunk 0 chunk_bytes in
    if n > 0 then begin
      Stream.feed st (Bytes.unsafe_to_string chunk) ~len:n;
      loop ()
    end
  in
  loop ();
  Stream.finish st;
  !acc

let parse ?max_bytes input =
  check_size ~max_bytes input;
  List.rev (fold_rows (fun rows row -> row :: rows) [] input)

(* A relation document: the first row is the header, every later row is
   cut or padded with empty cells to the header's width. A bad header is
   reported only once the whole document has tokenized, so a syntax
   error anywhere takes precedence, as it always has. *)
let iter_relation ?max_bytes ~on_header ~on_cell ~on_row input =
  check_size ~max_bytes input;
  let header = ref [] and state = ref `Header and col = ref 0 in
  let width = ref 0 in
  let st =
    Stream.create_fields
      ~on_field:(fun s off len ->
        match !state with
        | `Header -> header := String.sub s off len :: !header
        | `Rows ->
            let i = !col in
            if i < !width then on_cell i s off len;
            col := i + 1
        | `Bad _ -> ())
      ~on_row_end:(fun () ->
        match !state with
        | `Header -> (
            match Schema.of_list (List.rev !header) with
            | schema ->
                width := Schema.arity schema;
                state := `Rows;
                on_header schema
            | exception Schema.Error m -> state := `Bad m)
        | `Rows ->
            for i = !col to !width - 1 do
              on_cell i "" 0 0
            done;
            col := 0;
            on_row ()
        | `Bad _ -> ())
      ()
  in
  Stream.feed st input;
  Stream.finish st;
  match !state with
  | `Header -> error "csv: empty document"
  | `Bad m -> error "csv: bad header (%s)" m
  | `Rows -> ()

let parse_relation ?max_bytes input =
  let schema = ref Schema.empty and rows = ref [] and cells = ref [||] in
  iter_relation ?max_bytes input
    ~on_header:(fun s ->
      schema := s;
      cells := Array.make (Schema.arity s) Value.Null)
    ~on_cell:(fun i s off len ->
      !cells.(i) <- Value.of_string_guess (String.sub s off len))
    ~on_row:(fun () -> rows := Row.of_array !cells :: !rows);
  Relation.of_rows !schema (List.rev !rows)

let needs_quoting s =
  String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s

(* Writes stream through the caller's buffer: no per-field or per-row
   string allocation, so emitting a multi-million-row relation reuses one
   arena that is flushed to the channel whenever it fills. *)
let add_field buf s =
  if needs_quoting s then begin
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'
  end
  else Buffer.add_string buf s

let add_row buf fields =
  (match fields with
  | [] -> ()
  | first :: rest ->
      add_field buf first;
      List.iter
        (fun f ->
          Buffer.add_char buf ',';
          add_field buf f)
        rest);
  Buffer.add_char buf '\n'

let print rows =
  let buf = Buffer.create 256 in
  List.iter (add_row buf) rows;
  Buffer.contents buf

let print_relation r =
  let buf = Buffer.create 256 in
  add_row buf (Relation.attributes r);
  List.iter
    (fun row -> add_row buf (List.map Value.to_string (Row.to_list row)))
    (Relation.rows r);
  Buffer.contents buf
