exception Bad_request of string
exception Payload_too_large of { limit : int; declared : int }

let bad fmt = Format.kasprintf (fun m -> raise (Bad_request m)) fmt

let max_header_block = 64 * 1024
let default_max_body = 8 * 1024 * 1024

module Reader = struct
  (* A buffered puller. [buf.[lo..hi)] holds bytes read but not yet
     consumed; [fill] pulls one more chunk, whatever size the source
     felt like producing — the framing code below never assumes a line
     or a body arrives in one [read]. *)
  type t = {
    read : bytes -> int -> int -> int;
    mutable buf : Bytes.t;
    mutable lo : int;
    mutable hi : int;
    mutable eof : bool;
  }

  let chunk = 8192

  let make size read =
    { read; buf = Bytes.create size; lo = 0; hi = 0; eof = false }

  let of_fn read = make chunk read
  let of_fd fd = of_fn (Unix.read fd)

  (* The buffer is the smallest power of two from 64 that holds [s],
     capped at [chunk]: the event loop parses every request's header
     block through here, and a [chunk]-sized buffer per request would be
     a large block straight on the major heap, driving major GC cycles
     on the cache-hit path. Sizes stay on [chunk]'s doubling series, so
     growth and the line limits behave as with [of_fn]. *)
  let of_string s =
    let rec size n =
      if n >= chunk || n >= String.length s then n else size (2 * n)
    in
    let pos = ref 0 in
    make (size 64) (fun buf off len ->
        let n = min len (String.length s - !pos) in
        Bytes.blit_string s !pos buf off n;
        pos := !pos + n;
        n)

  let fill t =
    if t.eof then false
    else begin
      if t.lo = t.hi then begin
        t.lo <- 0;
        t.hi <- 0
      end
      else if t.hi = Bytes.length t.buf && t.lo > 0 then begin
        Bytes.blit t.buf t.lo t.buf 0 (t.hi - t.lo);
        t.hi <- t.hi - t.lo;
        t.lo <- 0
      end;
      if t.hi = Bytes.length t.buf then begin
        (* one unconsumed line fills the buffer: grow it, bounded by the
           header-block limit (bodies never need this — [read_exact]
           drains the buffer as it goes) *)
        if Bytes.length t.buf > max_header_block then
          bad "buffered line exceeds %d bytes" max_header_block;
        let nbuf = Bytes.create (2 * Bytes.length t.buf) in
        Bytes.blit t.buf 0 nbuf 0 t.hi;
        t.buf <- nbuf
      end;
      let n = t.read t.buf t.hi (Bytes.length t.buf - t.hi) in
      if n = 0 then begin
        t.eof <- true;
        false
      end
      else begin
        t.hi <- t.hi + n;
        true
      end
    end

  (* One CRLF- (or bare-LF-) terminated line, without the terminator.
     [None] on end of input before any byte. [fill] may move or replace
     the underlying buffer, so the scan position is tracked relative to
     [lo], which survives compaction. *)
  let read_line ?(limit = max_header_block) t =
    if t.lo = t.hi && not (fill t) then None
    else begin
      let rec find_nl scanned =
        let rec scan i =
          if i < t.hi && Bytes.get t.buf i <> '\n' then scan (i + 1) else i
        in
        let i = scan (t.lo + scanned) in
        if i < t.hi then i
        else if t.hi - t.lo > limit then
          bad "header line exceeds %d bytes" limit
        else begin
          let scanned = t.hi - t.lo in
          if fill t then find_nl scanned
          else bad "truncated line (no newline before end of input)"
        end
      in
      let nl = find_nl 0 in
      let len = nl - t.lo in
      let len =
        if len > 0 && Bytes.get t.buf (nl - 1) = '\r' then len - 1 else len
      in
      let line = Bytes.sub_string t.buf t.lo len in
      t.lo <- nl + 1;
      Some line
    end

  let read_exact t n =
    let out = Buffer.create n in
    let rec go remaining =
      if remaining = 0 then Buffer.contents out
      else begin
        if t.lo = t.hi && not (fill t) then
          bad "truncated body: %d of %d bytes missing" remaining n;
        let take = min remaining (t.hi - t.lo) in
        Buffer.add_subbytes out t.buf t.lo take;
        t.lo <- t.lo + take;
        go (remaining - take)
      end
    in
    go n
end

type request = {
  meth : string;
  path : string;
  version : string;
  headers : (string * string) list;
  body : string;
}

(* --- request-target query strings --- *)

let percent_decode s =
  if not (String.exists (fun c -> c = '%' || c = '+') s) then s
  else begin
    let buf = Buffer.create (String.length s) in
    let hex c =
      match c with
      | '0' .. '9' -> Some (Char.code c - Char.code '0')
      | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
      | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
      | _ -> None
    in
    let n = String.length s in
    let rec go i =
      if i < n then
        match s.[i] with
        | '+' ->
            Buffer.add_char buf ' ';
            go (i + 1)
        | '%' when i + 2 < n -> (
            match (hex s.[i + 1], hex s.[i + 2]) with
            | Some hi, Some lo ->
                Buffer.add_char buf (Char.chr ((hi * 16) + lo));
                go (i + 3)
            | _ ->
                Buffer.add_char buf '%';
                go (i + 1))
        | c ->
            Buffer.add_char buf c;
            go (i + 1)
    in
    go 0;
    Buffer.contents buf
  end

let split_target target =
  match String.index_opt target '?' with
  | None -> (target, [])
  | Some i ->
      let path = String.sub target 0 i in
      let qs = String.sub target (i + 1) (String.length target - i - 1) in
      let params =
        String.split_on_char '&' qs
        |> List.filter_map (fun kv ->
               if kv = "" then None
               else
                 match String.index_opt kv '=' with
                 | None -> Some (percent_decode kv, "")
                 | Some j ->
                     Some
                       ( percent_decode (String.sub kv 0 j),
                         percent_decode
                           (String.sub kv (j + 1) (String.length kv - j - 1))
                       ))
      in
      (path, params)

let header req name =
  let name = String.lowercase_ascii name in
  List.assoc_opt name req.headers

let token_mem needle haystack =
  (* comma-separated, case-insensitive membership ("keep-alive, upgrade") *)
  String.split_on_char ',' haystack
  |> List.exists (fun t -> String.lowercase_ascii (String.trim t) = needle)

let keep_alive req =
  match header req "connection" with
  | Some c when token_mem "close" c -> false
  | Some c when token_mem "keep-alive" c -> true
  | _ -> req.version <> "HTTP/1.0"

let parse_request_line line =
  match String.split_on_char ' ' line with
  | [ meth; path; version ] ->
      let ok_token s =
        s <> ""
        && String.for_all (fun c -> (c >= 'A' && c <= 'Z') || c = '-') s
      in
      if not (ok_token meth) then bad "malformed method in %S" line;
      if path = "" || path.[0] <> '/' then bad "malformed path in %S" line;
      if version <> "HTTP/1.1" && version <> "HTTP/1.0" then
        bad "unsupported version %S" version;
      (meth, path, version)
  | _ -> bad "malformed request line %S" line

let parse_header line =
  match String.index_opt line ':' with
  | None | Some 0 -> bad "malformed header %S" line
  | Some i ->
      let name = String.sub line 0 i in
      if String.exists (fun c -> c = ' ' || c = '\t') name then
        bad "malformed header name %S" name;
      ( String.lowercase_ascii name,
        String.trim
          (String.sub line (i + 1) (String.length line - i - 1)) )

let read_headers reader =
  let rec go acc budget =
    match Reader.read_line reader with
    | None -> bad "truncated headers (end of input before blank line)"
    | Some "" -> List.rev acc
    | Some line ->
        let budget = budget - String.length line in
        if budget < 0 then bad "header block exceeds %d bytes" max_header_block;
        go (parse_header line :: acc) budget
  in
  go [] max_header_block

let content_length headers ~max_body =
  (match List.assoc_opt "transfer-encoding" headers with
  | Some _ -> bad "chunked transfer encoding is not supported"
  | None -> ());
  match List.assoc_opt "content-length" headers with
  | None -> 0
  | Some v -> (
      match int_of_string_opt (String.trim v) with
      | None -> bad "malformed content-length %S" v
      | Some n when n < 0 -> bad "malformed content-length %S" v
      | Some n when n > max_body ->
          raise (Payload_too_large { limit = max_body; declared = n })
      | Some n -> n)

let body_of reader headers ~max_body =
  match content_length headers ~max_body with
  | 0 -> ""
  | n -> Reader.read_exact reader n

let read_request ?(max_body = default_max_body) reader =
  (* RFC 9112 §2.2: tolerate a little CRLF noise before the request line *)
  let rec go skips =
    match Reader.read_line reader with
    | None -> None
    | Some "" ->
        if skips > 0 then go (skips - 1) else bad "empty request line"
    | Some line ->
        let meth, path, version = parse_request_line line in
        let headers = read_headers reader in
        let body = body_of reader headers ~max_body in
        Some { meth; path; version; headers; body }
  in
  go 2

(* --- incremental (reactor-side) parsing ---

   The event loop cannot block in [Reader.fill]: it owns many
   connections and learns about new bytes from readiness events. It
   accumulates raw bytes per connection and calls [parse_buffered] after
   every read; the function either carves one complete request off the
   front of the buffer or reports that the bytes so far are a valid
   prefix ([`Need_more]). Malformed input raises the same exceptions as
   the pull-based path, so the loop's error mapping is identical. *)

(* Up to [skips] leading blank lines (CRLF noise between pipelined
   requests, RFC 9112 §2.2) — mirrors [read_request]'s tolerance. *)
let skip_blank_lines buf ~len =
  let rec go pos skips =
    if skips = 0 then pos
    else if pos + 1 < len && Bytes.get buf pos = '\r'
            && Bytes.get buf (pos + 1) = '\n' then go (pos + 2) (skips - 1)
    else if pos < len && Bytes.get buf pos = '\n' then go (pos + 1) (skips - 1)
    else pos
  in
  go 0 2

(* Index one past the header block's terminating blank line, scanning
   the first [len] bytes from [start]; [None] when the terminator has
   not arrived yet. *)
let header_block_end buf ~start ~len =
  let rec scan i =
    if i >= len then None
    else if Bytes.get buf i <> '\n' then scan (i + 1)
    else if i + 1 >= len then None (* '\n' at the edge: cannot tell yet *)
    else if Bytes.get buf (i + 1) = '\n' then Some (i + 2)
    else if Bytes.get buf (i + 1) = '\r' then
      if i + 2 >= len then None
      else if Bytes.get buf (i + 2) = '\n' then Some (i + 3)
      else scan (i + 2)
    else scan (i + 1)
  in
  scan start

let carve ?(max_body = default_max_body) buf ~len =
  let start = skip_blank_lines buf ~len in
  if start >= len then `Need_more
  else
    match header_block_end buf ~start ~len with
    | None ->
        if len - start > max_header_block then
          bad "header block exceeds %d bytes" max_header_block;
        `Need_more
    | Some hend ->
        let reader = Reader.of_string (Bytes.sub_string buf start (hend - start)) in
        let meth, path, version =
          match Reader.read_line reader with
          | None | Some "" -> bad "empty request line"
          | Some line -> parse_request_line line
        in
        let headers = read_headers reader in
        let clen = content_length headers ~max_body in
        if hend + clen > len then `Need_more
        else
          `Request ({ meth; path; version; headers; body = "" }, hend, hend + clen)

let parse_buffered ?max_body buf ~len =
  match carve ?max_body buf ~len with
  | `Need_more -> `Need_more
  | `Request (r, body_off, consumed) ->
      let body = Bytes.sub_string buf body_off (consumed - body_off) in
      `Request ({ r with body }, consumed)

(* --- responses --- *)

type response = {
  status : int;
  reason : string;
  resp_headers : (string * string) list;
  resp_body : string;
}

let reason_phrase = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 411 -> "Length Required"
  | 413 -> "Payload Too Large"
  | 429 -> "Too Many Requests"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | c -> Printf.sprintf "Status %d" c

let response ?(content_type = "application/json") ?(headers = []) status body
    =
  {
    status;
    reason = reason_phrase status;
    resp_headers = ("content-type", content_type) :: headers;
    resp_body = body;
  }

let write_response ?(keep_alive = true) write r =
  let buf = Buffer.create (256 + String.length r.resp_body) in
  Buffer.add_string buf
    (Printf.sprintf "HTTP/1.1 %d %s\r\n" r.status r.reason);
  List.iter
    (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "%s: %s\r\n" k v))
    r.resp_headers;
  Buffer.add_string buf
    (Printf.sprintf "content-length: %d\r\n" (String.length r.resp_body));
  Buffer.add_string buf
    (Printf.sprintf "connection: %s\r\n\r\n"
       (if keep_alive then "keep-alive" else "close"));
  Buffer.add_string buf r.resp_body;
  write (Buffer.contents buf)

(* --- chunked responses (the anytime incumbent stream) --- *)

let chunked_head ?(content_type = "application/json") ?(headers = [])
    ?(keep_alive = true) status =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "HTTP/1.1 %d %s\r\n" status (reason_phrase status));
  Buffer.add_string buf (Printf.sprintf "content-type: %s\r\n" content_type);
  List.iter
    (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "%s: %s\r\n" k v))
    headers;
  Buffer.add_string buf "transfer-encoding: chunked\r\n";
  Buffer.add_string buf
    (Printf.sprintf "connection: %s\r\n\r\n"
       (if keep_alive then "keep-alive" else "close"));
  Buffer.contents buf

let chunk data =
  (* an empty chunk would be the stream terminator; suppress it *)
  if data = "" then ""
  else Printf.sprintf "%x\r\n%s\r\n" (String.length data) data

let last_chunk = "0\r\n\r\n"

let read_chunk reader =
  match Reader.read_line reader with
  | None -> bad "truncated chunked body (no chunk-size line)"
  | Some line -> (
      let size_field =
        (* chunk extensions (";ext=…") are tolerated and ignored *)
        match String.index_opt line ';' with
        | Some i -> String.sub line 0 i
        | None -> line
      in
      match int_of_string_opt ("0x" ^ String.trim size_field) with
      | None -> bad "malformed chunk size %S" line
      | Some n when n < 0 -> bad "malformed chunk size %S" line
      | Some 0 ->
          (* trailer section up to the final blank line *)
          let rec drain () =
            match Reader.read_line reader with
            | None -> bad "truncated chunk trailer"
            | Some "" -> ()
            | Some _ -> drain ()
          in
          drain ();
          None
      | Some n ->
          let data = Reader.read_exact reader n in
          (match Reader.read_line reader with
          | Some "" -> ()
          | _ -> bad "missing CRLF after a %d-byte chunk" n);
          Some data)

let read_response_head reader =
  match Reader.read_line reader with
  | None -> bad "no response"
  | Some line ->
      let status =
        match String.split_on_char ' ' line with
        | version :: code :: _
          when String.length version >= 5 && String.sub version 0 5 = "HTTP/"
          -> (
            match int_of_string_opt code with
            | Some c -> c
            | None -> bad "malformed status line %S" line)
        | _ -> bad "malformed status line %S" line
      in
      let headers = read_headers reader in
      (status, headers)

let response_chunked headers =
  match List.assoc_opt "transfer-encoding" headers with
  | Some v -> token_mem "chunked" v
  | None -> false

let read_body reader headers =
  if response_chunked headers then begin
    let buf = Buffer.create 1024 in
    let rec go () =
      match read_chunk reader with
      | Some data ->
          Buffer.add_string buf data;
          go ()
      | None -> Buffer.contents buf
    in
    go ()
  end
  else
    match List.assoc_opt "content-length" headers with
    | None -> ""
    | Some v -> (
        match int_of_string_opt (String.trim v) with
        | Some n when n >= 0 -> Reader.read_exact reader n
        | _ -> bad "malformed content-length %S" v)

let read_response reader =
  let status, headers = read_response_head reader in
  (status, headers, read_body reader headers)
