(** Minimal HTTP/1.1 framing for the mapping server.

    Just enough of RFC 9112 for a JSON API behind a trusted proxy or on
    localhost: request/status line, headers, [Content-Length] bodies and
    keep-alive. Chunked transfer encoding is supported on {e responses}
    only (the anytime incumbent stream); a request declaring it is
    rejected. No pipelining guarantees beyond read-one/write-one per
    round trip.

    Reading is factored over a pull function so the parser can be
    driven byte-by-byte in tests: bodies and header blocks split across
    arbitrarily many [read] calls are reassembled, and truncation at
    any point is a clean {!Bad_request}, never a hang or a partial
    value. *)

exception Bad_request of string
(** Malformed or truncated input; the connection should answer 400 (if
    it still can) and close. *)

exception Payload_too_large of { limit : int; declared : int }
(** The declared [Content-Length] exceeds the reader's limit; answer
    413 and close {e without} reading the body. *)

module Reader : sig
  type t

  val of_fn : (bytes -> int -> int -> int) -> t
  (** [of_fn read] pulls bytes with [read buf pos len] (returning 0 at
      end of input) — [Unix.read] partially applied, or a scripted
      function in tests. *)

  val of_fd : Unix.file_descr -> t
  val of_string : string -> t
end

type request = {
  meth : string;  (** verbatim, e.g. ["GET"] *)
  path : string;  (** request-target, e.g. ["/discover"] *)
  version : string;  (** ["HTTP/1.1"] *)
  headers : (string * string) list;
      (** names lowercased, values trimmed, in arrival order *)
  body : string;
}

val header : request -> string -> string option
(** Case-insensitive header lookup (first match). *)

val split_target : string -> string * (string * string) list
(** Split a request-target into its path and decoded query parameters:
    [split_target "/discover?anytime=1&resume=a%2Fb"] is
    [("/discover", [("anytime", "1"); ("resume", "a/b")])]. Parameters
    keep arrival order; a key without ["="] decodes to the empty value;
    ["+"] and [%XX] escapes are decoded in both keys and values. *)

val keep_alive : request -> bool
(** HTTP/1.1 defaults to persistent; [Connection: close] (or HTTP/1.0
    without [Connection: keep-alive]) turns it off. *)

val read_request : ?max_body:int -> Reader.t -> request option
(** Read one request. [None] on a clean end of input before any byte of
    a request (the idle keep-alive close). [max_body] (default 8 MiB)
    bounds the declared [Content-Length].
    @raise Bad_request on a malformed request line or header, a header
    block over 64 KiB, a chunked request, or input that ends mid-way.
    @raise Payload_too_large when [Content-Length] exceeds [max_body]. *)

val parse_buffered :
  ?max_body:int ->
  Bytes.t ->
  len:int ->
  [ `Request of request * int | `Need_more ]
(** Incremental (event-loop) counterpart of {!read_request}: attempt to
    carve one complete request off the first [len] bytes of [buf] — a
    connection's accumulated input. [`Request (r, consumed)] hands back
    the request and how many leading bytes it occupied (including any
    tolerated blank-line noise; the caller discards them and keeps the
    rest for the next pipelined request); [`Need_more] means the bytes
    so far are a valid prefix of a request and more input is needed.
    Never blocks and never consumes on [`Need_more], so it is safe to
    call after every readiness event.
    @raise Bad_request on malformed input or a header block over 64 KiB.
    @raise Payload_too_large when [Content-Length] exceeds [max_body]
    (raised as soon as the headers are complete, before the body
    arrives). *)

val carve :
  ?max_body:int ->
  Bytes.t ->
  len:int ->
  [ `Request of request * int * int | `Need_more ]
(** {!parse_buffered} without copying the body out of [buf]:
    [`Request (r, body_off, consumed)] has [r.body = ""], and the body is
    the bytes of [buf] from [body_off] up to [consumed]. A body over
    256 words copied into a string is allocated straight on the major
    heap, so the event loop reads small bodies where they arrived. Same
    errors as {!parse_buffered}. *)

type response = {
  status : int;
  reason : string;
  resp_headers : (string * string) list;
  resp_body : string;
}

val response :
  ?content_type:string -> ?headers:(string * string) list -> int -> string ->
  response
(** [response status body], defaulting to [application/json]. *)

val reason_phrase : int -> string

val write_response : ?keep_alive:bool -> (string -> unit) -> response -> unit
(** Serialize status line, headers ([Content-Length] and [Connection]
    added automatically), blank line and body to [write]. *)

val read_response : Reader.t -> (int * (string * string) list * string)
(** Client side: read one [(status, headers, body)]. Bodies framed with
    [Transfer-Encoding: chunked] (the anytime incumbent stream) are
    accumulated whole; otherwise [Content-Length] governs as before.
    @raise Bad_request on malformed or truncated input. *)

(** {1 Chunked responses}

    The anytime [/discover] stream: the daemon commits to a 200 before
    the search finishes, then emits one chunk per incumbent frame.
    Requests still never use chunked framing (rejected with 400). *)

val chunked_head :
  ?content_type:string ->
  ?headers:(string * string) list ->
  ?keep_alive:bool ->
  int ->
  string
(** Serialized status line and headers announcing
    [Transfer-Encoding: chunked] — written once, before the first
    chunk. *)

val chunk : string -> string
(** One chunk frame ([size CRLF data CRLF]). [chunk "" = ""] — an empty
    payload must not emit the stream terminator. *)

val last_chunk : string
(** The terminating zero chunk. *)

val read_response_head : Reader.t -> int * (string * string) list
(** Client side: status line and headers only, leaving the body (and
    its framing) to the caller — the streaming entry point.
    @raise Bad_request on malformed or truncated input. *)

val response_chunked : (string * string) list -> bool
(** Whether headers (from {!read_response_head}) declare a chunked
    body. *)

val read_body : Reader.t -> (string * string) list -> string
(** Client side: read the body whose framing [headers] describe —
    chunked bodies accumulated whole, otherwise per [Content-Length]
    (empty when absent). [read_response] ≡ head + this.
    @raise Bad_request on malformed or truncated framing. *)

val read_chunk : Reader.t -> string option
(** Read one chunk of a chunked body: [Some data], or [None] on the
    terminating zero chunk (trailers drained). Chunk boundaries carry
    no meaning — callers reassemble and re-split on their own framing
    (the incumbent stream uses newline-delimited JSON).
    @raise Bad_request on malformed or truncated framing. *)
