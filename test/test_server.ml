(* The mapping server: wire-protocol framing (malformed lines,
   truncated bodies, byte-at-a-time delivery, payload limits), the JSON
   and protocol codecs (property-tested round trips), and end-to-end
   behaviour of a live daemon — keep-alive concurrency, cache hits,
   backpressure, deadlines and graceful drain. *)

open Server

let qcheck ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* --- HTTP framing --- *)

let read_str ?max_body s = Http.read_request ?max_body (Http.Reader.of_string s)

let expect_bad_request what input =
  match read_str input with
  | exception Http.Bad_request _ -> ()
  | exception e ->
      Alcotest.failf "%s: expected Bad_request, got %s" what
        (Printexc.to_string e)
  | _ -> Alcotest.failf "%s: malformed input parsed" what

let test_parses_simple_request () =
  let req =
    read_str "POST /discover HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody"
  in
  match req with
  | None -> Alcotest.fail "expected a request"
  | Some r ->
      Alcotest.(check string) "method" "POST" r.Http.meth;
      Alcotest.(check string) "path" "/discover" r.Http.path;
      Alcotest.(check string) "body" "body" r.Http.body;
      Alcotest.(check (option string))
        "headers are lowercased" (Some "x") (Http.header r "HOST");
      Alcotest.(check bool) "1.1 defaults to keep-alive" true
        (Http.keep_alive r)

let test_idle_close_is_none () =
  Alcotest.(check bool) "clean EOF before any byte" true (read_str "" = None)

let test_malformed_request_lines () =
  expect_bad_request "two tokens" "GET /x\r\n\r\n";
  expect_bad_request "lowercase method" "get /x HTTP/1.1\r\n\r\n";
  expect_bad_request "relative path" "GET x HTTP/1.1\r\n\r\n";
  expect_bad_request "unknown version" "GET /x HTTP/2.0\r\n\r\n";
  expect_bad_request "header without colon"
    "GET /x HTTP/1.1\r\nnot-a-header\r\n\r\n";
  expect_bad_request "space in header name"
    "GET /x HTTP/1.1\r\nbad name: v\r\n\r\n";
  expect_bad_request "chunked rejected"
    "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
  expect_bad_request "negative content-length"
    "POST /x HTTP/1.1\r\nContent-Length: -1\r\n\r\n";
  expect_bad_request "persistent blank-line noise" "\r\n\r\n\r\n\r\n"

let test_truncated_input () =
  expect_bad_request "line without newline" "GET /x HT";
  expect_bad_request "headers without blank line" "GET /x HTTP/1.1\r\nHost: x\r\n";
  expect_bad_request "body shorter than declared"
    "POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nfour"

let test_body_split_across_reads () =
  (* Deliver the request one byte per [read] call: the framing layer
     must reassemble the header block and the body identically to a
     single-buffer delivery. *)
  let raw =
    "POST /discover HTTP/1.1\r\nContent-Length: 11\r\n\r\nhello world"
  in
  let pos = ref 0 in
  let one_byte buf off len =
    if !pos >= String.length raw || len = 0 then 0
    else begin
      Bytes.set buf off raw.[!pos];
      incr pos;
      1
    end
  in
  match Http.read_request (Http.Reader.of_fn one_byte) with
  | None -> Alcotest.fail "expected a request"
  | Some r -> Alcotest.(check string) "body reassembled" "hello world" r.Http.body

let test_truncated_body_split_across_reads () =
  let raw = "POST /x HTTP/1.1\r\nContent-Length: 32\r\n\r\nonly this much" in
  let pos = ref 0 in
  let one_byte buf off len =
    if !pos >= String.length raw || len = 0 then 0
    else begin
      Bytes.set buf off raw.[!pos];
      incr pos;
      1
    end
  in
  match Http.read_request (Http.Reader.of_fn one_byte) with
  | exception Http.Bad_request _ -> ()
  | _ -> Alcotest.fail "truncated split body must raise Bad_request"

let test_payload_too_large () =
  let input = "POST /x HTTP/1.1\r\nContent-Length: 4096\r\n\r\n" in
  match read_str ~max_body:512 input with
  | exception Http.Payload_too_large { limit; declared } ->
      Alcotest.(check int) "limit" 512 limit;
      Alcotest.(check int) "declared" 4096 declared
  | _ -> Alcotest.fail "expected Payload_too_large"

let test_response_round_trip () =
  let resp = Http.response 429 (Protocol.error_body "busy") in
  let buf = Buffer.create 128 in
  Http.write_response ~keep_alive:false (Buffer.add_string buf) resp;
  let status, headers, body =
    Http.read_response (Http.Reader.of_string (Buffer.contents buf))
  in
  Alcotest.(check int) "status" 429 status;
  Alcotest.(check string) "body" (Protocol.error_body "busy") body;
  Alcotest.(check (option string))
    "connection: close" (Some "close")
    (List.assoc_opt "connection" headers)

(* --- JSON codec --- *)

let json_gen =
  let open QCheck2.Gen in
  (* arbitrary bytes, including control characters and non-ASCII *)
  let any_string = string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 12) in
  let num = map (fun i -> Json.Num (float_of_int i /. 8.)) (int_range (-8_000_000) 8_000_000) in
  let leaf =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        num;
        map (fun s -> Json.Str s) any_string;
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 0 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun l -> Json.Arr l) (list_size (int_range 0 4) (self (n / 3))));
               ( 1,
                 map
                   (fun l -> Json.Obj l)
                   (list_size (int_range 0 4) (pair any_string (self (n / 3)))) );
             ])

let json_round_trip =
  qcheck ~count:500 "json: parse (to_string j) = j" json_gen (fun j ->
      match Json.parse (Json.to_string j) with
      | Ok j' -> Json.equal j j'
      | Error m -> QCheck2.Test.fail_reportf "parse error: %s" m)

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "parsed %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "nul"; "1 2"; "\"\\x\""; "{\"a\" 1}" ]

(* Strings built to cross the parser's run copying at every kind of
   boundary: control bytes (written back as \u escapes), quotes,
   backslashes and slashes, and multi-byte UTF-8, between plain runs. *)
let tricky_string_gen =
  let open QCheck2.Gen in
  let piece =
    frequency
      [
        (3, string_size ~gen:(char_range 'a' 'z') (int_range 1 6));
        (2, map (String.make 1) (oneofl [ '"'; '\\'; '/' ]));
        (2, map (fun c -> String.make 1 (Char.chr c)) (int_range 0 0x1f));
        (1, oneofl [ "\xc3\xa9"; "\xe2\x82\xac"; "\xf0\x9f\x90\xab"; "\xff" ]);
      ]
  in
  map (String.concat "") (list_size (int_range 0 12) piece)

let json_string_round_trip =
  qcheck ~count:1000 "json: strings with escapes and UTF-8 round-trip"
    QCheck2.Gen.(pair tricky_string_gen tricky_string_gen)
    (fun (k, v) ->
      let j = Json.Obj [ (k, Json.Arr [ Json.Str v; Json.Str (k ^ v) ]) ] in
      match Json.parse (Json.to_string j) with
      | Ok j' -> Json.equal j j'
      | Error m -> QCheck2.Test.fail_reportf "parse error: %s" m)

let test_json_unicode_escapes () =
  (* \u escapes from a foreign writer decode to UTF-8, mid-run too *)
  match Json.parse {|"a\u00e9b\u20acc\u0041\/"|} with
  | Ok (Json.Str s) ->
      Alcotest.(check string) "decoded" "a\xc3\xa9b\xe2\x82\xacc" (String.sub s 0 8);
      Alcotest.(check string) "tail" "A/" (String.sub s 8 2)
  | _ -> Alcotest.fail "escaped string did not parse"

(* --- protocol codec --- *)

let request_gen =
  let open QCheck2.Gen in
  let name = string_size ~gen:(char_range 'a' 'z') (int_range 1 8) in
  let csv = string_size ~gen:(map Char.chr (int_range 32 126)) (int_range 0 64) in
  let relations = list_size (int_range 1 3) (pair name csv) in
  let* source = relations in
  let* target = relations in
  let* algorithm = oneofl [ "rbfs"; "astar"; "portfolio"; "beam:4" ] in
  let* heuristic = oneofl [ "cosine"; "h1"; "euclid" ] in
  let* goal = oneofl [ "superset"; "exact"; "schema" ] in
  let* partial = list_size (int_range 0 2) name in
  let* budget = int_range 1 1_000_000 in
  let* jobs = int_range 0 8 in
  let* timeout_ms = option (int_range 1 60_000) in
  let* semfuns = list_size (int_range 0 2) csv in
  return
    {
      Protocol.source;
      target;
      algorithm;
      heuristic;
      goal;
      partial;
      budget;
      jobs;
      timeout_ms;
      semfuns;
    }

let request_round_trip =
  qcheck ~count:300 "protocol: decode (encode req) = req" request_gen
    (fun req ->
      match Protocol.decode_request (Protocol.encode_request req) with
      | Ok req' -> req' = req
      | Error m -> QCheck2.Test.fail_reportf "decode error: %s" m)

let response_gen =
  let open QCheck2.Gen in
  let text = string_size ~gen:(map Char.chr (int_range 32 126)) (int_range 0 32) in
  let* outcome = oneofl [ "mapping"; "no_mapping"; "gave_up"; "timeout" ] in
  let* mapping = option text in
  let* expr = option text in
  let* operators = int_range 0 16 in
  let* res_algorithm = text in
  let* res_heuristic = text in
  let* states_examined = int_range 0 1_000_000 in
  let* elapsed_ms = map (fun i -> float_of_int i /. 16.) (int_range 0 1_000_000) in
  let* cache = oneofl [ "hit"; "warm"; "miss"; "resume" ] in
  let* incumbents = int_range 0 32 in
  let* resume_token = option (string_size ~gen:(char_range 'a' 'f') (pure 24)) in
  return
    {
      Protocol.outcome;
      mapping;
      expr;
      operators;
      res_algorithm;
      res_heuristic;
      states_examined;
      elapsed_ms;
      cache;
      incumbents;
      resume_token;
    }

let response_round_trip =
  qcheck ~count:300 "protocol: decode (encode resp) = resp" response_gen
    (fun resp ->
      match Protocol.decode_response (Protocol.encode_response resp) with
      | Ok resp' -> resp' = resp
      | Error m -> QCheck2.Test.fail_reportf "decode error: %s" m)

let test_decode_rejects_bad_requests () =
  let check what json =
    match Json.parse json with
    | Error m -> Alcotest.failf "%s: test JSON invalid: %s" what m
    | Ok j -> (
        match Protocol.decode_request j with
        | Ok _ -> Alcotest.failf "%s: decoded" what
        | Error _ -> ())
  in
  check "empty object" "{}";
  check "empty source" {|{"source":{},"target":{"S":"x\n"}}|};
  check "missing target" {|{"source":{"R":"a\n"}}|};
  check "ill-typed budget"
    {|{"source":{"R":"a\n"},"target":{"S":"x\n"},"budget":"lots"}|};
  check "non-positive budget"
    {|{"source":{"R":"a\n"},"target":{"S":"x\n"},"budget":0}|};
  check "negative jobs"
    {|{"source":{"R":"a\n"},"target":{"S":"x\n"},"jobs":-1}|}

(* --- admission: the key computed while tokenizing --- *)

open Relational

(* What admission must agree with: every relation built by
   [Csv.parse_relation], then fingerprinted and routed. *)
let boxed_key cfg (r : Protocol.discover_request) =
  let load what rels =
    List.fold_left
      (fun acc (name, csv) ->
        Result.bind acc (fun db ->
            match Csv.parse_relation ~max_bytes:cfg.Daemon.max_payload csv with
            | exception Csv.Error m ->
                Error (Printf.sprintf "%s relation %S: %s" what name m)
            | _ when Database.mem db name ->
                Error (Printf.sprintf "%s relation %S: duplicate relation name" what name)
            | rel -> Ok (Database.add db name rel)))
      (Ok Database.empty) rels
  in
  Result.bind (load "source" r.Protocol.source) (fun source ->
      Result.map
        (fun target ->
          ( (Fingerprint.of_database source, Fingerprint.of_database target),
            Cache.route_of_pair ~source ~target ))
        (load "target" r.Protocol.target))

let admission_gen =
  let open QCheck2.Gen in
  let side names =
    list_size (int_range 1 3) (pair (oneofl names) Test_csv.relation_doc_gen)
  in
  map2
    (fun source target -> Protocol.request ~source ~target ())
    (side [ "R"; "Q"; "P" ]) (side [ "S"; "T"; "U" ])

let prop_admit_key_oracle =
  let cfg = Daemon.config ~max_payload:4096 () in
  qcheck ~count:1000 "admit: streamed key and route = the built databases'"
    admission_gen (fun req ->
      let show = function
        | Ok ((s, t), _route) ->
            Printf.sprintf "key %s/%s" (Fingerprint.to_hex s) (Fingerprint.to_hex t)
        | Error m -> "error " ^ m
      in
      let streamed = Result.map Daemon.admitted_key (Daemon.admit cfg req) in
      let boxed = boxed_key cfg req in
      match (streamed, boxed) with
      | Ok ((s, t), route), Ok ((s', t'), route') ->
          Fingerprint.equal s s' && Fingerprint.equal t t' && route = route'
      | Error m, Error m' when m = m' -> true
      | _ ->
          QCheck2.Test.fail_reportf "admit: %s\nboxed: %s" (show streamed)
            (show boxed))

(* The serve-hit benchmark's request: three relations of 24 rows and 5
   attributes per side, string keys and values mixed with ints. *)
let hit_shaped_body () =
  let g = Random.State.make [| 7 |] in
  let rel r =
    let att a = Printf.sprintf "h1x3_a%d%d" r a in
    let rows =
      List.init 24 (fun k ->
          List.init 5 (fun a ->
              if a = 0 then Printf.sprintf "h1x3_k%d_%d" r k
              else if a mod 2 = 1 then string_of_int (1 + Random.State.int g 99_999)
              else Printf.sprintf "h1x3_v%d" (Random.State.int g 1000)))
    in
    let name = Printf.sprintf "h1x3_R%d" r in
    let renamed = Printf.sprintf "h1x3_b%d0" r :: List.init 4 (fun a -> att (a + 1)) in
    ( (name, Csv.print (List.init 5 att :: rows)),
      (name, Csv.print (renamed :: rows)) )
  in
  let rels = List.init 3 rel in
  Json.to_string
    (Protocol.encode_request
       (Protocol.request ~source:(List.map fst rels) ~target:(List.map snd rels) ()))

let test_admit_allocation () =
  let body = hit_shaped_body () in
  let cfg = Daemon.config () in
  let admit () =
    match Result.bind (Json.parse body) Protocol.decode_request with
    | Error m -> Alcotest.failf "request: %s" m
    | Ok r -> (
        match Daemon.admit cfg r with
        | Ok a -> ignore (Sys.opaque_identity a)
        | Error m -> Alcotest.failf "admit: %s" m)
  in
  admit ();
  let before = Gc.minor_words () in
  admit ();
  let words = Gc.minor_words () -. before in
  if words > 20_000. then
    Alcotest.failf "JSON + decode + admit of a 6 x 24 x 5 request: %.0f minor words (limit 20000)"
      words

(* The event loop carves a request with [Http.carve] and parses its body
   where it lies; a body copied into a string of more than 256 words is
   allocated straight on the major heap, and on the cache-hit path those
   allocations alone paced the major GC. *)
let direct_major_words () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  s.Gc.major_words -. s.Gc.promoted_words

let test_loop_hit_path_major_words () =
  let body = hit_shaped_body () in
  let wire =
    Printf.sprintf "POST /discover HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s"
      (String.length body) body
  in
  let buf = Bytes.of_string wire in
  let cfg = Daemon.config () in
  let on_loop () =
    match Http.carve buf ~len:(Bytes.length buf) with
    | `Need_more -> Alcotest.fail "hit request: need more"
    | `Request (_, off, consumed) -> (
        match
          Result.bind
            (Json.parse_sub (Bytes.unsafe_to_string buf) ~off ~len:(consumed - off))
            Protocol.decode_request
        with
        | Error m -> Alcotest.failf "request: %s" m
        | Ok r -> (
            match Daemon.admit cfg r with
            | Ok a -> ignore (Sys.opaque_identity a)
            | Error m -> Alcotest.failf "admit: %s" m))
  in
  let major_words reps =
    let before = direct_major_words () in
    for _ = 1 to reps do
      on_loop ()
    done;
    direct_major_words () -. before
  in
  on_loop ();
  (* the first reading after start-up can carry a one-off promotion *)
  ignore (major_words 0);
  let reps = 50 in
  let words = major_words reps in
  if words >= float_of_int reps then
    Alcotest.failf
      "carve + JSON + decode + admit of a %d-byte request: %.0f major-heap words over %d runs"
      (String.length wire) words reps

(* One to three requests back to back, each a method, a path and a
   body, with CRLF noise before some of them. *)
let wire_gen =
  let open QCheck2.Gen in
  let body =
    string_size ~gen:(oneofl [ 'a'; '{'; '"'; '\r'; '\n'; ' '; '0' ]) (int_range 0 40)
  in
  let one =
    let* meth = oneofl [ "GET"; "POST" ] in
    let* path = oneofl [ "/discover"; "/stats"; "/x?a=1" ] in
    let* noise = oneofl [ ""; "\r\n"; "\n" ] in
    let+ body = body in
    Printf.sprintf "%s%s %s HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s"
      noise meth path (String.length body) body
  in
  map (String.concat "") (list_size (int_range 1 3) one)

let carve_matches_parse_buffered =
  qcheck ~count:300 "http: carve = parse_buffered, body left in place" wire_gen
    (fun wire ->
      let buf = Bytes.of_string wire in
      let outcome f = try Ok (f ()) with e -> Error (Printexc.to_string e) in
      let rec at len =
        len > Bytes.length buf
        ||
        let same =
          match
            ( outcome (fun () -> Http.parse_buffered buf ~len),
              outcome (fun () -> Http.carve buf ~len) )
          with
          | Ok `Need_more, Ok `Need_more -> true
          | Ok (`Request (r, consumed)), Ok (`Request (r', off, consumed')) ->
              consumed = consumed' && r' = { r with Http.body = "" }
              && Bytes.sub_string buf off (consumed' - off) = r.Http.body
          | Error a, Error b -> a = b
          | _ -> false
        in
        if not same then QCheck2.Test.fail_reportf "differ at len %d of %S" len wire;
        at (len + 1)
      in
      at 0)

let json_parse_sub_window =
  qcheck ~count:500 "json: parse_sub = parse of the window"
    QCheck2.Gen.(
      triple tricky_string_gen
        (oneof
           [
             map Json.to_string json_gen;
             oneofl [ ""; "{"; "[1,]"; "{\"a\":}"; "nul"; "1 2"; "\"\\x\""; " 12 "; "\"ab" ];
           ])
        tricky_string_gen)
    (fun (pre, doc, post) ->
      let s = pre ^ doc ^ post in
      match
        ( Json.parse doc,
          Json.parse_sub s ~off:(String.length pre) ~len:(String.length doc) )
      with
      | Ok a, Ok b -> Json.equal a b
      | Error a, Error b -> a = b || QCheck2.Test.fail_reportf "%S vs %S" a b
      | _ -> QCheck2.Test.fail_reportf "outcomes differ on %S" doc)

(* --- anytime stream frames --- *)

let incumbent_gen =
  let open QCheck2.Gen in
  let text = string_size ~gen:(map Char.chr (int_range 32 126)) (int_range 0 24) in
  let name = string_size ~gen:(char_range 'a' 'z') (int_range 1 8) in
  let* i_seq = int_range 0 1_000_000 in
  let* i_cost = int_range 0 32 in
  let* i_h = int_range 0 100_000 in
  let* i_covered = int_range 0 64 in
  let* i_total = int_range 0 64 in
  let* i_entrant = text in
  let* i_coverage =
    list_size (int_range 0 3) (triple name (int_range 0 9) (int_range 0 9))
  in
  let* i_expr = text in
  return
    { Protocol.i_seq; i_cost; i_h; i_covered; i_total; i_entrant; i_coverage;
      i_expr }

let frame_gen =
  let open QCheck2.Gen in
  let text = string_size ~gen:(map Char.chr (int_range 32 126)) (int_range 0 32) in
  oneof
    [
      map (fun i -> Protocol.F_incumbent i) incumbent_gen;
      map (fun r -> Protocol.F_final r) response_gen;
      map (fun m -> Protocol.F_error m) text;
    ]

let frame_round_trip =
  qcheck ~count:300 "protocol: decode_frame (encode f) = f" frame_gen
    (fun f ->
      let json =
        match f with
        | Protocol.F_incumbent i -> Protocol.encode_incumbent i
        | Protocol.F_final r -> Protocol.encode_final r
        | Protocol.F_error m -> Protocol.encode_error_frame m
      in
      match Protocol.decode_frame json with
      | Ok f' -> f' = f
      | Error m -> QCheck2.Test.fail_reportf "decode error: %s" m)

let test_frame_rejects_untagged () =
  match Protocol.decode_frame (Protocol.encode_response (
      { Protocol.outcome = "mapping"; mapping = None; expr = None;
        operators = 0; res_algorithm = "x"; res_heuristic = "y";
        states_examined = 0; elapsed_ms = 0.; cache = "miss";
        incumbents = 0; resume_token = None }))
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "frame without a tag must not decode"

let test_chunked_response_byte_split () =
  (* A chunked incumbent stream delivered one byte per read: the chunk
     framing must reassemble into exactly the concatenated payload,
     whatever the chunk boundaries. *)
  Alcotest.(check string) "empty chunk emits nothing" "" (Http.chunk "");
  let frames =
    [ "{\"frame\":\"incumbent\",\"seq\":1}\n"; "{\"fra"; "me\":\"final\"}\n" ]
  in
  let wire =
    Http.chunked_head ~keep_alive:true 200
    ^ String.concat "" (List.map Http.chunk frames)
    ^ Http.last_chunk
  in
  let pos = ref 0 in
  let one_byte buf off len =
    if !pos >= String.length wire || len = 0 then 0
    else begin
      Bytes.set buf off wire.[!pos];
      incr pos;
      1
    end
  in
  let reader = Http.Reader.of_fn one_byte in
  let status, headers = Http.read_response_head reader in
  Alcotest.(check int) "status" 200 status;
  Alcotest.(check bool) "declares chunked" true
    (Http.response_chunked headers);
  let buf = Buffer.create 64 in
  let rec drain () =
    match Http.read_chunk reader with
    | Some data ->
        Buffer.add_string buf data;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check string) "payload reassembled" (String.concat "" frames)
    (Buffer.contents buf);
  (* ... and the whole-body reader agrees with the streaming one. *)
  pos := 0;
  let _, headers', body =
    Http.read_response (Http.Reader.of_fn one_byte)
  in
  Alcotest.(check bool) "read_response sees chunked too" true
    (Http.response_chunked headers');
  Alcotest.(check string) "read_response reassembles" (String.concat "" frames)
    body

let test_chunked_truncated_raises () =
  let wire =
    Http.chunked_head ~keep_alive:true 200 ^ Http.chunk "data"
    (* no terminating zero chunk *)
  in
  match Http.read_response (Http.Reader.of_string wire) with
  | exception Http.Bad_request _ -> ()
  | _ -> Alcotest.fail "truncated chunked body must raise Bad_request"

(* --- live daemon --- *)

(* The rename workload: source and target rows coincide, only the
   relation name differs — found in a couple of states, so e2e tests
   stay fast. The first CSV line is the header. *)
let rename_pair ?(suffix = "") () =
  ( [ ("R", "name,id\nalice,1\nbob,2\n" ^ suffix) ],
    [ ("S", "name,id\nalice,1\nbob,2\n" ^ suffix) ] )

(* A pairing the engine cannot map but cannot quickly refute either:
   the headers double as plausible values and the target's association
   of values is swapped relative to the source, so the search keeps
   proposing operators until its budget or deadline runs out — a
   deterministic way to keep a worker busy. *)
let slow_pair i =
  ( [ ("R", Printf.sprintf "a,%d\nb,%d\nc,%d\n" i (i + 1) (i + 2)) ],
    [ ("S", Printf.sprintf "a,%d\nb,%d\nc,%d\n" (i + 1) (i + 2) i) ] )

let with_daemon ?(workers = 2) ?(queue_capacity = 8) ?(timeout_ms = 30_000)
    ?read_timeout_ms ?max_payload ?frontier_capacity ?frontier_ttl_ms k =
  let agg = Telemetry.Agg.create () in
  let config =
    Daemon.config ~port:0 ~workers ~queue_capacity ~timeout_ms
      ?read_timeout_ms ?max_payload ?frontier_capacity ?frontier_ttl_ms
      ~search_telemetry:false ~trace_sink:(Telemetry.Agg.sink agg) ()
  in
  let t = Daemon.start config in
  Fun.protect ~finally:(fun () -> Daemon.stop t) (fun () -> k t agg)

let discover_once ~port req =
  let conn = Client.connect ~host:"127.0.0.1" ~port in
  Fun.protect
    ~finally:(fun () -> Client.close conn)
    (fun () -> Client.discover conn req)

let check_outcome what expected = function
  | Error m -> Alcotest.failf "%s: transport error: %s" what m
  | Ok (status, Error body) ->
      Alcotest.failf "%s: HTTP %d: %s" what status body
  | Ok (_, Ok resp) ->
      Alcotest.(check string)
        (what ^ ": outcome") expected resp.Protocol.outcome;
      resp

let test_routes_on_one_connection () =
  with_daemon @@ fun t _agg ->
  let port = Daemon.port t in
  let conn = Client.connect ~host:"127.0.0.1" ~port in
  Fun.protect
    ~finally:(fun () -> Client.close conn)
    (fun () ->
      (* several round trips on the same keep-alive connection *)
      (match Client.request conn ~meth:"GET" ~path:"/healthz" () with
      | Ok (200, body) ->
          Alcotest.(check bool) "healthz mentions ok" true
            (String.length body > 0)
      | other ->
          Alcotest.failf "healthz: %s"
            (match other with
            | Ok (s, b) -> Printf.sprintf "HTTP %d %s" s b
            | Error m -> m));
      (match Client.request conn ~meth:"GET" ~path:"/nope" () with
      | Ok (404, _) -> ()
      | _ -> Alcotest.fail "unknown route must 404");
      (match Client.request conn ~meth:"PUT" ~path:"/discover" ~body:"{}" () with
      | Ok (s, _) ->
          Alcotest.(check bool) "PUT rejected" true (s = 404 || s = 405)
      | Error m -> Alcotest.failf "PUT: %s" m);
      (match
         Client.request conn ~meth:"POST" ~path:"/discover" ~body:"not json" ()
       with
      | Ok (400, _) -> ()
      | _ -> Alcotest.fail "bad JSON must 400");
      match Client.request conn ~meth:"GET" ~path:"/stats" () with
      | Ok (200, body) -> (
          match Json.parse body with
          | Ok _ -> ()
          | Error m -> Alcotest.failf "stats is not JSON: %s" m)
      | _ -> Alcotest.fail "stats must 200")

let test_discover_and_cache_hit () =
  with_daemon @@ fun t agg ->
  let port = Daemon.port t in
  let source, target = rename_pair () in
  let req = Protocol.request ~source ~target () in
  let first = check_outcome "first" "mapping" (discover_once ~port req) in
  Alcotest.(check string) "first is a miss" "miss" first.Protocol.cache;
  (* Same instance, rows re-ordered and submitted as a brand-new
     request: the fingerprint pair is identical, so this must be a
     cache hit that bypasses the search engine. *)
  let source' = [ ("R", "name,id\nbob,2\nalice,1\n") ] in
  let target' = [ ("S", "name,id\nbob,2\nalice,1\n") ] in
  let req' = Protocol.request ~source:source' ~target:target' () in
  let second = check_outcome "second" "mapping" (discover_once ~port req') in
  Alcotest.(check string) "second is a hit" "hit" second.Protocol.cache;
  Alcotest.(check (option string))
    "same mapping" first.Protocol.mapping second.Protocol.mapping;
  (* One perturbed cell → different fingerprint, so the exact lookup
     misses — but the near-miss sketch finds the cached pair and seeds
     the search with its normalized program: a warm start, not a cold
     miss. *)
  let source'' = [ ("R", "name,id\nalice,1\nbob,99\n") ] in
  let target'' = [ ("S", "name,id\nalice,1\nbob,99\n") ] in
  let req'' = Protocol.request ~source:source'' ~target:target'' () in
  let third = check_outcome "third" "mapping" (discover_once ~port req'') in
  Alcotest.(check string) "perturbed cell warms" "warm" third.Protocol.cache;
  Alcotest.(check bool)
    "warm search examines no more states than cold" true
    (third.Protocol.states_examined <= first.Protocol.states_examined);
  let cache = Daemon.cache t in
  Alcotest.(check int) "cache holds both pairs" 2 (Cache.length cache);
  Alcotest.(check int) "one hit" 1 (Cache.hits cache);
  Alcotest.(check int) "two misses" 2 (Cache.misses cache);
  Alcotest.(check int) "one warm" 1 (Cache.warms cache);
  Alcotest.(check int)
    "trace agrees on hits" 1
    (Telemetry.Agg.counter agg "cache.hit");
  Alcotest.(check int)
    "trace agrees on warms" 1
    (Telemetry.Agg.counter agg "cache.warm")

(* Float cells are keyed while tokenizing, like every other cell: the
   admitted request holds its CSV documents and no relation (it reaches
   exactly as many words as a request whose float cells are spelled as
   strings of the same length), its key is the built databases', and a
   reordered repeat is a cache hit. *)
let test_float_request_keyed_and_hit () =
  let rows =
    List.init 24 (fun k ->
        Printf.sprintf "r%d,%s,%d.5\n" k
          (List.nth [ "0.3"; "0.30000000000000004"; "1.0"; "1"; "-0.0" ] (k mod 5))
          k)
  in
  let doc rows = "name,x,y\n" ^ String.concat "" rows in
  let req doc =
    Protocol.request ~source:[ ("R", doc) ] ~target:[ ("S", doc) ] ()
  in
  let cfg = Daemon.config () in
  let admitted doc =
    match Daemon.admit cfg (req doc) with
    | Ok a -> a
    | Error m -> Alcotest.failf "admit: %s" m
  in
  let words x = Obj.reachable_words (Obj.repr x) in
  let spelled_as_strings =
    String.map (function '0' .. '9' -> 'a' | '.' -> 'b' | '-' -> 'c' | c -> c)
  in
  Alcotest.(check int) "admitted: documents only"
    (words (admitted (spelled_as_strings (doc rows))))
    (words (admitted (doc rows)));
  Alcotest.(check bool) "a built relation would show" true
    (words (Csv.parse_relation (doc rows)) > 100);
  (match boxed_key cfg (req (doc rows)) with
  | Ok ((s, t), route) ->
      let (s', t'), route' = Daemon.admitted_key (admitted (doc rows)) in
      Alcotest.(check bool) "key = the built databases'" true
        (Fingerprint.equal s s' && Fingerprint.equal t t' && route = route')
  | Error m -> Alcotest.failf "boxed: %s" m);
  with_daemon @@ fun t _agg ->
  let port = Daemon.port t in
  let first =
    check_outcome "first" "mapping" (discover_once ~port (req (doc rows)))
  in
  Alcotest.(check string) "first is a miss" "miss" first.Protocol.cache;
  let second =
    check_outcome "repeat" "mapping"
      (discover_once ~port (req (doc (List.rev rows))))
  in
  Alcotest.(check string) "reordered repeat is a hit" "hit" second.Protocol.cache

let test_goal_mode_mismatch_is_a_miss () =
  with_daemon @@ fun t _agg ->
  let port = Daemon.port t in
  let source, target = rename_pair ~suffix:"carol,3\n" () in
  let req = Protocol.request ~source ~target ~goal:"superset" () in
  ignore (check_outcome "superset" "mapping" (discover_once ~port req));
  (* Same fingerprints, different goal mode: the cached entry must not
     be served. *)
  let req' = Protocol.request ~source ~target ~goal:"exact" () in
  let second = check_outcome "exact" "mapping" (discover_once ~port req') in
  Alcotest.(check string) "goal mismatch misses" "miss" second.Protocol.cache

let test_concurrent_keep_alive_clients () =
  with_daemon @@ fun t agg ->
  let port = Daemon.port t in
  let source, target = rename_pair () in
  (* Warm the cache once so every threaded discover below is
     deterministically a hit, whatever the interleaving. *)
  ignore
    (check_outcome "warm-up" "mapping"
       (discover_once ~port (Protocol.request ~source ~target ())));
  let failures = Atomic.make 0 in
  let client _i =
    let conn = Client.connect ~host:"127.0.0.1" ~port in
    Fun.protect
      ~finally:(fun () -> Client.close conn)
      (fun () ->
        for j = 1 to 5 do
          let ok =
            if j mod 2 = 0 then
              match Client.request conn ~meth:"GET" ~path:"/healthz" () with
              | Ok (200, _) -> true
              | _ -> false
            else
              match Client.discover conn (Protocol.request ~source ~target ())
              with
              | Ok (200, Ok resp) -> resp.Protocol.outcome = "mapping"
              | _ -> false
          in
          if not ok then Atomic.incr failures
        done)
  in
  let threads = List.init 4 (fun i -> Thread.create client i) in
  List.iter Thread.join threads;
  Alcotest.(check int) "no failed round trips" 0 (Atomic.get failures);
  Alcotest.(check int)
    "all discovers counted" 13
    (Telemetry.Agg.counter agg "server.request.discover");
  let cache = Daemon.cache t in
  Alcotest.(check int)
    "every request after the warm-up hit" 12 (Cache.hits cache)

let test_payload_limit_e2e () =
  with_daemon ~max_payload:1024 @@ fun t _agg ->
  let port = Daemon.port t in
  let big = String.concat "" (List.init 300 (fun i -> Printf.sprintf "row%d,%d\n" i i)) in
  let req =
    Protocol.request ~source:[ ("R", big) ] ~target:[ ("S", big) ] ()
  in
  match discover_once ~port req with
  | Ok (413, Error _) -> ()
  | Ok (s, _) -> Alcotest.failf "expected 413, got %d" s
  | Error m -> Alcotest.failf "transport error: %s" m

let test_backpressure_and_deadline () =
  (* One worker, a one-slot queue, a 600ms deadline. Occupy the worker
     with a search that cannot finish, fill the queue with a second,
     and the third must be refused immediately with 429. The first two
     come back as deadline timeouts — exercising the cooperative
     cancellation path end to end. *)
  with_daemon ~workers:1 ~queue_capacity:1 ~timeout_ms:600 @@ fun t agg ->
  let port = Daemon.port t in
  let slow i =
    let source, target = slow_pair i in
    Protocol.request ~source ~target ~budget:100_000_000 ()
  in
  let results = Array.make 2 (Error "not run") in
  let spawn idx i =
    Thread.create (fun () -> results.(idx) <- discover_once ~port (slow i)) ()
  in
  let t1 = spawn 0 1 in
  Thread.delay 0.15;
  let t2 = spawn 1 10 in
  Thread.delay 0.15;
  (match discover_once ~port (slow 20) with
  | Ok (429, Error _) -> ()
  | Ok (s, _) -> Alcotest.failf "expected 429, got %d" s
  | Error m -> Alcotest.failf "transport error: %s" m);
  Thread.join t1;
  Thread.join t2;
  ignore (check_outcome "first slow request" "timeout" results.(0));
  ignore (check_outcome "second slow request" "timeout" results.(1));
  Alcotest.(check int)
    "429 counted" 1
    (Telemetry.Agg.counter agg "server.reject.busy");
  Alcotest.(check int)
    "timeouts counted" 2
    (Telemetry.Agg.counter agg "server.response.timeout");
  ignore t

let stats_counter stats path =
  (* path like ["cache"; "hits"] into the /stats JSON *)
  let rec go j = function
    | [] -> (
        match j with
        | Json.Num n -> int_of_float n
        | _ -> Alcotest.fail "stats leaf is not a number")
    | k :: rest -> (
        match Json.member k j with
        | Some j' -> go j' rest
        | None -> Alcotest.failf "stats key %s missing" k)
  in
  go stats path

(* A rename pair whose request body exceeds the 64 KiB on-loop parse
   bound, so it takes the ship-to-the-pool path; long values pad the
   body while the instance stays small enough for the search. *)
let big_rename_request ?(fill = 'x') () =
  let pad = String.make 400 fill in
  let rows =
    String.concat ""
      (List.init 200 (fun i -> Printf.sprintf "row%04d%s,%d\n" i pad i))
  in
  let csv = "name,id\n" ^ rows in
  Protocol.request ~source:[ ("R", csv) ] ~target:[ ("S", csv) ] ()

(* Regression: a SIGTERM sent as soon as the server announces itself
   must drain it, not kill the process. [run] installs its handlers
   before [on_ready] fires, so a signal raised from inside the callback
   takes the clean-stop path and [run] returns. *)
let test_run_sigterm_from_on_ready () =
  let config =
    Daemon.config ~port:0 ~workers:1 ~queue_capacity:4 ~search_telemetry:false
      ()
  in
  let ready = ref false in
  Daemon.run config ~on_ready:(fun t ->
      ready := Daemon.port t > 0;
      Unix.kill (Unix.getpid ()) Sys.sigterm);
  Alcotest.(check bool) "on_ready saw a bound port, run returned" true !ready

(* A process-directed SIGTERM may land on any thread of the server —
   the reactor, a worker, or the one waiting for a stop. Whichever it
   is, every [run] must drain and return. *)
let test_run_sigterm_stress () =
  let config =
    Daemon.config ~port:0 ~workers:1 ~queue_capacity:4 ~search_telemetry:false
      ()
  in
  for _ = 1 to 200 do
    Daemon.run config ~on_ready:(fun _ -> Unix.kill (Unix.getpid ()) Sys.sigterm)
  done

let test_graceful_drain () =
  let agg = Telemetry.Agg.create () in
  let config =
    Daemon.config ~port:0 ~workers:1 ~queue_capacity:4 ~timeout_ms:500
      ~search_telemetry:false ~trace_sink:(Telemetry.Agg.sink agg) ()
  in
  let t = Daemon.start config in
  let port = Daemon.port t in
  let source, target = slow_pair 1 in
  let req = Protocol.request ~source ~target ~budget:100_000_000 () in
  let result = ref (Error "not run") in
  let client = Thread.create (fun () -> result := discover_once ~port req) () in
  Thread.delay 0.15;
  (* Shutdown must wait for the in-flight request, not drop it. *)
  Daemon.stop t;
  Thread.join client;
  (* The drain answers the in-flight request rather than dropping it;
     its search is cancelled by the shutdown flag (gave_up) unless the
     deadline happened to fire first. *)
  (match !result with
  | Ok (200, Ok resp)
    when resp.Protocol.outcome = "gave_up"
         || resp.Protocol.outcome = "timeout" ->
      ()
  | Ok (s, _) -> Alcotest.failf "drained request: HTTP %d" s
  | Error m -> Alcotest.failf "drained request: %s" m);
  (* ... and the listener is really gone. *)
  match Client.once ~host:"127.0.0.1" ~port ~meth:"GET" ~path:"/healthz" () with
  | Error _ -> ()
  | Ok (s, _) -> Alcotest.failf "server still answering (%d) after stop" s

(* --- reactor-level behaviour: raw sockets against the live daemon --- *)

let raw_connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let send_all fd s =
  let len = String.length s in
  let rec go off =
    if off < len then
      let n = Unix.write_substring fd s off (len - off) in
      go (off + n)
  in
  go 0

let discover_body () =
  let source, target = rename_pair () in
  Json.to_string (Protocol.encode_request (Protocol.request ~source ~target ()))

let post_discover body =
  Printf.sprintf
    "POST /discover HTTP/1.1\r\nhost: t\r\ncontent-type: \
     application/json\r\ncontent-length: %d\r\n\r\n%s"
    (String.length body) body

let decoded_response body =
  match Json.parse body with
  | Error m -> Alcotest.failf "response is not JSON: %s" m
  | Ok json -> (
      match Protocol.decode_response json with
      | Error m -> Alcotest.failf "response does not decode: %s" m
      | Ok resp -> resp)

let test_pipelined_requests () =
  with_daemon @@ fun t _agg ->
  let port = Daemon.port t in
  let source, target = rename_pair () in
  ignore
    (check_outcome "warm-up" "mapping"
       (discover_once ~port (Protocol.request ~source ~target ())));
  (* Three requests in one write, no reads in between: the reactor must
     answer all of them, in order, on the one connection. The middle one
     is a discover that hits the warmed cache — served on the loop, the
     pipelined /stats behind it not blocked by any search. *)
  let burst =
    "GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n"
    ^ post_discover (discover_body ())
    ^ "GET /stats HTTP/1.1\r\nhost: t\r\n\r\n"
  in
  let fd = raw_connect port in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      send_all fd burst;
      let reader = Http.Reader.of_fd fd in
      let s1, _, b1 = Http.read_response reader in
      let s2, _, b2 = Http.read_response reader in
      let s3, _, b3 = Http.read_response reader in
      Alcotest.(check (list int)) "three 200s in order" [ 200; 200; 200 ]
        [ s1; s2; s3 ];
      Alcotest.(check bool) "first is healthz" true
        (String.length b1 > 0);
      let resp = decoded_response b2 in
      Alcotest.(check string) "pipelined discover hits" "hit"
        resp.Protocol.cache;
      match Json.parse b3 with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "stats is not JSON: %s" m)

let test_byte_split_discover () =
  with_daemon @@ fun t _agg ->
  let port = Daemon.port t in
  let source, target = rename_pair () in
  ignore
    (check_outcome "warm-up" "mapping"
       (discover_once ~port (Protocol.request ~source ~target ())));
  (* The whole request dribbled one byte per write: the incremental
     parser must reassemble it across arbitrarily many readiness
     events and still serve the cache hit. *)
  let wire = post_discover (discover_body ()) in
  let fd = raw_connect port in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      String.iter
        (fun ch -> send_all fd (String.make 1 ch))
        wire;
      let reader = Http.Reader.of_fd fd in
      let status, _, body = Http.read_response reader in
      Alcotest.(check int) "byte-split discover answers 200" 200 status;
      let resp = decoded_response body in
      Alcotest.(check string) "and hits the cache" "hit" resp.Protocol.cache)

let test_slow_loris_read_deadline () =
  with_daemon ~read_timeout_ms:200 @@ fun t agg ->
  let port = Daemon.port t in
  let fd = raw_connect port in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      (* a partial request line, then silence: the read deadline must
         fire, answer 408 and close — not hold the connection open *)
      send_all fd "GET /heal";
      let reader = Http.Reader.of_fd fd in
      let status, _, _ = Http.read_response reader in
      Alcotest.(check int) "partial header answers 408" 408 status;
      (* ... and the server closed its end afterwards *)
      let buf = Bytes.create 1 in
      Alcotest.(check int)
        "connection closed after 408" 0
        (Unix.read fd buf 0 1);
      Alcotest.(check int)
        "read timeout counted" 1
        (Telemetry.Agg.counter agg "server.reject.timeout");
      ignore t)

let test_connection_reuse_after_4xx () =
  with_daemon @@ fun t _agg ->
  let port = Daemon.port t in
  let source, target = rename_pair () in
  ignore
    (check_outcome "warm-up" "mapping"
       (discover_once ~port (Protocol.request ~source ~target ())));
  let conn = Client.connect ~host:"127.0.0.1" ~port in
  Fun.protect
    ~finally:(fun () -> Client.close conn)
    (fun () ->
      (* 404 then 400 are request-level errors, not connection-level:
         the same connection keeps serving afterwards *)
      (match Client.request conn ~meth:"GET" ~path:"/nope" () with
      | Ok (404, _) -> ()
      | _ -> Alcotest.fail "expected 404");
      (match
         Client.request conn ~meth:"POST" ~path:"/discover"
           ~body:"{\"not\":" ()
       with
      | Ok (400, _) -> ()
      | _ -> Alcotest.fail "expected 400");
      (match Client.request conn ~meth:"GET" ~path:"/healthz" () with
      | Ok (200, _) -> ()
      | _ -> Alcotest.fail "healthz after 4xx must still answer");
      match Client.discover conn (Protocol.request ~source ~target ()) with
      | Ok (200, Ok resp) ->
          Alcotest.(check string) "discover after 4xx hits" "hit"
            resp.Protocol.cache
      | _ -> Alcotest.fail "discover after 4xx must still answer")

let test_big_body_offloaded () =
  with_daemon @@ fun t _agg ->
  let port = Daemon.port t in
  (* JSON parsing, admission and the cache probe all happen on a
     worker for a body over the on-loop bound *)
  let req = big_rename_request () in
  let body = Json.to_string (Protocol.encode_request req) in
  Alcotest.(check bool)
    "body actually exceeds the on-loop bound" true
    (String.length body > 64 * 1024);
  let first = check_outcome "big miss" "mapping" (discover_once ~port req) in
  Alcotest.(check string) "first is a miss" "miss" first.Protocol.cache;
  let second = check_outcome "big hit" "mapping" (discover_once ~port req) in
  Alcotest.(check string)
    "repeat is a cache hit through the pool" "hit" second.Protocol.cache

let test_duplicate_relation_rejected () =
  with_daemon @@ fun t agg ->
  let port = Daemon.port t in
  let source, target = rename_pair () in
  (* a side that names one relation twice is refused with a 400 naming
     it, on the loop and through the pool alike, and probes nothing *)
  let twice side = side @ [ (fst (List.hd side), "name,id\ncarol,3\n") ] in
  let big = big_rename_request () in
  List.iter
    (fun (what, req, expected) ->
      match discover_once ~port req with
      | Ok (400, Error body) ->
          Alcotest.(check string) what (Protocol.error_body expected) body
      | Ok (s, _) -> Alcotest.failf "%s: expected 400, got %d" what s
      | Error m -> Alcotest.failf "%s: %s" what m)
    [
      ( "source",
        Protocol.request ~source:(twice source) ~target (),
        {|source relation "R": duplicate relation name|} );
      ( "target",
        Protocol.request ~source ~target:(twice target) (),
        {|target relation "S": duplicate relation name|} );
      ( "oversized",
        { big with Protocol.target = twice big.Protocol.target },
        {|target relation "S": duplicate relation name|} );
    ];
  Alcotest.(check int) "counted as bad requests" 3
    (Telemetry.Agg.counter agg "server.reject.bad_request");
  Alcotest.(check int) "no cache probe" 0
    (Telemetry.Agg.counter agg "cache.miss" + Telemetry.Agg.counter agg "cache.hit")

(* --- anytime streaming e2e --- *)

(* A two-relation rename workload: each relation needs its own ρ-rel
   step and the rows are disjoint, so the value-compatibility prune
   leaves exactly one rename per relation. Greedy solves it in a
   handful of states — a budget of 2 starves the first leg after the
   root and one improvement, leaving a resumable frontier. *)
let two_rename_pair () =
  ( [ ("R1", "name,id\nalice,1\nbob,2\n"); ("R2", "word,n\ncarol,3\ndave,4\n") ],
    [ ("S1", "name,id\nalice,1\nbob,2\n"); ("S2", "word,n\ncarol,3\ndave,4\n") ] )

let starved_request () =
  let source, target = two_rename_pair () in
  Protocol.request ~algorithm:"greedy" ~budget:2 ~source ~target ()

let anytime_once conn req =
  let frames = ref [] in
  let on_frame = function
    | Protocol.F_incumbent i -> frames := i :: !frames
    | _ -> ()
  in
  match Client.discover_anytime conn ~on_frame req with
  | Ok (200, Ok resp) -> (resp, List.rev !frames)
  | Ok (s, Error body) -> Alcotest.failf "anytime: HTTP %d: %s" s body
  | Ok (_, Ok _) -> Alcotest.fail "anytime: 200 without a final frame"
  | Error m -> Alcotest.failf "anytime: transport error: %s" m

let resume_once conn token =
  let frames = ref 0 in
  let on_frame = function
    | Protocol.F_incumbent _ -> incr frames
    | _ -> ()
  in
  (Client.discover_resume conn ~on_frame token, !frames)

let test_stats_reconcile_with_trace () =
  with_daemon @@ fun t agg ->
  let port = Daemon.port t in
  let source, target = rename_pair () in
  let req = Protocol.request ~source ~target () in
  ignore (check_outcome "miss" "mapping" (discover_once ~port req));
  ignore (check_outcome "hit" "mapping" (discover_once ~port req));
  (match Client.once ~host:"127.0.0.1" ~port ~meth:"GET" ~path:"/healthz" () with
  | Ok (200, _) -> ()
  | _ -> Alcotest.fail "healthz");
  (* a miss then a hit on every other route to the one probe: oversized
     bodies (admitted by a worker), anytime bodies on the loop, and
     oversized anytime bodies *)
  let big = big_rename_request () in
  ignore (check_outcome "oversized miss" "mapping" (discover_once ~port big));
  ignore (check_outcome "oversized hit" "mapping" (discover_once ~port big));
  let conn = Client.connect ~host:"127.0.0.1" ~port in
  Fun.protect ~finally:(fun () -> Client.close conn) (fun () ->
      let source, target = rename_pair ~suffix:"carol,3\n" () in
      let anytime = Protocol.request ~source ~target () in
      let big_anytime = big_rename_request ~fill:'y' () in
      (* a miss may be served warm from a near-miss entry *)
      List.iter
        (fun (what, req, hit) ->
          let resp, _ = anytime_once conn req in
          Alcotest.(check bool) what hit (resp.Protocol.cache = "hit"))
        [
          ("anytime miss", anytime, false);
          ("anytime hit", anytime, true);
          ("oversized anytime miss", big_anytime, false);
          ("oversized anytime hit", big_anytime, true);
        ]);
  let stats =
    match Json.parse (Daemon.stats_json t) with
    | Ok j -> j
    | Error m -> Alcotest.failf "stats: %s" m
  in
  let check path event =
    Alcotest.(check int)
      (String.concat "." path)
      (Telemetry.Agg.counter agg event)
      (stats_counter stats path)
  in
  check [ "requests"; "discover" ] "server.request.discover";
  check [ "requests"; "healthz" ] "server.request.healthz";
  check [ "responses"; "mapping" ] "server.response.mapping";
  check [ "cache"; "hits" ] "cache.hit";
  check [ "cache"; "misses" ] "cache.miss";
  check [ "cache"; "warms" ] "cache.warm";
  check [ "search"; "states_examined" ] "server.states_examined";
  Alcotest.(check int) "eight discovers" 8
    (stats_counter stats [ "requests"; "discover" ]);
  (* the ledger: each request probed the cache exactly once *)
  Alcotest.(check int) "four cache hits" 4
    (stats_counter stats [ "cache"; "hits" ]);
  Alcotest.(check int) "four cache misses, none probed twice" 4
    (stats_counter stats [ "cache"; "misses" ])

let test_anytime_streams_and_resume_completes () =
  with_daemon @@ fun t agg ->
  let port = Daemon.port t in
  let conn = Client.connect ~host:"127.0.0.1" ~port in
  Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
  let resp, frames = anytime_once conn (starved_request ()) in
  Alcotest.(check string) "budget-starved leg gives up" "gave_up"
    resp.Protocol.outcome;
  Alcotest.(check bool)
    (Printf.sprintf "at least two incumbents streamed (%d)"
       (List.length frames))
    true
    (List.length frames >= 2);
  Alcotest.(check int) "final frame counts the stream"
    (List.length frames) resp.Protocol.incumbents;
  (* the stream improves: coverage never regresses and strictly grows *)
  let coverages = List.map (fun i -> i.Protocol.i_covered) frames in
  let rec nondecreasing = function
    | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "coverage nondecreasing" true (nondecreasing coverages);
  Alcotest.(check bool) "coverage strictly improves" true
    (List.nth coverages (List.length coverages - 1) > List.hd coverages);
  List.iter
    (fun i ->
      Alcotest.(check bool) "frame carries a program" true
        (String.length i.Protocol.i_expr > 0))
    frames;
  let token =
    match resp.Protocol.resume_token with
    | Some tok -> tok
    | None -> Alcotest.fail "gave up without a resume token"
  in
  (* Redeem tokens until the continued search completes: each leg gets
     the same 3-state budget, so a few hops are expected. *)
  let rec redeem token legs =
    if legs > 20 then Alcotest.fail "resume did not converge in 20 legs"
    else
      match resume_once conn token with
      | Ok (200, Ok resp), _ -> (
          Alcotest.(check string) "resumed leg is served from the frontier"
            "resume" resp.Protocol.cache;
          match (resp.Protocol.outcome, resp.Protocol.resume_token) with
          | "mapping", _ -> (resp, legs)
          | "gave_up", Some token' -> redeem token' (legs + 1)
          | "gave_up", None -> Alcotest.fail "gave up without a fresh token"
          | o, _ -> Alcotest.failf "resumed leg: %s" o)
      | Ok (s, Error body), _ -> Alcotest.failf "resume: HTTP %d: %s" s body
      | Ok (_, Ok _), _ -> Alcotest.fail "resume: unexpected"
      | Error m, _ -> Alcotest.failf "resume: transport error: %s" m
  in
  let final, legs = redeem token 1 in
  Alcotest.(check bool) "resumed search found the mapping" true
    (final.Protocol.mapping <> None);
  Alcotest.(check int) "every leg resumed a retained frontier" legs
    (Telemetry.Agg.counter agg "frontier.resumed");
  Alcotest.(check int) "resume requests counted" legs
    (Telemetry.Agg.counter agg "server.request.resume");
  Alcotest.(check bool) "incumbents counted in the trace" true
    (Telemetry.Agg.counter agg "server.incumbents" >= List.length frames)

let test_anytime_cache_hit_is_single_final () =
  with_daemon @@ fun t _agg ->
  let port = Daemon.port t in
  let source, target = rename_pair () in
  ignore
    (check_outcome "warm-up" "mapping"
       (discover_once ~port (Protocol.request ~source ~target ())));
  let conn = Client.connect ~host:"127.0.0.1" ~port in
  Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
  let resp, frames =
    anytime_once conn (Protocol.request ~source ~target ())
  in
  Alcotest.(check string) "served from the cache" "hit" resp.Protocol.cache;
  Alcotest.(check string) "outcome" "mapping" resp.Protocol.outcome;
  Alcotest.(check int) "no incumbent frames on a hit" 0 (List.length frames)

let test_resume_token_unknown_and_single_use () =
  with_daemon @@ fun t agg ->
  let port = Daemon.port t in
  let conn = Client.connect ~host:"127.0.0.1" ~port in
  Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
  (* a token the server never issued *)
  (match resume_once conn "feedfacefeedfacefeedface" with
  | Ok (404, Error _), _ -> ()
  | Ok (s, _), _ -> Alcotest.failf "unknown token: expected 404, got %d" s
  | Error m, _ -> Alcotest.failf "unknown token: %s" m);
  let resp, _ = anytime_once conn (starved_request ()) in
  let token = Option.get resp.Protocol.resume_token in
  (* first redemption consumes the token ... *)
  (match resume_once conn token with
  | Ok (200, Ok _), _ -> ()
  | Ok (s, _), _ -> Alcotest.failf "first redeem: HTTP %d" s
  | Error m, _ -> Alcotest.failf "first redeem: %s" m);
  (* ... so a replay of the same token must miss *)
  (match resume_once conn token with
  | Ok (404, Error _), _ -> ()
  | Ok (s, _), _ -> Alcotest.failf "replayed token: expected 404, got %d" s
  | Error m, _ -> Alcotest.failf "replayed token: %s" m);
  Alcotest.(check int) "two misses counted" 2
    (Telemetry.Agg.counter agg "frontier.miss")

(* Fetch /stats over HTTP rather than calling [Daemon.stats_json]
   directly: the frontier store lives on the reactor thread, and the
   GET handler sweeps expired checkpoints before snapshotting. *)
let anytime_stats ~port =
  match Client.once ~host:"127.0.0.1" ~port ~meth:"GET" ~path:"/stats" () with
  | Ok (200, body) -> (
      match Json.parse body with
      | Ok j -> j
      | Error m -> Alcotest.failf "stats: %s" m)
  | Ok (s, _) -> Alcotest.failf "stats: HTTP %d" s
  | Error m -> Alcotest.failf "stats: %s" m

let test_frontier_ttl_eviction () =
  with_daemon ~frontier_ttl_ms:60 @@ fun t agg ->
  let port = Daemon.port t in
  let conn = Client.connect ~host:"127.0.0.1" ~port in
  Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
  let resp, _ = anytime_once conn (starved_request ()) in
  let token = Option.get resp.Protocol.resume_token in
  Thread.delay 0.3;
  (* the /stats sweep reaps the expired checkpoint *)
  let stats = anytime_stats ~port in
  Alcotest.(check int) "expired frontier swept" 0
    (stats_counter stats [ "anytime"; "frontier"; "size" ]);
  Alcotest.(check int) "ttl eviction counted" 1
    (stats_counter stats [ "anytime"; "frontier"; "evictions_ttl" ]);
  (match resume_once conn token with
  | Ok (404, Error _), _ -> ()
  | Ok (s, _), _ -> Alcotest.failf "expired token: expected 404, got %d" s
  | Error m, _ -> Alcotest.failf "expired token: %s" m);
  (* retention ledger reconciles: retained = live + resumed + evicted *)
  let c = Telemetry.Agg.counter agg in
  Alcotest.(check int) "retention reconciles"
    (c "frontier.retained")
    (c "frontier.resumed" + c "frontier.evict.ttl" + c "frontier.evict.lru")

let test_frontier_capacity_lru () =
  with_daemon ~frontier_capacity:1 @@ fun t _agg ->
  let port = Daemon.port t in
  let conn = Client.connect ~host:"127.0.0.1" ~port in
  Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
  let first, _ = anytime_once conn (starved_request ()) in
  let t1 = Option.get first.Protocol.resume_token in
  (* a second starved pair displaces the first checkpoint *)
  let source, target =
    ( [ ("A1", "x,y\none,1\ntwo,2\n"); ("A2", "p,q\nsix,6\nten,9\n") ],
      [ ("B1", "x,y\none,1\ntwo,2\n"); ("B2", "p,q\nsix,6\nten,9\n") ] )
  in
  let second, _ =
    anytime_once conn
      (Protocol.request ~algorithm:"greedy" ~budget:2 ~source ~target ())
  in
  let t2 = Option.get second.Protocol.resume_token in
  let stats = anytime_stats ~port in
  Alcotest.(check int) "capacity bounds retention" 1
    (stats_counter stats [ "anytime"; "frontier"; "size" ]);
  Alcotest.(check int) "lru eviction counted" 1
    (stats_counter stats [ "anytime"; "frontier"; "evictions_lru" ]);
  (match resume_once conn t1 with
  | Ok (404, Error _), _ -> ()
  | Ok (s, _), _ -> Alcotest.failf "evicted token: expected 404, got %d" s
  | Error m, _ -> Alcotest.failf "evicted token: %s" m);
  match resume_once conn t2 with
  | Ok (200, Ok _), _ -> ()
  | Ok (s, _), _ -> Alcotest.failf "retained token: HTTP %d" s
  | Error m, _ -> Alcotest.failf "retained token: %s" m

(* One worker and a one-slot queue, both held by slow searches: a
   resume is refused with 429, and its checkpoint stays retained under
   the same token, so the retry after the queue drains completes. *)
let test_refused_resume_keeps_checkpoint () =
  with_daemon ~workers:1 ~queue_capacity:1 ~timeout_ms:600 @@ fun t _agg ->
  let port = Daemon.port t in
  let conn = Client.connect ~host:"127.0.0.1" ~port in
  Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
  let resp, _ = anytime_once conn (starved_request ()) in
  let token = Option.get resp.Protocol.resume_token in
  let slow i =
    let source, target = slow_pair i in
    Protocol.request ~source ~target ~budget:100_000_000 ()
  in
  let spawn i =
    Thread.create (fun () -> ignore (discover_once ~port (slow i))) ()
  in
  let t1 = spawn 1 in
  Thread.delay 0.15;
  let t2 = spawn 10 in
  Thread.delay 0.15;
  (match resume_once conn token with
  | Ok (429, Error _), _ -> ()
  | Ok (s, _), _ -> Alcotest.failf "busy resume: expected 429, got %d" s
  | Error m, _ -> Alcotest.failf "busy resume: %s" m);
  Thread.join t1;
  Thread.join t2;
  (match resume_once conn token with
  | Ok (200, Ok _), _ -> ()
  | Ok (s, _), _ -> Alcotest.failf "retried resume: HTTP %d" s
  | Error m, _ -> Alcotest.failf "retried resume: %s" m);
  let stats = anytime_stats ~port in
  let frontier k = stats_counter stats [ "anytime"; "frontier"; k ] in
  Alcotest.(check int) "429 counted" 1
    (stats_counter stats [ "rejected"; "busy" ]);
  Alcotest.(check int) "retention reconciles" (frontier "retained")
    (frontier "size" + frontier "resumed" + frontier "evictions_ttl"
   + frontier "evictions_lru")

let test_anytime_rejects_bad_requests () =
  with_daemon @@ fun t _agg ->
  let port = Daemon.port t in
  let conn = Client.connect ~host:"127.0.0.1" ~port in
  Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
  (* malformed JSON on the anytime route still answers a plain 400 *)
  (match
     Client.request conn ~meth:"POST" ~path:"/discover?anytime=1"
       ~body:"not json" ()
   with
  | Ok (400, _) -> ()
  | Ok (s, _) -> Alcotest.failf "bad JSON: expected 400, got %d" s
  | Error m -> Alcotest.failf "bad JSON: %s" m);
  (* a partial goal naming a phantom relation is refused up front *)
  let source, target = rename_pair () in
  let req = Protocol.request ~partial:[ "nope" ] ~source ~target () in
  match Client.discover_anytime conn req with
  | Ok (400, Error body) ->
      Alcotest.(check bool) "names the phantom relation" true
        (let re = "nope" in
         let len = String.length body and rlen = String.length re in
         let rec find i =
           i + rlen <= len && (String.sub body i rlen = re || find (i + 1))
         in
         find 0)
  | Ok (s, _) -> Alcotest.failf "phantom partial: expected 400, got %d" s
  | Error m -> Alcotest.failf "phantom partial: %s" m

(* --- who pays for search telemetry --- *)

(* Fig. 1's B -> A restructuring over 8 carriers and 3 routes, with
   every name and string value tagged, so each tag is a fresh cold
   pair: no cache hit, no warm start, and a search of a few hundred
   states (489, as perfbench's serve-cold pair). *)
let tagged_fig1_pair tag =
  let t s = tag ^ s in
  let carriers = List.init 8 Fun.id and routes = List.init 3 Fun.id in
  let carrier c = Printf.sprintf "%sC%d" tag c in
  let route r = Printf.sprintf "%sR%d" tag r in
  let cost c r = string_of_int ((100 * (c + 1)) + (10 * r)) in
  let fee c = string_of_int (15 + c) in
  let csv header rows =
    String.concat "\n" (List.map (String.concat ",") (header :: rows)) ^ "\n"
  in
  ( [
      ( t "Prices",
        csv
          [ t "Carrier"; t "Route"; t "Cost"; t "AgentFee" ]
          (List.concat_map
             (fun c ->
               List.map (fun r -> [ carrier c; route r; cost c r; fee c ]) routes)
             carriers) );
    ],
    [
      ( t "Flights",
        csv
          (t "Carrier" :: t "Fee" :: List.map route routes)
          (List.map
             (fun c -> carrier c :: fee c :: List.map (cost c) routes)
             carriers) );
    ] )

let stats_of t =
  match Json.parse (Daemon.stats_json t) with
  | Ok j -> j
  | Error m -> Alcotest.failf "stats: %s" m

(* /stats reads no search event, so a server without a trace sink must
   emit none: one cold discovery adds only its handful of server-level
   events to the internal aggregate, not the per-state stream (thousands
   of events). *)
let test_no_sink_no_search_events () =
  let t = Daemon.start (Daemon.config ~port:0 ~workers:1 ()) in
  Fun.protect ~finally:(fun () -> Daemon.stop t) @@ fun () ->
  let port = Daemon.port t in
  let events () = stats_counter (stats_of t) [ "telemetry"; "events" ] in
  let before = events () in
  let source, target = tagged_fig1_pair "nosink_" in
  let resp =
    check_outcome "cold pair" "mapping"
      (discover_once ~port (Protocol.request ~source ~target ()))
  in
  Alcotest.(check string) "a cold search" "miss" resp.Protocol.cache;
  Alcotest.(check int) "the search examined states" 489
    resp.Protocol.states_examined;
  let grown = events () - before in
  if grown >= 32 then
    Alcotest.failf "telemetry.events grew by %d for one cold request" grown

(* /stats [gc] holds the runtime's gauges. Its counters cannot fall
   while a cold request runs; [heap_words] is a size, which falls when a
   major cycle frees pools, so it need only be positive. *)
let test_stats_gc_gauges () =
  let t = Daemon.start (Daemon.config ~port:0 ~workers:1 ()) in
  Fun.protect ~finally:(fun () -> Daemon.stop t) @@ fun () ->
  let counters =
    [ "minor_collections"; "major_collections"; "promoted_words" ]
  in
  let read () =
    let stats = stats_of t in
    if stats_counter stats [ "gc"; "heap_words" ] <= 0 then
      Alcotest.fail "gc.heap_words is not positive";
    List.map (fun f -> (f, stats_counter stats [ "gc"; f ])) counters
  in
  let before = read () in
  let source, target = tagged_fig1_pair "gauges_" in
  ignore
    (check_outcome "cold pair" "mapping"
       (discover_once ~port:(Daemon.port t) (Protocol.request ~source ~target ())));
  List.iter2
    (fun (f, b) (_, a) ->
      if a < b then Alcotest.failf "gc.%s fell from %d to %d" f b a)
    before (read ())

(* With a sink attached and search telemetry on, the sink still sees the
   whole search stream: its examine counter sums to the response's
   states examined. *)
let test_sink_keeps_search_events () =
  let agg = Telemetry.Agg.create () in
  let t =
    Daemon.start
      (Daemon.config ~port:0 ~workers:1 ~search_telemetry:true
         ~trace_sink:(Telemetry.Agg.sink agg) ())
  in
  Fun.protect ~finally:(fun () -> Daemon.stop t) @@ fun () ->
  let source, target = tagged_fig1_pair "sink_" in
  let resp =
    check_outcome "cold pair" "mapping"
      (discover_once ~port:(Daemon.port t) (Protocol.request ~source ~target ()))
  in
  Alcotest.(check string) "a cold search" "miss" resp.Protocol.cache;
  Alcotest.(check int) "search.examine = states_examined"
    resp.Protocol.states_examined
    (Telemetry.Agg.counter agg "search.examine")

(* A cold pair searched on the plain route and on the anytime route, each
   on a fresh daemon so neither warms the other, must come out the same:
   the stream only adds incumbent frames in front of the answer. Covers
   a body admitted on the loop and one shipped to a worker whole. *)
let test_plain_and_anytime_alike () =
  let source, target = tagged_fig1_pair "alike_" in
  List.iter
    (fun (what, req) ->
      let plain =
        with_daemon @@ fun t _ ->
        check_outcome (what ^ " plain") "mapping"
          (discover_once ~port:(Daemon.port t) req)
      in
      let streamed =
        with_daemon @@ fun t _ ->
        let conn = Client.connect ~host:"127.0.0.1" ~port:(Daemon.port t) in
        Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
        fst (anytime_once conn req)
      in
      let same field f = Alcotest.(check string) (what ^ ": " ^ field) (f plain) (f streamed) in
      same "outcome" (fun r -> r.Protocol.outcome);
      same "mapping" (fun r -> Option.value r.Protocol.mapping ~default:"-");
      same "expr" (fun r -> Option.value r.Protocol.expr ~default:"-");
      Alcotest.(check int) (what ^ ": operators") plain.Protocol.operators
        streamed.Protocol.operators;
      Alcotest.(check int) (what ^ ": states_examined")
        plain.Protocol.states_examined streamed.Protocol.states_examined;
      Alcotest.(check (list string)) (what ^ ": cache labels")
        [ "miss"; "miss" ]
        [ plain.Protocol.cache; streamed.Protocol.cache ])
    [
      ("small", Protocol.request ~source ~target ());
      ("oversized", big_rename_request ());
    ]

(* An oversized body is admitted on a worker, so on the anytime route a
   rejection must still be a plain 400 (no stream header may precede
   it), and a repeat of a good body a content-length cache hit. *)
let test_oversized_anytime_bad_request () =
  with_daemon @@ fun t agg ->
  let port = Daemon.port t in
  let big = big_rename_request () in
  let twice side = side @ [ (fst (List.hd side), "name,id\ncarol,3\n") ] in
  let anytime_raw req =
    let fd = raw_connect port in
    Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
    let body = Json.to_string (Protocol.encode_request req) in
    send_all fd
      (Printf.sprintf
         "POST /discover?anytime=1 HTTP/1.1\r\nhost: t\r\ncontent-length: \
          %d\r\n\r\n%s"
         (String.length body) body);
    Http.read_response (Http.Reader.of_fd fd)
  in
  let status, headers, body =
    anytime_raw { big with Protocol.target = twice big.Protocol.target }
  in
  Alcotest.(check int) "bad oversized anytime: status" 400 status;
  Alcotest.(check bool) "not streamed" false (Http.response_chunked headers);
  Alcotest.(check string) "the plain route's error body"
    (Protocol.error_body {|target relation "S": duplicate relation name|})
    body;
  Alcotest.(check int) "counted as a bad request" 1
    (Telemetry.Agg.counter agg "server.reject.bad_request");
  Alcotest.(check int) "no cache probe" 0
    (Telemetry.Agg.counter agg "cache.miss" + Telemetry.Agg.counter agg "cache.hit");
  let conn = Client.connect ~host:"127.0.0.1" ~port in
  let first =
    Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
    fst (anytime_once conn big)
  in
  Alcotest.(check string) "good oversized anytime: a miss" "miss"
    first.Protocol.cache;
  let status, headers, body = anytime_raw big in
  Alcotest.(check int) "repeat: status" 200 status;
  Alcotest.(check bool) "repeat: content-length, not streamed" true
    (List.mem_assoc "content-length" headers
    && not (Http.response_chunked headers));
  Alcotest.(check string) "repeat: a hit" "hit" (decoded_response body).Protocol.cache

let suite =
  [
    Alcotest.test_case "http: parses a simple request" `Quick
      test_parses_simple_request;
    Alcotest.test_case "http: idle close yields None" `Quick
      test_idle_close_is_none;
    Alcotest.test_case "http: malformed request lines raise" `Quick
      test_malformed_request_lines;
    Alcotest.test_case "http: truncated input raises" `Quick
      test_truncated_input;
    Alcotest.test_case "http: body split across reads" `Quick
      test_body_split_across_reads;
    Alcotest.test_case "http: truncated split body raises" `Quick
      test_truncated_body_split_across_reads;
    Alcotest.test_case "http: oversized payload raises" `Quick
      test_payload_too_large;
    Alcotest.test_case "http: response round trip" `Quick
      test_response_round_trip;
    json_round_trip;
    Alcotest.test_case "json: rejects malformed documents" `Quick
      test_json_rejects_garbage;
    request_round_trip;
    response_round_trip;
    Alcotest.test_case "protocol: rejects invalid requests" `Quick
      test_decode_rejects_bad_requests;
    frame_round_trip;
    Alcotest.test_case "protocol: untagged frame rejected" `Quick
      test_frame_rejects_untagged;
    Alcotest.test_case "http: chunked stream split at every byte" `Quick
      test_chunked_response_byte_split;
    Alcotest.test_case "http: truncated chunked body raises" `Quick
      test_chunked_truncated_raises;
    Alcotest.test_case "e2e: routes on one keep-alive connection" `Quick
      test_routes_on_one_connection;
    Alcotest.test_case "e2e: discover, cache hit, perturbation miss" `Quick
      test_discover_and_cache_hit;
    Alcotest.test_case "e2e: goal-mode mismatch bypasses the cache" `Quick
      test_goal_mode_mismatch_is_a_miss;
    Alcotest.test_case "e2e: concurrent keep-alive clients" `Quick
      test_concurrent_keep_alive_clients;
    Alcotest.test_case "e2e: payload limit answers 413" `Quick
      test_payload_limit_e2e;
    Alcotest.test_case "e2e: backpressure 429 and deadline timeouts" `Quick
      test_backpressure_and_deadline;
    Alcotest.test_case "e2e: /stats reconciles with the trace" `Quick
      test_stats_reconcile_with_trace;
    Alcotest.test_case "e2e: graceful drain on stop" `Quick
      test_graceful_drain;
    Alcotest.test_case "e2e: SIGTERM from on_ready drains and run returns"
      `Quick test_run_sigterm_from_on_ready;
    Alcotest.test_case "e2e: pipelined requests answered in order" `Quick
      test_pipelined_requests;
    Alcotest.test_case "e2e: request split at every byte boundary" `Quick
      test_byte_split_discover;
    Alcotest.test_case "e2e: slow-loris partial header answers 408" `Quick
      test_slow_loris_read_deadline;
    Alcotest.test_case "e2e: connection reuse after 4xx" `Quick
      test_connection_reuse_after_4xx;
    Alcotest.test_case "e2e: oversized body served through the pool" `Quick
      test_big_body_offloaded;
    Alcotest.test_case "e2e: anytime streams incumbents, resume completes"
      `Quick test_anytime_streams_and_resume_completes;
    Alcotest.test_case "e2e: anytime cache hit is a single final" `Quick
      test_anytime_cache_hit_is_single_final;
    Alcotest.test_case "e2e: resume tokens are unknown-safe and single-use"
      `Quick test_resume_token_unknown_and_single_use;
    Alcotest.test_case "e2e: frontier TTL eviction reconciles" `Quick
      test_frontier_ttl_eviction;
    Alcotest.test_case "e2e: frontier capacity evicts LRU" `Quick
      test_frontier_capacity_lru;
    Alcotest.test_case "e2e: anytime rejects bad requests up front" `Quick
      test_anytime_rejects_bad_requests;
    json_string_round_trip;
    Alcotest.test_case "json: \\u escapes decode to UTF-8" `Quick
      test_json_unicode_escapes;
    prop_admit_key_oracle;
    Alcotest.test_case "admit: hit-shaped request allocation bound" `Quick
      test_admit_allocation;
    Alcotest.test_case "e2e: duplicate relation names answer 400" `Quick
      test_duplicate_relation_rejected;
    Alcotest.test_case "e2e: 200 runs each drain on SIGTERM" `Quick
      test_run_sigterm_stress;
    Alcotest.test_case "loop hit path: nothing on the major heap" `Quick
      test_loop_hit_path_major_words;
    carve_matches_parse_buffered;
    json_parse_sub_window;
    Alcotest.test_case "e2e: /stats gc counters never fall" `Quick
      test_stats_gc_gauges;
    Alcotest.test_case "e2e: no trace sink, no search events" `Quick
      test_no_sink_no_search_events;
    Alcotest.test_case "e2e: a trace sink sees every examined state" `Quick
      test_sink_keeps_search_events;
    Alcotest.test_case "e2e: a float request is keyed unbuilt, then hits" `Quick
      test_float_request_keyed_and_hit;
    Alcotest.test_case "e2e: plain and anytime serve one cold pair alike" `Quick
      test_plain_and_anytime_alike;
    Alcotest.test_case "e2e: oversized anytime bad request is a 400" `Quick
      test_oversized_anytime_bad_request;
    Alcotest.test_case "e2e: a refused resume keeps its checkpoint" `Quick
      test_refused_resume_keeps_checkpoint;
  ]
