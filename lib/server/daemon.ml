open Relational

type config = {
  host : string;
  port : int;
  queue_capacity : int;
  workers : int;
  jobs : int;
  budget : int;
  timeout_ms : int;
  read_timeout_ms : int;
  max_payload : int;
  cache_capacity : int;
  cache_shards : int;
  frontier_capacity : int;
  frontier_ttl_ms : int;
  search_telemetry : bool;
  trace_sink : Telemetry.Sink.t option;
}

let config ?(host = "127.0.0.1") ?(port = 8080) ?(queue_capacity = 64)
    ?(workers = 2) ?(jobs = 1) ?(budget = 1_000_000) ?(timeout_ms = 30_000)
    ?(read_timeout_ms = 10_000) ?(max_payload = 8 * 1024 * 1024)
    ?(cache_capacity = 256) ?(cache_shards = 8) ?(frontier_capacity = 32)
    ?(frontier_ttl_ms = 300_000) ?(search_telemetry = true) ?trace_sink () =
  let positive what v =
    if v < 1 then
      invalid_arg (Printf.sprintf "Daemon.config: %s must be >= 1" what)
  in
  positive "queue_capacity" queue_capacity;
  positive "workers" workers;
  positive "jobs" jobs;
  positive "budget" budget;
  positive "timeout_ms" timeout_ms;
  positive "read_timeout_ms" read_timeout_ms;
  positive "max_payload" max_payload;
  positive "cache_capacity" cache_capacity;
  positive "cache_shards" cache_shards;
  positive "frontier_capacity" frontier_capacity;
  positive "frontier_ttl_ms" frontier_ttl_ms;
  if port < 0 || port > 65535 then
    invalid_arg "Daemon.config: port must be in [0, 65535]";
  {
    host;
    port;
    queue_capacity;
    workers;
    jobs;
    budget;
    timeout_ms;
    read_timeout_ms;
    max_payload;
    cache_capacity;
    cache_shards;
    frontier_capacity;
    frontier_ttl_ms;
    search_telemetry;
    trace_sink;
  }

(* Bodies up to this size are JSON-parsed and keyed on the event loop
   (so cache hits never queue behind a search); larger ones are shipped
   whole to the worker pool, which does everything off-loop. *)
let loop_parse_max = 64 * 1024

(* --- event names (the /stats contract; see stats_json) --- *)

module Ev = struct
  let req_discover = "server.request.discover"
  let req_resume = "server.request.resume"
  let req_healthz = "server.request.healthz"
  let req_stats = "server.request.stats"
  let req_unknown = "server.request.unknown"
  let incumbents = "server.incumbents"
  let reject_bad = "server.reject.bad_request"
  let reject_payload = "server.reject.payload"
  let reject_busy = "server.reject.busy"
  let reject_shutdown = "server.reject.shutdown"
  let reject_timeout = "server.reject.timeout"
  let resp outcome = "server.response." ^ outcome
  let states = "server.states_examined"
  let span = "server.request"
end

(* --- admission: a request validated and keyed, its databases not yet
   built --- *)

type admitted = {
  p_docs : (string * string) list * (string * string) list;
      (** source, target: (relation name, CSV document) pairs; emptied
          once {!build} has used them *)
  p_registry : Fira.Semfun.registry;
  p_algorithm : Tupelo.Discover.algorithm;
  p_heuristic : Heuristics.Heuristic.t;
  p_goal : Tupelo.Goal.mode;
  p_partial : string list;
  p_budget : int;
  p_jobs : int;
  p_timeout_ms : int;
  p_key : Cache.key;
  p_route : Cache.route;
      (** shard route; the full near-miss sketch is only computed by a
          worker on the miss path, never on the event loop *)
}

(* A missed request with its databases: what a worker searches. *)
type prepared = {
  adm : admitted;
  p_source : Database.t;
  p_target : Database.t;
}

exception Prep of string

let prep_error fmt = Format.kasprintf (fun m -> raise (Prep m)) fmt

(* Every check a request must pass, in the order clients see their
   errors, then its cache key and route, all computed while tokenizing
   the CSV: no relation is built here (see [build]). *)
let admit cfg (r : Protocol.discover_request) =
  match
    let key what rels =
      List.fold_left
        (fun (fp, schemas, docs) (name, csv) ->
          let c =
            try Fingerprint.of_csv ~max_bytes:cfg.max_payload ~rel:name csv
            with Csv.Error m -> prep_error "%s relation %S: %s" what name m
          in
          (try Database.check_name name
           with Database.Error m -> prep_error "%s relation %S: %s" what name m);
          if List.mem_assoc name docs then
            prep_error "%s relation %S: duplicate relation name" what name;
          ( Fingerprint.combine fp c.Fingerprint.term,
            schemas + Fingerprint.hash c.Fingerprint.schema_term,
            (name, csv) :: docs ))
        (Fingerprint.zero, 0, []) rels
    in
    let s_key, s_route, s_docs = key "source" r.Protocol.source in
    let t_key, t_route, t_docs = key "target" r.Protocol.target in
    let p_registry =
      try Fira.Semfun.of_list (Fira.Semfun.decode_annotations r.Protocol.semfuns)
      with Fira.Semfun.Error m -> prep_error "semfuns: %s" m
    in
    let p_algorithm =
      match Tupelo.Discover.algorithm_of_string r.Protocol.algorithm with
      | Some a -> a
      | None -> prep_error "unknown algorithm %S" r.Protocol.algorithm
    in
    let scaling = Tupelo.Discover.scaling_for p_algorithm in
    let p_heuristic =
      match Heuristics.Heuristic.by_name scaling r.Protocol.heuristic with
      | Some h -> h
      | None -> prep_error "unknown heuristic %S" r.Protocol.heuristic
    in
    let p_goal =
      match Tupelo.Goal.mode_of_string r.Protocol.goal with
      | Some g -> g
      | None -> prep_error "unknown goal mode %S" r.Protocol.goal
    in
    List.iter
      (fun rel ->
        if not (List.mem_assoc rel t_docs) then
          prep_error "partial: no target relation %S" rel)
      r.Protocol.partial;
    {
      p_docs = (List.rev s_docs, List.rev t_docs);
      p_registry;
      p_algorithm;
      p_heuristic;
      p_goal;
      p_partial = r.Protocol.partial;
      p_budget = min r.Protocol.budget cfg.budget;
      p_jobs = (if r.Protocol.jobs = 0 then cfg.jobs else r.Protocol.jobs);
      p_timeout_ms =
        Option.value r.Protocol.timeout_ms ~default:cfg.timeout_ms;
      p_key = (s_key, t_key);
      p_route = Cache.route ~source:s_route ~target:t_route;
    }
  with
  | a -> Ok a
  | exception Prep m -> Error m

let admitted_key a = (a.p_key, a.p_route)

(* The databases of an admitted request, built once on a miss by the
   worker that serves it. The key and route are already known, so
   nothing is fingerprinted again. *)
let build (a : admitted) =
  let db docs =
    List.fold_left
      (fun db (name, doc) -> Database.add db name (Csv.parse_relation doc))
      Database.empty docs
  in
  let source, target = a.p_docs in
  {
    adm = { a with p_docs = ([], []) };
    p_source = db source;
    p_target = db target;
  }

(* --- work shipped from the event loop to the domain pool --- *)

(* A parked checkpoint: everything a resume needs to continue the
   search — the validated request plus the engine frontier. *)
type retained = {
  r_prep : prepared;
  r_frontier : Tupelo.Discover.frontier;
}

type task =
  | Admitted of admitted  (** admitted on the loop, cache already missed *)
  | Raw of string  (** oversized body: the worker admits and probes *)
  | Resume of retained  (** redeemed checkpoint: continue the search *)

(* A /discover the loop could not answer itself, on its way to a
   worker. *)
type job = {
  cid : int;
  keep : bool;
  started : float;
  task : task;
  stream : string option;
      (** [Some token] on the anytime and resume routes: the search
          streams its incumbents, and the final frame quotes [token] iff
          it checkpoints a frontier. Drawn at dispatch: the worker quotes
          it before the checkpoint is back on the reactor to be kept. *)
}

(* What a worker hands back to the reactor: one [P_response], or a
   stream of [P_chunk]s ended by exactly one [P_done]. Stream payloads
   are wire bytes, the first of them led by the chunked head. *)
type payload =
  | P_response of Http.response
  | P_chunk of string  (** mid-stream bytes; the request stays in flight *)
  | P_done of {
      d_bytes : string;  (** the final frame's chunk and the zero chunk *)
      d_retain : (string * retained) option;  (** token → checkpoint *)
    }

type completion = { c_cid : int; c_keep : bool; c_payload : payload }

(* --- server state --- *)

type t = {
  cfg : config;
  tel : Telemetry.t;  (** external sink teed with [agg] *)
  agg : Telemetry.Agg.t;
  mapping_cache : Cache_entry.t Cache.t;
  frontiers : retained Frontier.t;  (** reactor-thread only *)
  queue : job Admission.t;
  listen_fd : Unix.file_descr;
  bound_port : int;
  shutdown : bool Atomic.t;
  wake_r : Unix.file_descr;  (** worker → event loop (and stop → loop) *)
  wake_w : Unix.file_descr;
  notify_r : Unix.file_descr;  (** request_stop → await_stop_request *)
  notify_w : Unix.file_descr;
  comp_mu : Mutex.t;
  mutable completions : completion list;  (** newest first *)
  started_at : float;
  mutable loop_thread : Thread.t option;
  mutable worker_domains : unit Domain.t list;
  stop_mu : Mutex.t;
  mutable stopped : bool;
}

let port t = t.bound_port
let cache t = t.mapping_cache

(* --- /stats: every counter below is read from the aggregate that sits
   behind the same tee as the trace sink, so a summed trace reconciles
   exactly with this snapshot (given a quiescent server). --- *)

let stats_json t =
  let c name = Json.Num (float_of_int (Telemetry.Agg.counter t.agg name)) in
  Json.to_string
    (Json.Obj
       [
         ("uptime_s", Json.Num (Unix.gettimeofday () -. t.started_at));
         ( "queue",
           Json.Obj
             [
               ("depth", Json.Num (float_of_int (Admission.depth t.queue)));
               ( "capacity",
                 Json.Num (float_of_int (Admission.capacity t.queue)) );
             ] );
         ( "requests",
           Json.Obj
             [
               ("discover", c Ev.req_discover);
               ("healthz", c Ev.req_healthz);
               ("stats", c Ev.req_stats);
               ("unknown", c Ev.req_unknown);
             ] );
         ( "rejected",
           Json.Obj
             [
               ("bad_request", c Ev.reject_bad);
               ("payload", c Ev.reject_payload);
               ("busy", c Ev.reject_busy);
               ("shutdown", c Ev.reject_shutdown);
               ("timeout", c Ev.reject_timeout);
             ] );
         ( "responses",
           Json.Obj
             [
               ("mapping", c (Ev.resp "mapping"));
               ("no_mapping", c (Ev.resp "no_mapping"));
               ("gave_up", c (Ev.resp "gave_up"));
               ("timeout", c (Ev.resp "timeout"));
             ] );
         ( "cache",
           Json.Obj
             [
               ( "size",
                 Json.Num (float_of_int (Cache.length t.mapping_cache)) );
               ( "capacity",
                 Json.Num (float_of_int (Cache.capacity t.mapping_cache)) );
               ( "shards",
                 Json.Num (float_of_int (Cache.shards t.mapping_cache)) );
               ("hits", c "cache.hit");
               ("misses", c "cache.miss");
               ("warms", c "cache.warm");
               ("evictions", c "cache.evict");
             ] );
         ("search", Json.Obj [ ("states_examined", c Ev.states) ]);
         ( "gc",
           (* Process-wide: every domain's figures as of its last minor
              collection. *)
           let s = Gc.quick_stat () and n i = Json.Num (float_of_int i) in
           Json.Obj
             [
               ("minor_collections", n s.Gc.minor_collections);
               ("major_collections", n s.Gc.major_collections);
               ("promoted_words", Json.Num s.Gc.promoted_words);
               ("heap_words", n s.Gc.heap_words);
             ] );
         ( "telemetry",
           Json.Obj
             [ ("events", Json.Num (float_of_int (Telemetry.Agg.events t.agg))) ]
         );
         ( "anytime",
           Json.Obj
             [
               ("incumbents", c Ev.incumbents);
               ("resume_requests", c Ev.req_resume);
               ( "frontier",
                 Json.Obj
                   [
                     ( "size",
                       Json.Num (float_of_int (Frontier.length t.frontiers))
                     );
                     ( "capacity",
                       Json.Num (float_of_int (Frontier.capacity t.frontiers))
                     );
                     ("retained", c "frontier.retained");
                     ("resumed", c "frontier.resumed");
                     ("misses", c "frontier.miss");
                     ("evictions_ttl", c "frontier.evict.ttl");
                     ("evictions_lru", c "frontier.evict.lru");
                   ] );
             ] );
       ])

(* --- the discovery worker (runs on pool domains) --- *)

let response_of_entry (e : Cache_entry.t) ~elapsed_ms ~cache :
    Protocol.discover_response =
  {
    Protocol.outcome = "mapping";
    mapping = Some e.Cache_entry.mapping;
    expr = Some e.Cache_entry.expr;
    operators = e.Cache_entry.operators;
    res_algorithm = e.Cache_entry.algorithm;
    res_heuristic = e.Cache_entry.heuristic;
    states_examined = e.Cache_entry.states_examined;
    elapsed_ms;
    cache;
    incumbents = 0;
    resume_token = None;
  }

(* Search a missed pair under the request's deadline, then build the
   response, cache a full (non-partial) mapping and bump the outcome
   counters. With [on_incumbent] the search runs with the anytime layer
   on, reports each improving incumbent through it and may hand back a
   checkpoint; without, it is a plain [Discover.discover]. *)
let execute t (p : prepared) ~warm ~sketch ~resume ?on_incumbent started =
  let deadline =
    Unix.gettimeofday () +. (float_of_int p.adm.p_timeout_ms /. 1000.)
  in
  let timed_out = ref false in
  let stop () =
    Atomic.get t.shutdown
    ||
    if Unix.gettimeofday () > deadline then begin
      timed_out := true;
      true
    end
    else false
  in
  (* Search events go out only when a sink will read them: /stats reads
     none of them, so without a trace sink they would only fill [agg]. *)
  let search_tel =
    if t.cfg.search_telemetry && Option.is_some t.cfg.trace_sink then t.tel
    else Telemetry.disabled
  in
  let dconfig =
    Tupelo.Discover.config ~algorithm:p.adm.p_algorithm
      ~heuristic:p.adm.p_heuristic ~goal:p.adm.p_goal ~partial:p.adm.p_partial
      ~budget:p.adm.p_budget ~jobs:p.adm.p_jobs ~telemetry:search_tel ()
  in
  let registry = p.adm.p_registry
  and source = p.p_source
  and target = p.p_target in
  let streamed = ref 0 in
  let outcome, frontier =
    match on_incumbent with
    | None ->
        ( Tupelo.Discover.discover ~registry ~stop ~warm_start:warm dconfig
            ~source ~target,
          None )
    | Some report ->
        let on_incumbent inc =
          incr streamed;
          Telemetry.count t.tel Ev.incumbents 1;
          report inc
        in
        let r =
          Tupelo.Discover.discover_anytime ~registry ~stop ~warm_start:warm
            ~on_incumbent ?resume dconfig ~source ~target
        in
        (r.Tupelo.Discover.a_outcome, r.Tupelo.Discover.a_frontier)
  in
  let elapsed_ms = (Unix.gettimeofday () -. started) *. 1000. in
  (* "warm" when a near-miss cache entry seeded the search, "miss" for a
     cold search — whatever the outcome, so clients can attribute cost. *)
  let cache_label =
    if resume <> None then "resume" else if warm = [] then "miss" else "warm"
  in
  let resp =
    match outcome with
    | Tupelo.Discover.Mapping m ->
        let entry =
          {
            Cache_entry.mapping = Fira.Expr.to_string m.Tupelo.Mapping.expr;
            expr = Fira.Parser.expr_to_file_string m.Tupelo.Mapping.expr;
            operators = Tupelo.Mapping.length m;
            algorithm = m.Tupelo.Mapping.algorithm;
            heuristic = m.Tupelo.Mapping.heuristic;
            goal = p.adm.p_goal;
            states_examined =
              m.Tupelo.Mapping.stats.Search.Space.examined;
          }
        in
        (* A partial-goal mapping reaches a sub-target: never cache it
           as the pair's mapping. *)
        if p.adm.p_partial = [] then
          Cache.add t.mapping_cache ~sketch p.adm.p_key entry;
        response_of_entry entry ~elapsed_ms ~cache:cache_label
    | Tupelo.Discover.No_mapping stats | Tupelo.Discover.Gave_up stats ->
        let outcome_name =
          match outcome with
          | Tupelo.Discover.No_mapping _ -> "no_mapping"
          | _ -> if !timed_out then "timeout" else "gave_up"
        in
        {
          Protocol.outcome = outcome_name;
          mapping = None;
          expr = None;
          operators = 0;
          res_algorithm =
            Tupelo.Discover.algorithm_name p.adm.p_algorithm;
          res_heuristic = p.adm.p_heuristic.Heuristics.Heuristic.name;
          states_examined = stats.Search.Space.examined;
          elapsed_ms;
          cache = cache_label;
          incumbents = 0;
          resume_token = None;
        }
  in
  Telemetry.count t.tel (Ev.resp resp.Protocol.outcome) 1;
  Telemetry.count t.tel Ev.states resp.Protocol.states_examined;
  ({ resp with Protocol.incumbents = !streamed }, frontier)

(* The program of the closest near-miss cache entry, to seed a search
   with. Entries whose saved expression fails to parse (impossible for
   entries this server wrote, but the label is client-visible) fall back
   to a cold search. *)
let warm_start t (p : prepared) sketch =
  let goal_matches e = e.Cache_entry.goal = p.adm.p_goal in
  match
    Cache.find_near t.mapping_cache ~valid:goal_matches ~max_dist:1.0 sketch
  with
  | None -> []
  | Some (entry, _dist) -> (
      match Fira.Parser.expr_of_string entry.Cache_entry.expr with
      | Ok e -> Fira.Algebra.normalize (Fira.Expr.ops e)
      | Error _ -> [])

let error_response exn started =
  {
    Protocol.outcome = "gave_up";
    mapping = None;
    expr = None;
    operators = 0;
    res_algorithm = "error";
    res_heuristic = Printexc.to_string exn;
    states_examined = 0;
    elapsed_ms = (Unix.gettimeofday () -. started) *. 1000.;
    cache = "miss";
    incumbents = 0;
    resume_token = None;
  }

let encode_discover resp =
  Http.response 200 (Json.to_string (Protocol.encode_response resp))

(* --- the one way a /discover body becomes an answer or a search --- *)

type probe =
  | Rejected of string  (** 400, already counted *)
  | Hit of Cache_entry.t
  | Miss of admitted

(* JSON, decode, admit, then the one cache probe. The loop runs it on
   small bodies and a worker on oversized ones; either way a request
   counts exactly one [cache.hit] or [cache.miss], except a partial-goal
   request, which the cache can neither answer nor learn from and which
   therefore never probes. *)
let probe_sub t body ~off ~len =
  match
    Result.bind (Json.parse_sub body ~off ~len) (fun json ->
        Result.bind (Protocol.decode_request json) (admit t.cfg))
  with
  | Error m ->
      Telemetry.count t.tel Ev.reject_bad 1;
      Rejected m
  | Ok a when a.p_partial <> [] -> Miss a
  | Ok a -> (
      let goal_matches e = e.Cache_entry.goal = a.p_goal in
      match
        Cache.find t.mapping_cache ~valid:goal_matches ~route:a.p_route
          a.p_key
      with
      | Some entry -> Hit entry
      | None -> Miss a)

let hit_response t entry started =
  let elapsed_ms = (Unix.gettimeofday () -. started) *. 1000. in
  Telemetry.count t.tel (Ev.resp "mapping") 1;
  encode_discover (response_of_entry entry ~elapsed_ms ~cache:"hit")

let post_completion t comp =
  Mutex.lock t.comp_mu;
  t.completions <- comp :: t.completions;
  Mutex.unlock t.comp_mu;
  (* wake the event loop; harmless if it is already awake or gone *)
  try ignore (Unix.write_substring t.wake_w "c" 0 1)
  with Unix.Unix_error _ -> ()

let frame_of_incumbent (inc : Tupelo.Discover.incumbent) =
  Protocol.encode_incumbent
    {
      Protocol.i_seq = inc.Tupelo.Discover.inc_seq;
      i_cost = inc.Tupelo.Discover.inc_cost;
      i_h = inc.Tupelo.Discover.inc_h;
      i_covered = inc.Tupelo.Discover.inc_covered;
      i_total = inc.Tupelo.Discover.inc_total;
      i_entrant = inc.Tupelo.Discover.inc_entrant;
      i_coverage =
        List.map
          (fun (c : Tupelo.Goal.coverage) ->
            (c.Tupelo.Goal.rel, c.Tupelo.Goal.covered, c.Tupelo.Goal.total))
          inc.Tupelo.Discover.inc_coverage;
      i_expr =
        Fira.Parser.expr_to_file_string
          (Fira.Expr.of_ops inc.Tupelo.Discover.inc_ops);
    }

(* Serve one job: admit and probe a raw body, build a missed pair's
   databases, search, answer. A plain job posts one [P_response]. A
   streamed one posts each incumbent as a chunk and ends with one
   [P_done]; its chunked head goes out in front of its first frame, so
   until then (a 400, a cache hit, a failure) it answers exactly as a
   plain job. *)
let run_job t (j : job) =
  let post payload =
    post_completion t { c_cid = j.cid; c_keep = j.keep; c_payload = payload }
  in
  let respond resp = post (P_response resp) in
  let opened = ref false in
  let frame json =
    let chunk = Http.chunk (Json.to_string json ^ "\n") in
    if !opened then chunk
    else begin
      opened := true;
      Http.chunked_head ~keep_alive:j.keep 200 ^ chunk
    end
  in
  let finish ?retain json =
    post (P_done { d_bytes = frame json ^ Http.last_chunk; d_retain = retain })
  in
  let search p ~resume =
    (* sketched here, off the loop: sorting every row term is the
       expensive part of near-miss matching *)
    let sketch = Cache.sketch_of_pair ~source:p.p_source ~target:p.p_target in
    let warm = if resume <> None then [] else warm_start t p sketch in
    match j.stream with
    | None ->
        respond
          (encode_discover (fst (execute t p ~warm ~sketch ~resume j.started)))
    | Some token -> (
        let on_incumbent inc = post (P_chunk (frame (frame_of_incumbent inc))) in
        match execute t p ~warm ~sketch ~resume ~on_incumbent j.started with
        | resp, None -> finish (Protocol.encode_final resp)
        | resp, Some fr ->
            finish ~retain:(token, { r_prep = p; r_frontier = fr })
              (Protocol.encode_final
                 { resp with Protocol.resume_token = Some token }))
  in
  try
    match j.task with
    | Admitted a -> search (build a) ~resume:None
    | Resume r -> search r.r_prep ~resume:(Some r.r_frontier)
    | Raw body -> (
        match probe_sub t body ~off:0 ~len:(String.length body) with
        | Rejected m -> respond (Http.response 400 (Protocol.error_body m))
        | Hit entry -> respond (hit_response t entry j.started)
        | Miss a -> search (build a) ~resume:None)
  with exn ->
    (* a worker must never die: the failure is the job's answer, an
       in-stream error frame once the stream has begun *)
    if !opened then
      finish (Protocol.encode_error_frame (Printexc.to_string exn))
    else respond (encode_discover (error_response exn j.started))

let worker_loop t =
  let rec go () =
    match Admission.take t.queue with
    | None -> ()
    | Some job ->
        run_job t job;
        (* Collect this domain's (large) minor heap now, right after
           the response was posted, so the deferred collection does not
           land mid-flood on the reactor's hit path later. It is not
           free for the response: every minor collection stops every
           domain, so the reactor delivers only once it ends. It is
           short because the finished search left nothing young alive
           (its memos are cleared at run end, see Discover.run_engine):
           what a table on the major heap still pointed at would be
           promoted here. *)
        Gc.minor ();
        go ()
  in
  go ()

(* --- the reactor: one thread, non-blocking fds, per-connection state
   machines that carve requests out of their input buffers (Http.carve)
   and read each body where it lies --- *)

type conn = {
  cid : int;
  fd : Unix.file_descr;
  mutable inbuf : Bytes.t;
  mutable inlen : int;  (** bytes of [inbuf] holding unparsed input *)
  outq : string Queue.t;  (** serialized responses awaiting the socket *)
  mutable outpos : int;  (** bytes of the queue's front already written *)
  mutable in_flight : bool;
      (** a request is at the pool; reads pause so responses stay in
          request order, buffered pipelined bytes wait *)
  mutable close_after_flush : bool;
  mutable peer_eof : bool;
  mutable dead : bool;  (** socket error; close without flushing *)
  mutable read_deadline : float;
      (** absolute deadline for completing a partially received request;
          [infinity] when the buffer holds no partial request *)
}

let enqueue_response c ~keep resp =
  Http.write_response ~keep_alive:keep (fun s -> Queue.push s c.outq) resp;
  if not keep then c.close_after_flush <- true

let try_flush c =
  let rec go () =
    if not (Queue.is_empty c.outq) then begin
      let s = Queue.peek c.outq in
      match Unix.write_substring c.fd s c.outpos (String.length s - c.outpos)
      with
      | n ->
          c.outpos <- c.outpos + n;
          if c.outpos = String.length s then begin
            ignore (Queue.pop c.outq);
            c.outpos <- 0
          end;
          go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
        ->
          ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error _ -> c.dead <- true
    end
  in
  go ()

(* [true] when the job reached the queue; a refusal is answered here. *)
let dispatch t c job =
  match Admission.submit t.queue job with
  | `Admitted ->
      c.in_flight <- true;
      true
  | `Busy ->
      Telemetry.count t.tel Ev.reject_busy 1;
      enqueue_response c ~keep:job.keep
        (Http.response 429 (Protocol.error_body "admission queue is full"));
      false
  | `Closed ->
      Telemetry.count t.tel Ev.reject_shutdown 1;
      enqueue_response c ~keep:false
        (Http.response 503 (Protocol.error_body "server is shutting down"));
      false

let truthy = function Some ("1" | "true" | "yes") -> true | _ -> false

(* [req]'s body is the [body_len] bytes of [c.inbuf] from [body_off]
   ([Http.carve]); it is copied out only when it leaves the loop. *)
let handle_on_loop t c (req : Http.request) ~body_off ~body_len =
  Telemetry.span t.tel Ev.span @@ fun () ->
  let keep = Http.keep_alive req && not (Atomic.get t.shutdown) in
  let started = Unix.gettimeofday () in
  let path, params = Http.split_target req.Http.path in
  match (req.Http.meth, path) with
  | "GET", "/healthz" ->
      Telemetry.count t.tel Ev.req_healthz 1;
      enqueue_response c ~keep
        (Http.response 200
           (Json.to_string
              (Json.Obj
                 [
                   ("status", Json.Str "ok");
                   ( "uptime_s",
                     Json.Num (Unix.gettimeofday () -. t.started_at) );
                 ])))
  | "GET", "/stats" ->
      Telemetry.count t.tel Ev.req_stats 1;
      (* expire stale checkpoints first so the snapshot reconciles *)
      Frontier.sweep t.frontiers ~now:started;
      enqueue_response c ~keep (Http.response 200 (stats_json t))
  | "POST", "/discover" -> (
      Telemetry.count t.tel Ev.req_discover 1;
      (* a stream's resume token is drawn now, before the worker quotes
         it; a plain request draws none (a /dev/urandom read) *)
      let submit ~stream task =
        let stream =
          if stream then Some (Frontier.fresh_token t.frontiers) else None
        in
        dispatch t c { cid = c.cid; keep; started; task; stream }
      in
      match List.assoc_opt "resume" params with
      | Some token -> (
          Telemetry.count t.tel Ev.req_resume 1;
          match Frontier.take t.frontiers ~now:started token with
          | None ->
              enqueue_response c ~keep
                (Http.response 404
                   (Protocol.error_body "unknown or expired resume token"))
          | Some retained ->
              (* a refused resume puts its checkpoint back, with a fresh
                 TTL, so the retry finds it *)
              if not (submit ~stream:true (Resume retained)) then
                Frontier.put t.frontiers ~now:started ~token retained)
      | None -> (
          let stream = truthy (List.assoc_opt "anytime" params) in
          if body_len > loop_parse_max then
            ignore
              (submit ~stream (Raw (Bytes.sub_string c.inbuf body_off body_len)))
          else
            (* read in place: [probe_sub] keeps no reference to the
               buffer, which is not touched until this returns *)
            match
              probe_sub t (Bytes.unsafe_to_string c.inbuf) ~off:body_off
                ~len:body_len
            with
            | Rejected m ->
                enqueue_response c ~keep
                  (Http.response 400 (Protocol.error_body m))
            | Hit entry ->
                (* a hit needs no stream, even on the anytime route: it is
                   a plain content-length response (clients accept both) *)
                enqueue_response c ~keep (hit_response t entry started)
            | Miss a -> ignore (submit ~stream (Admitted a))))
  | _, _ ->
      Telemetry.count t.tel Ev.req_unknown 1;
      enqueue_response c ~keep
        (Http.response 404 (Protocol.error_body "no such route"))

(* Carve and serve as many complete requests as the buffer holds.
   Stops at a dispatch (response order = request order), on close, or
   during shutdown (new requests are no longer served; the sweep will
   close the connection once pending output is flushed). *)
let rec process t c =
  if c.in_flight || c.close_after_flush || c.dead || Atomic.get t.shutdown
  then ()
  else
    match Http.carve ~max_body:t.cfg.max_payload c.inbuf ~len:c.inlen with
    | `Need_more ->
        if c.inlen = 0 then c.read_deadline <- infinity
        else if c.read_deadline = infinity then
          c.read_deadline <-
            Unix.gettimeofday ()
            +. (float_of_int t.cfg.read_timeout_ms /. 1000.)
    | `Request (req, body_off, consumed) ->
        c.read_deadline <- infinity;
        (* the body is read where it lies, so the pipelined rest moves
           to the front only once the request is handled *)
        Fun.protect
          ~finally:(fun () ->
            let rest = c.inlen - consumed in
            if rest > 0 then Bytes.blit c.inbuf consumed c.inbuf 0 rest;
            c.inlen <- rest)
          (fun () ->
            handle_on_loop t c req ~body_off ~body_len:(consumed - body_off));
        process t c
    | exception Http.Bad_request m ->
        Telemetry.count t.tel Ev.reject_bad 1;
        c.inlen <- 0;
        enqueue_response c ~keep:false
          (Http.response 400 (Protocol.error_body m))
    | exception Http.Payload_too_large { limit; declared } ->
        Telemetry.count t.tel Ev.reject_payload 1;
        c.inlen <- 0;
        enqueue_response c ~keep:false
          (Http.response 413
             (Protocol.error_body
                (Printf.sprintf
                   "declared payload of %d bytes exceeds the %d-byte limit"
                   declared limit)))

let on_readable t c =
  let want = c.inlen + 16384 in
  if Bytes.length c.inbuf < want then begin
    let cap = ref (Bytes.length c.inbuf) in
    while !cap < want do
      cap := 2 * !cap
    done;
    let nbuf = Bytes.create !cap in
    Bytes.blit c.inbuf 0 nbuf 0 c.inlen;
    c.inbuf <- nbuf
  end;
  match Unix.read c.fd c.inbuf c.inlen (Bytes.length c.inbuf - c.inlen) with
  | 0 ->
      c.peer_eof <- true;
      (* serve whatever complete requests were already buffered *)
      process t c
  | n ->
      c.inlen <- c.inlen + n;
      process t c
  | exception
      Unix.Unix_error
        ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      ()
  | exception Unix.Unix_error _ -> c.dead <- true

let timeout_conn t c =
  Telemetry.count t.tel Ev.reject_timeout 1;
  c.inlen <- 0;
  c.read_deadline <- infinity;
  enqueue_response c ~keep:false
    (Http.response 408
       (Protocol.error_body "timed out waiting for a complete request"))

let serve_loop t =
  let conns : (int, conn) Hashtbl.t = Hashtbl.create 64 in
  let next_cid = ref 0 in
  let gc_tick = ref 0 in
  let listen_open = ref true in
  let close_listen () =
    if !listen_open then begin
      listen_open := false;
      try Unix.close t.listen_fd with Unix.Unix_error _ -> ()
    end
  in
  let close_conn c =
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    Hashtbl.remove conns c.cid
  in
  let drain_wake () =
    let buf = Bytes.create 256 in
    let rec go () =
      match Unix.read t.wake_r buf 0 256 with
      | 256 -> go ()
      | _ -> ()
      | exception
          Unix.Unix_error
            ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
          ()
    in
    go ()
  in
  let deliver_completions () =
    Mutex.lock t.comp_mu;
    let comps = t.completions in
    t.completions <- [];
    Mutex.unlock t.comp_mu;
    List.iter
      (fun { c_cid; c_keep; c_payload } ->
        match Hashtbl.find_opt conns c_cid with
        | None ->
            (* The connection died while its search ran: frames are
               dropped, and so is any checkpoint — the client never
               received its token, so retaining it would only pin the
               frontier store until the TTL. *)
            ()
        | Some c -> (
            match c_payload with
            | P_response resp ->
                c.in_flight <- false;
                let keep =
                  c_keep && (not (Atomic.get t.shutdown)) && not c.peer_eof
                in
                enqueue_response c ~keep resp;
                (* resume pipelined requests buffered behind the search *)
                process t c
            | P_chunk bytes ->
                (* mid-stream: the request stays in flight *)
                Queue.push bytes c.outq
            | P_done { d_bytes; d_retain } ->
                (match d_retain with
                | Some (token, retained) ->
                    Frontier.put t.frontiers ~now:(Unix.gettimeofday ())
                      ~token retained
                | None -> ());
                Queue.push d_bytes c.outq;
                c.in_flight <- false;
                if (not c_keep) || Atomic.get t.shutdown || c.peer_eof then
                  c.close_after_flush <- true;
                process t c))
      (List.rev comps)
  in
  let accept_burst () =
    let rec go () =
      match Unix.accept ~cloexec:true t.listen_fd with
      | fd, _ ->
          Unix.set_nonblock fd;
          (* the hit path writes one small response per request; without
             NODELAY, Nagle + delayed ACK holds it hostage for ~40 ms *)
          (try Unix.setsockopt fd Unix.TCP_NODELAY true
           with Unix.Unix_error _ -> ());
          let cid = !next_cid in
          incr next_cid;
          Hashtbl.replace conns cid
            {
              cid;
              fd;
              inbuf = Bytes.create 4096;
              inlen = 0;
              outq = Queue.create ();
              outpos = 0;
              in_flight = false;
              close_after_flush = false;
              peer_eof = false;
              dead = false;
              read_deadline = infinity;
            };
          go ()
      | exception
          Unix.Unix_error
            ( ( Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR
              | Unix.ECONNABORTED ),
              _,
              _ ) ->
          ()
    in
    go ()
  in
  let rec iterate () =
    let sd = Atomic.get t.shutdown in
    if sd then close_listen ();
    Frontier.sweep t.frontiers ~now:(Unix.gettimeofday ());
    (* sweep: closed by error, or nothing left to read/serve/flush *)
    let victims =
      Hashtbl.fold
        (fun _ c acc ->
          if
            c.dead
            || (c.close_after_flush || c.peer_eof || sd)
               && (not c.in_flight)
               && Queue.is_empty c.outq
          then c :: acc
          else acc)
        conns []
    in
    List.iter close_conn victims;
    if sd && Hashtbl.length conns = 0 then () (* loop exits; stop joins *)
    else begin
      let rd_conns = ref [] and wr_conns = ref [] in
      let deadline = ref infinity in
      Hashtbl.iter
        (fun _ c ->
          if not c.dead then begin
            if not (Queue.is_empty c.outq) then wr_conns := c :: !wr_conns;
            if
              (not sd) && (not c.in_flight) && (not c.close_after_flush)
              && not c.peer_eof
            then begin
              rd_conns := c :: !rd_conns;
              if c.read_deadline < !deadline then
                deadline := c.read_deadline
            end
          end)
        conns;
      let reads =
        (if !listen_open && not sd then [ t.listen_fd ] else [])
        @ (t.wake_r :: List.map (fun c -> c.fd) !rd_conns)
      in
      let writes = List.map (fun c -> c.fd) !wr_conns in
      let timeout =
        if !deadline = infinity then -1.
        else max 0. (!deadline -. Unix.gettimeofday ())
      in
      match Unix.select reads writes [] timeout with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> iterate ()
      | readable, _writable, _ ->
          if List.mem t.wake_r readable then drain_wake ();
          deliver_completions ();
          List.iter
            (fun c -> if List.mem c.fd readable then on_readable t c)
            !rd_conns;
          if !listen_open && (not sd) && List.mem t.listen_fd readable then
            accept_burst ();
          let now = Unix.gettimeofday () in
          Hashtbl.iter
            (fun _ c ->
              if
                (not c.in_flight) && (not c.dead)
                && c.read_deadline <= now
              then timeout_conn t c)
            conns;
          (* flush everything with pending output; EAGAIN just leaves
             the rest for the next readiness round *)
          Hashtbl.iter
            (fun _ c ->
              if (not c.dead) && not (Queue.is_empty c.outq) then
                try_flush c)
            conns;
          (* Pre-pay major-GC mark work in small bounded slices, a few
             readiness rounds apart. Left to its own pacing the runtime
             schedules slices at this thread's allocation points and
             sizes them to catch up on whatever the rest of the process
             promoted — after a burst of searches that lands a
             tens-of-ms catch-up slice in the middle of the cache-hit
             flood. Many small slices here keep the auto-pacer's debt
             near zero, so no single request ever carries the bill. *)
          incr gc_tick;
          if !gc_tick land 7 = 0 then ignore (Gc.major_slice 4096);
          iterate ()
    end
  in
  iterate ()

(* --- lifecycle --- *)

let start cfg =
  if Sys.os_type = "Unix" then
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let agg = Telemetry.Agg.create () in
  let tel =
    (* one handle: external sink (trace) and internal aggregate see the
       same event stream, which is what makes /stats ≡ trace *)
    Telemetry.create
      (match cfg.trace_sink with
      | Some sink -> Telemetry.Sink.tee [ sink; Telemetry.Agg.sink agg ]
      | None -> Telemetry.Agg.sink agg)
  in
  let listen_fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  let t =
    try
      Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
      Unix.bind listen_fd
        (Unix.ADDR_INET (Unix.inet_addr_of_string cfg.host, cfg.port));
      Unix.listen listen_fd 512;
      Unix.set_nonblock listen_fd;
      let bound_port =
        match Unix.getsockname listen_fd with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> cfg.port
      in
      let wake_r, wake_w = Unix.pipe ~cloexec:true () in
      Unix.set_nonblock wake_r;
      let notify_r, notify_w = Unix.pipe ~cloexec:true () in
      {
        cfg;
        tel;
        agg;
        mapping_cache =
          Cache.create ~telemetry:tel ~shards:cfg.cache_shards
            ~capacity:cfg.cache_capacity ();
        frontiers =
          Frontier.create ~telemetry:tel ~capacity:cfg.frontier_capacity
            ~ttl_ms:cfg.frontier_ttl_ms ();
        queue = Admission.create ~telemetry:tel ~capacity:cfg.queue_capacity ();
        listen_fd;
        bound_port;
        shutdown = Atomic.make false;
        wake_r;
        wake_w;
        notify_r;
        notify_w;
        comp_mu = Mutex.create ();
        completions = [];
        started_at = Unix.gettimeofday ();
        loop_thread = None;
        worker_domains = [];
        stop_mu = Mutex.create ();
        stopped = false;
      }
    with e ->
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      raise e
  in
  (* [workers] is the number of concurrent searches; pack them as
     threads onto at most [cores - 1] dedicated domains. On a big box
     every worker gets its own domain (true parallelism); on a small
     one the workers interleave as systhreads inside a single domain.
     Never run more busy domains than cores: OCaml's minor collections
     are stop-the-world across domains, so a second busy domain on a
     one-core box turns every collection into a wait for the OS to
     schedule the peer — measured as a ~2.5x slowdown on cold
     searches. *)
  let worker_domain_count =
    max 1 (min cfg.workers (Domain.recommended_domain_count () - 1))
  in
  t.worker_domains <-
    List.init worker_domain_count (fun d ->
        let threads =
          (cfg.workers / worker_domain_count)
          + if d < cfg.workers mod worker_domain_count then 1 else 0
        in
        Domain.spawn (fun () ->
            (* searches allocate hard, and every minor collection in
               this domain is a stop-the-world handshake with every
               other domain — a bigger minor heap here (and only here;
               the reactor wants short pauses) cuts that cross-domain
               tax by an order of magnitude *)
            (try
               Gc.set
                 { (Gc.get ()) with Gc.minor_heap_size = 2 * 1024 * 1024 }
             with Invalid_argument _ | Sys_error _ -> ());
            List.init (threads - 1)
              (fun _ -> Thread.create (fun () -> worker_loop t) ())
            |> fun extra ->
            worker_loop t;
            List.iter Thread.join extra));
  (* The reactor is a thread in the caller's domain, not a domain of
     its own: under `tupelo serve` the main thread only blocks on the
     stop pipe, so the loop effectively owns the domain, and keeping
     the domain count at 1 + workers avoids paying cross-domain GC
     synchronisation on every search minor collection. Embedders that
     run busy threads of their own should expect ~50 ms systhread
     tick granularity between those threads and the loop. *)
  t.loop_thread <- Some (Thread.create (fun () -> serve_loop t) ());
  t

let request_stop t =
  if not (Atomic.exchange t.shutdown true) then begin
    (try ignore (Unix.write_substring t.wake_w "x" 0 1)
     with Unix.Unix_error _ -> ());
    try ignore (Unix.write_substring t.notify_w "x" 0 1)
    with Unix.Unix_error _ -> ()
  end

(* The wait wakes at least every [signal_poll_s]. A process-directed
   signal may be delivered to any thread; one that lands on a worker
   interrupts no select, and OCaml runs its handler only when some
   thread of this domain next polls. Returning from the select is such a
   poll, so a SIGTERM is handled within this bound wherever it landed. *)
let signal_poll_s = 0.2

let await_stop_request t =
  let rec wait () =
    if not (Atomic.get t.shutdown) then
      match Unix.select [ t.notify_r ] [] [] signal_poll_s with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      | [], _, _ -> wait ()
      | _ -> ()
  in
  wait ()

let stop t =
  request_stop t;
  Mutex.lock t.stop_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.stop_mu)
    (fun () ->
      if not t.stopped then begin
        t.stopped <- true;
        (* the loop closes the listener, serves what was already read or
           queued (workers still draining), flushes and closes every
           connection, then exits *)
        (match t.loop_thread with
        | Some th -> Thread.join th
        | None -> ());
        Admission.close t.queue;
        List.iter Domain.join t.worker_domains;
        (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
        (try Unix.close t.wake_w with Unix.Unix_error _ -> ());
        (try Unix.close t.notify_r with Unix.Unix_error _ -> ());
        (try Unix.close t.notify_w with Unix.Unix_error _ -> ());
        Telemetry.flush t.tel
      end)

let run ?(on_ready = ignore) cfg =
  let t = start cfg in
  let handle = Sys.Signal_handle (fun _ -> request_stop t) in
  let prev_term = Sys.signal Sys.sigterm handle in
  let prev_int = Sys.signal Sys.sigint handle in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigterm prev_term;
      Sys.set_signal Sys.sigint prev_int)
    (fun () ->
      (* Only now may anyone learn that the server is up: a signal sent
         in reaction to [on_ready] finds the handlers installed and
         drains instead of killing the process. *)
      on_ready t;
      await_stop_request t;
      stop t)
