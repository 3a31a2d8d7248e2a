(* serve-hit: open-loop cache hits against a real `tupelo serve`.

   The server is warmed with a working set of term-disjoint pairs. The
   run then alternates two kinds of window: one at the fixed offered
   [rate], well under capacity, for p50/p90; and bursts that keep the
   server busy with a fixed number of requests in flight, for capacity:
   the rate at which it answers with no growing backlog, its p90 within
   [p90_limit_ms]. Alternating them
   spreads both measurements over the whole run, so a burst of load from
   elsewhere on the host lands in a few windows of each rather than in
   all of one. Every response must be a hit carrying the mapping its
   pair was warmed with.

   Times and rates are reported at [Speed]'s nominal host speed, with
   the kernel timed around each window and each burst. On a 2-core
   x86-64 host whose speed swung within minutes, the raw p50, p90 and
   capacity of five runs spread by up to 0.28, 0.21 and 0.47 of their
   medians (quartile distance); scaled, over ten seeds, p50 and p90 by
   0.06 and the burst capacity by 0.08. A staircase of offered rates,
   tried first for capacity, hovered wherever the host's phase left it
   and spread by 0.18-0.23 scaled or not. Most of what spread is left
   follows the seed's working set: five runs of one seed put the scaled
   p50 within 0.03 of each other (quartile distance). *)

open Server

(* Measured over ten 20 s runs on a 2-core x86-64 host: a staircase of
   offered rates settled at 1760-2090 hits/s, and at 1000/s the p90 was
   0.74-0.92 ms, so [p90_limit_ms] is over twice the p90 well under
   capacity: queueing crosses it, a lone slow request does not. In two
   runs of twenty the host ran at half speed, capacity fell to 920/s,
   and at 1000/s the server backed up until the generator ran over 2 ms
   late. So [rate] is about a quarter of the usual capacity. *)
let rate = 500.
let p90_limit_ms = 2.0
let settle_s = 1.0
let setups = 7
let conns = min 2 (Domain.recommended_domain_count ())

(* A fixed-rate window holds [rate *. window_s] = 200 samples. *)
let window_s = 0.4

(* Capacity: bursts of [burst] hits with [in_flight] requests in flight
   over the [conns] connections, each answer letting the next request
   go, so the server is never short of work and no backlog can grow.
   Capacity is the bursts' mean rate at [Speed]'s nominal host speed,
   and their p90 from send to answer must stay within [p90_limit_ms]:
   with 4 in flight it reached 2.4 ms on a slow host, with 2 (one per
   connection) it stays near 1 ms. [bursts_per_window] bursts follow
   each fixed-rate window. *)
let burst = 1000
let in_flight = 2
let bursts_per_window = 2

type warmed = {
  pair : Gen.pair;
  request : string;  (** the full HTTP request *)
  needle : string;  (** the ["expr"] member every hit must carry *)
  response : Protocol.discover_response;
}

let warm ~port pairs =
  let conn = Client.connect ~host:"127.0.0.1" ~port in
  Fun.protect
    ~finally:(fun () -> Client.close conn)
    (fun () ->
      Array.map
        (fun (p : Gen.pair) ->
          let req = Protocol.request ~source:p.source ~target:p.target () in
          match Client.discover conn req with
          | Ok (200, Ok ({ Protocol.expr = Some e; cache = "miss"; _ } as r))
            when r.Protocol.outcome = "mapping" ->
              if not (Gen.replays_to_superset p e) then
                failwith ("warm-up mapping does not replay: " ^ p.tag);
              {
                pair = p;
                request = Gen.http_post (Gen.discover_body p);
                needle = {|"expr":|} ^ Json.to_string (Json.Str e);
                response = r;
              }
          | Ok (s, _) -> failwith (Printf.sprintf "warm-up of %s: HTTP %d" p.tag s)
          | Error m -> failwith ("warm-up of " ^ p.tag ^ ": " ^ m))
        pairs)

(* Start a server and warm the working set; the set-up time is the sum. *)
let setup ~exe ?trace ~seed () =
  let pairs = Array.init Gen.hit_working_set (Gen.hit_pair ~seed) in
  let t0 = Proc.now () in
  let s = Proc.start_server ~exe ?trace () in
  let ws = warm ~port:s.Proc.port pairs in
  (s, ws, Proc.now () -. t0)

(* Every window the run drives, for the attempted/failed ledger. *)
let ledger : Openloop.result list ref = ref []

(* One open-loop window; request i of the run's draw sequence [draws]
   picks its working-set pair, continuing across windows at [from]. *)
let window ?in_flight ~port ws ~draws ~from ~rate ~count =
  let pick i = ws.(draws.((from + i) mod Array.length draws)) in
  let hit = {|"cache":"hit"|} in
  let r =
    Openloop.run ?in_flight ~port ~conns ~rate ~count ~timeout_s:5.
      ~request:(fun i -> (pick i).request)
      ~check:(fun i buf ~body ~upto ->
        Openloop.find buf ~from:body ~upto hit >= 0
        && Openloop.find buf ~from:body ~upto (pick i).needle >= 0)
      ()
  in
  ledger := r :: !ledger;
  r

let failures (r : Openloop.result) =
  r.bad + Array.fold_left (fun n l -> if Float.is_finite l then n else n + 1) 0 r.latency_ms

let stats_counts ~port =
  match Client.once ~host:"127.0.0.1" ~port ~meth:"GET" ~path:"/stats" () with
  | Ok (200, body) -> (
      match Json.parse body with
      | Ok j ->
          let get k =
            Option.bind (Json.member "cache" j) (Json.member k)
            |> Fun.flip Option.bind Json.to_int |> Option.value ~default:0
          in
          (get "hits", get "misses")
      | Error m -> failwith ("/stats: " ^ m))
  | _ -> failwith "/stats failed"

let window_count = int_of_float (rate *. window_s)

let fixed_window ~port ws ~draws k =
  window ~port ws ~draws ~from:(k * window_count) ~rate ~count:window_count

let pooled f ws = Array.concat (List.map f ws)
let latencies ws = pooled (fun (w : Openloop.result) -> w.latency_ms) ws

(* One capacity burst: its rate and each request's time from send to
   answer. *)
let burst_at ~port ws ~draws ~from =
  let r = window ~in_flight ~port ws ~draws ~from ~rate:1e9 ~count:burst in
  (float_of_int r.answered /. r.wall_s, Array.map2 ( -. ) r.latency_ms r.late_ms)

let run ~exe ~seed ~seconds =
  Report.record
    "hit: %d conns; p50/p90 at %.0f/s in %.1f s windows; capacity in bursts of %d \
     with %d in flight, p90 <= %.1f ms"
    conns rate window_s burst in_flight p90_limit_ms;
  let setup_times =
    Speed.around setups (fun k ->
        let s, ws, t = setup ~exe ~seed () in
        if k < setups - 1 then ignore (Proc.stop_server s);
        (s, ws, t))
  in
  let s, ws, _ = fst setup_times.(setups - 1) in
  let port = s.Proc.port in
  let rounds = max 8 (4 * seconds / 5) in
  let draws = Gen.hit_draws ~seed 100_000 in
  ignore (window ~port ws ~draws ~from:0 ~rate ~count:(int_of_float (rate *. settle_s)));
  (* each round: a fixed-rate window, then the bursts *)
  let timed =
    Array.concat
      (List.init rounds (fun k ->
           Speed.around (1 + bursts_per_window) (fun b ->
               if b = 0 then `Fixed (fixed_window ~port ws ~draws k)
               else `Burst (burst_at ~port ws ~draws ~from:(((k * bursts_per_window) + b) * burst)))))
  in
  let fixed = Array.to_list timed |> List.filter_map (function `Fixed w, f -> Some (w, f) | _ -> None) in
  let bursts = Array.to_list timed |> List.filter_map (function `Burst b, f -> Some (b, f) | _ -> None) in
  (* The run is bounded by time, but hits intern nothing new and the
     server's heap has all but stopped growing by now: its peak RSS
     measured 177.6, 179.8 and 181.2 MB after 16k, 33k and 49k hits. *)
  let rss = Proc.stop_server s in
  let windows = List.map fst fixed in
  let n = List.fold_left (fun k (w : Openloop.result) -> k + Array.length w.latency_ms) 0 windows in
  let late90 = Stats.percentile 0.9 (pooled (fun (w : Openloop.result) -> w.late_ms) windows) in
  let burst_p90 = Stats.percentile 0.9 (Array.concat (List.map (fun ((_, l), _) -> l) bursts)) in
  let raw_cap = Stats.mean (Array.of_list (List.map (fun ((r, _), _) -> r) bursts)) in
  let cap = Stats.mean (Array.of_list (List.map (fun ((r, _), f) -> r /. f) bursts)) in
  let raw = latencies windows in
  (* A sub-millisecond request is too short to pair with the kernel times
     around its window, so the windows' latencies are scaled by the mean
     factor of the whole run, windows and bursts: over six seeds its
     quartile distance was 0.10 for p50 and 0.04 for p90, against 0.10
     and 0.06 with the windows' own factors and 0.12 and 0.09 raw. *)
  let mean_f = Stats.mean (Speed.factors timed) in
  Report.deciles "hit: raw latency ms" raw;
  Report.record "hit: generator lateness p90 %.3f ms; burst p90 %.3f ms" late90 burst_p90;
  Report.record "hit: raw p50 %.4f ms, p90 %.4f ms, capacity %.1f/s; mean speed factor %.4f"
    (Stats.reported 0.5 raw) (Stats.reported 0.9 raw) raw_cap mean_f;
  let problems =
    (if late90 > p90_limit_ms then
       [ Printf.sprintf "generator p90 lateness %.3f ms exceeds the %.1f ms p90 limit"
           late90 p90_limit_ms ]
     else [])
    @
    if burst_p90 > p90_limit_ms then
      [ Printf.sprintf "capacity bursts' p90 %.3f ms exceeds the %.1f ms p90 limit" burst_p90
          p90_limit_ms ]
    else []
  in
  let all = !ledger in
  let nb = List.length bursts in
  {
    Report.attempted = List.fold_left (fun k (w : Openloop.result) -> k + Array.length w.latency_ms) 0 all;
    failed = List.fold_left (fun k w -> k + failures w) 0 all;
    problems;
    metrics =
      Report.
        [
          metric "setup_s" "s"
            (Stats.median (Array.map (fun ((_, _, t), f) -> t *. f) setup_times))
            ~samples:setups;
          metric "p50_ms" "ms" (Stats.reported 0.5 raw *. mean_f) ~samples:n;
          metric "p90_ms" "ms" (Stats.reported 0.9 raw *. mean_f) ~samples:n;
          metric "capacity_per_s" "1/s" cap ~samples:nb;
          (* hits answered per second of the fixed-rate windows, which
             the open loop holds at [rate] while the server keeps up *)
          metric "throughput_per_s" "1/s"
            (float_of_int (List.fold_left (fun k (w : Openloop.result) -> k + w.answered) 0 windows)
            /. List.fold_left (fun t (w : Openloop.result) -> t +. w.wall_s) 0. windows)
            ~samples:n;
          (* CSV rows decoded per second at capacity *)
          metric "rows_per_s" "1/s" (cap *. float_of_int Gen.hit_rows_per_request) ~samples:nb;
          metric "peak_rss_mb" "MB" rss;
        ];
  }

(* ---- the traced run ---- *)

let traced_windows = 8

(* Durations of the reactor's handling of each cache hit: the
   [server.request] spans that counted a discover request and a hit. *)
let hit_spans trace =
  let _, acc =
    Events.fold trace
      (fun (cur, acc) (e : Events.t) ->
        match (e.kind, e.name, cur) with
        | "span_begin", "server.request", _ -> (Some (e.domain, false, false), acc)
        | "counter", "server.request.discover", Some (d, _, h) when d = e.domain ->
            (Some (d, true, h), acc)
        | "counter", "cache.hit", Some (d, disc, _) when d = e.domain ->
            (Some (d, disc, true), acc)
        | "span_end", "server.request", Some (d, true, true) when d = e.domain ->
            (None, e.amount :: acc)
        | "span_end", "server.request", _ -> (None, acc)
        | _ -> (cur, acc))
      (None, [])
  in
  Array.of_list acc

(* The reactor's hit path replayed in this process, one public call at
   a time, over the working set: microseconds per call, and minor words
   allocated per request. The cache holds the working set, as the
   server's does. *)
let replay ws ~reps =
  let open Relational in
  let cache = Cache.create ~shards:8 ~capacity:256 () in
  Array.iter
    (fun w ->
      let s = Gen.database w.pair.source and t = Gen.database w.pair.target in
      Cache.add cache
        ~route:(Cache.route_of_pair ~source:s ~target:t)
        (Fingerprint.of_database s, Fingerprint.of_database t)
        w.response)
    ws;
  let names =
    [| "http_parse"; "json_parse"; "decode"; "csv"; "fingerprint"; "route";
       "probe"; "encode"; "write" |]
  in
  let n = reps * Array.length ws in
  let us = Array.map (fun _ -> Array.make n 0.) names in
  let minor = Array.make n 0. in
  let fail m = failwith ("hit replay: " ^ m) in
  for k = 0 to n - 1 do
    let w = ws.(k mod Array.length ws) in
    let buf = Bytes.of_string w.request in
    let t = Array.make (Array.length names + 1) 0. in
    let mark i = t.(i) <- Proc.now () in
    let mw0 = Gc.minor_words () in
    mark 0;
    let req =
      match Http.parse_buffered buf ~len:(Bytes.length buf) with
      | `Request (r, _) -> r
      | `Need_more -> fail "short request"
    in
    mark 1;
    let json = match Json.parse req.Http.body with Ok j -> j | Error m -> fail m in
    mark 2;
    let dreq = match Protocol.decode_request json with Ok r -> r | Error m -> fail m in
    mark 3;
    let src = Gen.database dreq.Protocol.source and tgt = Gen.database dreq.Protocol.target in
    mark 4;
    let key = (Fingerprint.of_database src, Fingerprint.of_database tgt) in
    mark 5;
    let route = Cache.route_of_pair ~source:src ~target:tgt in
    mark 6;
    let entry = match Cache.find cache ~route key with Some e -> e | None -> fail "miss" in
    mark 7;
    let body =
      Json.to_string
        (Protocol.encode_response { entry with Protocol.cache = "hit"; elapsed_ms = 0.1 })
    in
    mark 8;
    let out = Buffer.create 1024 in
    Http.write_response ~keep_alive:true (Buffer.add_string out) (Http.response 200 body);
    mark 9;
    minor.(k) <- Gc.minor_words () -. mw0;
    Array.iteri (fun i a -> a.(k) <- (t.(i + 1) -. t.(i)) *. 1e6) us
  done;
  (Array.to_list (Array.mapi (fun i name -> (name, Stats.median us.(i))) names),
   Stats.median minor, n)

let traced ~exe ~workdir ~seed =
  let draws = Gen.hit_draws ~seed 100_000 in
  let p50_of ?trace () =
    let s, ws, _ = setup ~exe ?trace ~seed () in
    let port = s.Proc.port in
    let h0, m0 = stats_counts ~port in
    ignore (window ~port ws ~draws ~from:0 ~rate ~count:(int_of_float (rate *. settle_s)));
    let fixed = List.init traced_windows (fixed_window ~port ws ~draws) in
    let h1, m1 = stats_counts ~port in
    ignore (Proc.stop_server s);
    ( ws,
      fixed,
      Stats.median (latencies fixed),
      float_of_int (h1 - h0) /. float_of_int (h1 - h0 + m1 - m0) )
  in
  let _, plain, p50_plain, _ = p50_of () in
  let trace = Filename.concat workdir "hit-trace.jsonl" in
  let ws, _, p50_traced, hit_ratio = p50_of ~trace () in
  let spans = hit_spans trace in
  Sys.remove trace;
  let span_us = Stats.median spans *. 1e6 in
  let layers, minor, replayed = replay ws ~reps:40 in
  let in_span =
    List.fold_left (fun s (name, v) -> if name = "http_parse" then s else s +. v) 0. layers
  in
  let n = traced_windows * int_of_float (rate *. window_s) in
  let all = !ledger in
  {
    Report.attempted =
      List.fold_left (fun k (w : Openloop.result) -> k + Array.length w.latency_ms) 0 all;
    failed = List.fold_left (fun k w -> k + failures w) 0 all;
    problems = (if hit_ratio = 1. then [] else [ "a hit-workload request missed the cache" ]);
    metrics =
      List.map (fun (name, v) -> Report.metric ("hit." ^ name ^ "_us") "us" v ~samples:replayed) layers
      @ Report.
          [
            metric "hit.server_request_us" "us" span_us ~samples:(Array.length spans);
            metric "hit.outside_server_us" "us" ((p50_traced *. 1000.) -. span_us)
              ~samples:n;
            metric "hit.replayed_share" "ratio" (in_span /. span_us) ~samples:replayed;
            metric "hit.minor_words" "words" minor ~samples:replayed;
            metric "hit.hit_ratio" "ratio" hit_ratio ~samples:n;
            metric "gen.late_ms" "ms"
              (Stats.percentile 0.9 (pooled (fun (w : Openloop.result) -> w.late_ms) plain))
              ~samples:n;
            metric "hit.trace_overhead_ms" "ms" (p50_traced -. p50_plain) ~samples:n;
          ];
  }
