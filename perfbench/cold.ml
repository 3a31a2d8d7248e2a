(* serve-cold: a closed loop of cold searches against a real
   `tupelo serve`, one request outstanding on one connection — a caller
   that waits for its mapping. Every request is a fresh, term-disjoint
   pair: an exact-key miss, a near-miss scan that finds nothing, a
   search on the worker domain and a cache insert. *)

open Server

let setups = 25
let warmups = 2

(* Work, not time, bounds the run: a run that finished more searches
   would intern more fresh values and report a larger peak RSS. A
   search took 38-61 ms at the median and a closed loop completed 15-25
   per second over ten runs on a 2-core x86-64 host, so 20 requests per
   second of run length about fill it; with the reference kernel timed
   between requests (see [Speed]), 400 requests took about 17 s. *)
let requests ~seconds = max (Stats.samples_for 0.9) (20 * seconds)

type answer = { latency_ms : float; server_ms : float; expr : string option; ok : bool }

let ask conn (p : Gen.pair) =
  let body = Gen.discover_body p in
  let t0 = Proc.now () in
  let r = Client.request conn ~meth:"POST" ~path:"/discover" ~body () in
  let latency_ms = (Proc.now () -. t0) *. 1000. in
  match r with
  | Ok (200, text) -> (
      match Result.bind (Json.parse text) Protocol.decode_response with
      | Ok resp ->
          {
            latency_ms;
            server_ms = resp.Protocol.elapsed_ms;
            expr = resp.Protocol.expr;
            ok =
              resp.Protocol.outcome = "mapping"
              && resp.Protocol.cache = "miss"
              && resp.Protocol.states_examined = Gen.cold_states
              && resp.Protocol.expr <> None;
          }
      | Error _ -> { latency_ms; server_ms = nan; expr = None; ok = false })
  | Ok _ | Error _ -> { latency_ms; server_ms = nan; expr = None; ok = false }

(* Send [pairs] one after another, [pause] seconds apart (the self-test
   slows a run down this way), with the host speed read around each
   (see [Speed]); returns the answers and their factors. *)
let drive ?(pause = 0.) ~port pairs =
  let conn = Client.connect ~host:"127.0.0.1" ~port in
  Fun.protect
    ~finally:(fun () -> Client.close conn)
    (fun () ->
      let timed =
        Speed.around (Array.length pairs) (fun i ->
            let a = ask conn pairs.(i) in
            if pause > 0. then Unix.sleepf pause;
            a)
      in
      (Speed.results timed, Speed.factors timed))

(* After the timed window: every mapping must replay to a superset of
   its target under the reference evaluator. *)
let failures pairs answers =
  let bad = ref 0 in
  Array.iteri
    (fun i a ->
      match a.expr with
      | Some e when a.ok && Gen.replays_to_superset pairs.(i) e -> ()
      | _ -> incr bad)
    answers;
  !bad

let run ~exe ~seed ~seconds =
  let n = requests ~seconds in
  Report.record "cold: %d requests, one connection, one outstanding; %d states each"
    n Gen.cold_states;
  let server = ref None in
  let ready =
    Speed.around setups (fun k ->
        let s = Proc.start_server ~exe () in
        if k < setups - 1 then ignore (Proc.stop_server s) else server := Some s;
        s.Proc.ready_s)
  in
  let s = Option.get !server in
  let warm = Array.init warmups (fun i -> Gen.cold_pair ~seed (n + i)) in
  let pairs = Array.init n (Gen.cold_pair ~seed) in
  let warm_answers, _ = drive ~port:s.Proc.port warm in
  let answers, factors = drive ~port:s.Proc.port pairs in
  let rss = Proc.stop_server s in
  let raw = Array.map (fun a -> a.latency_ms) answers in
  let lat = Array.map2 ( *. ) raw factors in
  let server_ms = Array.map2 (fun a f -> a.server_ms *. f) answers factors in
  Report.deciles "cold: raw latency ms" raw;
  Report.deciles "cold: scaled latency ms" lat;
  Report.record "cold: raw p50 %.3f ms, p90 %.3f ms; mean speed factor %.4f"
    (Stats.reported 0.5 raw) (Stats.reported 0.9 raw) (Stats.mean factors);
  (* a closed loop: one search after another, at the nominal speed *)
  let throughput = 1000. *. float_of_int n /. Array.fold_left ( +. ) 0. lat in
  {
    Report.attempted = n + warmups;
    failed = failures pairs answers + failures warm warm_answers;
    problems = [];
    metrics =
      Report.
        [
          metric "setup_s" "s"
            (Stats.median (Array.map (fun (t, f) -> t *. f) ready))
            ~samples:setups;
          metric "p50_ms" "ms" (Stats.reported 0.5 lat) ~samples:n;
          metric "p90_ms" "ms" (Stats.reported 0.9 lat) ~samples:n;
          (* the one worker runs one search at a time, so the searches
             it can finish per second are the inverse of the server's
             own mean time per search *)
          metric "capacity_per_s" "1/s" (1000. /. Stats.mean server_ms) ~samples:n;
          metric "throughput_per_s" "1/s" throughput ~samples:n;
          (* CSV rows of the pairs searched per second *)
          metric "rows_per_s" "1/s"
            (throughput *. float_of_int Gen.cold_rows_per_request)
            ~samples:n;
          metric "peak_rss_mb" "MB" rss;
        ];
  }

(* ---- the traced run ---- *)

let traced_requests = 40

type search = {
  discover_s : float;
  counts : (string * float) list;  (** counters summed over the span *)
  heuristic_s : float;
  heuristic_calls : int;
}

(* One record per [discover] span (one per request: a single worker
   runs one search at a time), plus every [queue.wait] timer. *)
let searches trace =
  let count = Hashtbl.create 32 and heur = ref (0., 0) in
  let _, acc, waits =
    Events.fold trace
      (fun (open_, acc, waits) (e : Events.t) ->
        match (e.kind, e.name) with
        | "span_begin", "discover" ->
            Hashtbl.reset count;
            heur := (0., 0);
            (true, acc, waits)
        | "span_end", "discover" ->
            let counts = Hashtbl.fold (fun k v l -> (k, v) :: l) count [] in
            let hs, hc = !heur in
            ( false,
              { discover_s = e.amount; counts; heuristic_s = hs; heuristic_calls = hc } :: acc,
              waits )
        | "timer", "queue.wait" -> (open_, acc, e.amount :: waits)
        | "timer", "heuristic.eval" when open_ ->
            let hs, hc = !heur in
            heur := (hs +. e.amount, hc + 1);
            (open_, acc, waits)
        | "counter", name when open_ ->
            Hashtbl.replace count name
              (e.amount +. Option.value ~default:0. (Hashtbl.find_opt count name));
            (open_, acc, waits)
        | _ -> (open_, acc, waits))
      (false, [], [])
  in
  (Array.of_list (List.rev acc), Array.of_list waits)

let count s name = Option.value ~default:0. (List.assoc_opt name s.counts)

let proposed s =
  List.fold_left
    (fun a (k, v) -> if String.starts_with ~prefix:"moves.proposed." k then a +. v else a)
    0. s.counts

(* The cold path's on-loop and cache calls replayed in this process on
   the same pairs, with the cache filled as the server's is when each
   request arrives; and each pair's search, for the Intern growth and
   major-heap words it costs. *)
let replay pairs =
  let open Relational in
  let cache = Cache.create ~shards:8 ~capacity:256 () in
  let alg = Tupelo.Discover.Rbfs in
  let config =
    Tupelo.Discover.config ~algorithm:alg
      ~heuristic:
        (Option.get
           (Heuristics.Heuristic.by_name (Tupelo.Discover.scaling_for alg) "cosine"))
      ~goal:Tupelo.Goal.Superset ()
  in
  let n = Array.length pairs in
  let col () = Array.make n 0. in
  let csv = col () and fp = col () and sketch = col () and near = col ()
  and add = col () and growth = col () and major = col () in
  let bad = ref 0 in
  Array.iteri
    (fun i (p : Gen.pair) ->
      let t0 = Proc.now () in
      let src = Gen.database p.source and tgt = Gen.database p.target in
      let t1 = Proc.now () in
      let key = (Fingerprint.of_database src, Fingerprint.of_database tgt) in
      let t2 = Proc.now () in
      let sk = Cache.sketch_of_pair ~source:src ~target:tgt in
      let t3 = Proc.now () in
      (* term-disjoint pairs: nothing to warm-start from *)
      if Cache.find_near cache ~max_dist:1.0 sk <> None then incr bad;
      let t4 = Proc.now () in
      let s0, v0 = Intern.size () in
      let m0 = (Gc.quick_stat ()).Gc.major_words in
      let outcome = Tupelo.Discover.discover config ~source:src ~target:tgt in
      major.(i) <- (Gc.quick_stat ()).Gc.major_words -. m0;
      let s1, v1 = Intern.size () in
      growth.(i) <- float_of_int (s1 - s0 + v1 - v0);
      if Tupelo.Discover.states_examined outcome <> Gen.cold_states then incr bad;
      let t5 = Proc.now () in
      Cache.add cache ~sketch:sk key ();
      let t6 = Proc.now () in
      let us a b = (b -. a) *. 1e6 in
      csv.(i) <- us t0 t1;
      fp.(i) <- us t1 t2;
      sketch.(i) <- us t2 t3;
      near.(i) <- us t3 t4;
      add.(i) <- us t5 t6)
    pairs;
  let m = Stats.median in
  ( Report.
      [
        metric "cold.csv_us" "us" (m csv) ~samples:n;
        metric "cold.fingerprint_us" "us" (m fp) ~samples:n;
        metric "cold.sketch_us" "us" (m sketch) ~samples:n;
        metric "cold.find_near_us" "us" (m near) ~samples:n;
        metric "cold.cache_add_us" "us" (m add) ~samples:n;
        metric "cold.intern_growth" "count" (m growth) ~samples:n;
        metric "cold.major_words" "words" (m major) ~samples:n;
      ],
    !bad )

let traced ~exe ~workdir ~seed =
  let pairs = Array.init traced_requests (Gen.cold_pair ~seed) in
  let p50_of ?trace () =
    let s = Proc.start_server ~exe ?trace () in
    let answers, factors = drive ~port:s.Proc.port pairs in
    ignore (Proc.stop_server s);
    (answers, Stats.median (Array.map2 (fun a f -> a.latency_ms *. f) answers factors))
  in
  let plain, p50_plain = p50_of () in
  let trace = Filename.concat workdir "cold-trace.jsonl" in
  let answers, p50_traced = p50_of ~trace () in
  let ss, waits = searches trace in
  Sys.remove trace;
  let replayed, replay_bad = replay pairs in
  let n = Array.length ss in
  let same name = Array.for_all (fun s -> count s name = count ss.(0) name) ss in
  let problems =
    (if n = traced_requests then [] else [ "a discover span is missing from the trace" ])
    @ List.filter_map
        (fun name ->
          if n > 0 && same name then None
          else Some (name ^ " differs between cold requests"))
        [ "search.examine"; "search.expand"; "search.generate" ]
    @ (if n > 0 && count ss.(0) "search.examine" = float_of_int Gen.cold_states then []
       else [ "search.examine is not the family's states count" ])
  in
  let per f = Stats.median (Array.map f ss) in
  let examined = per (fun s -> count s "search.examine") in
  let discover_s = per (fun s -> s.discover_s) in
  let memo_hit = per (fun s -> count s "memo.hit") and memo_miss = per (fun s -> count s "memo.miss") in
  {
    Report.attempted = (2 * traced_requests) + traced_requests;
    failed = failures pairs plain + failures pairs answers + replay_bad;
    problems;
    metrics =
      Report.
        [
          metric "cold.queue_wait_ms" "ms" (Stats.median waits *. 1000.) ~samples:(Array.length waits);
          metric "cold.discover_ms" "ms" (discover_s *. 1000.) ~samples:n;
          metric "cold.examined" "count" examined ~samples:n;
          metric "cold.expanded" "count" (per (fun s -> count s "search.expand")) ~samples:n;
          metric "cold.generated" "count" (per (fun s -> count s "search.generate")) ~samples:n;
          metric "cold.states_per_s" "1/s" (examined /. discover_s) ~samples:n;
          metric "cold.prune_ratio" "ratio"
            (per (fun s ->
                 (count s "search.prune.seen" +. count s "search.prune.stale"
                 +. count s "search.prune.cycle")
                 /. count s "search.generate"))
            ~samples:n;
          metric "cold.proposed_per_expand" "ratio"
            (per (fun s -> proposed s /. count s "search.expand"))
            ~samples:n;
          metric "cold.heuristic_ms" "ms" (per (fun s -> s.heuristic_s) *. 1000.) ~samples:n;
          metric "cold.heuristic_calls" "count"
            (per (fun s -> float_of_int s.heuristic_calls))
            ~samples:n;
          metric "cold.memo_hit_ratio" "ratio" (memo_hit /. (memo_hit +. memo_miss)) ~samples:n;
        ]
      @ replayed
      @ [ Report.metric "cold.trace_overhead_ms" "ms" (p50_traced -. p50_plain) ~samples:n ];
  }
