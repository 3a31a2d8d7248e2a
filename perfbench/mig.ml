(* migrate-csv: the steps `tupelo migrate` takes, run back to back on a
   generated B-shaped CSV. Each migration runs in a fresh process so it
   pays the interning a fresh `tupelo migrate` pays: the Intern pool is
   process-global and append-only, and a second migration in one
   process would find it warm. *)

open Relational

let jobs = min 2 (Domain.recommended_domain_count ())
let chunk_rows = 2048
let setups = 25

(* Work, not time, bounds the run (see Cold.requests). A migration took
   74-102 ms at the median and 9.2-11.7 ran per second over ten runs on
   a 2-core x86-64 host; with the reference kernel timed between
   migrations (see [Speed]), 200 took about 20 s. *)
let migrations ~seconds = max (Stats.samples_for 0.9) (10 * seconds)

(* ---- the child: one migration, reported as key=value pairs ---- *)

let op_kinds = [ "promote"; "drop"; "merge"; "rename_att"; "rename_rel" ]

let child ~input ~output ~trace =
  let agg = Telemetry.Agg.create () in
  let telemetry =
    if trace then Telemetry.create (Telemetry.Agg.sink agg) else Telemetry.disabled
  in
  let cfg = Migrate.config ~chunk_rows ~jobs ~telemetry () in
  let strings0, values0 = Intern.size () in
  let major0 = (Gc.quick_stat ()).Gc.major_words in
  let t0 = Proc.now () in
  let cdb =
    In_channel.with_open_bin input (fun ic ->
        Migrate.ingest_channel cfg Migrate.Cdb.empty ~name:"Prices" ic)
  in
  let t1 = Proc.now () in
  let out, stats =
    Migrate.run ~registry:Workloads.Flights.registry cfg
      Workloads.Flights.example2_expression cdb
  in
  let t2 = Proc.now () in
  let idb = Migrate.Cdb.to_idb out in
  let t3 = Proc.now () in
  Out_channel.with_open_bin output (fun oc ->
      Idb.fold (fun _ r () -> Migrate.emit_channel cfg oc r) idb ());
  let t4 = Proc.now () in
  let strings1, values1 = Intern.size () in
  let ms a b = (b -. a) *. 1000. in
  let fields =
    [
      ("pipeline_ms", ms t0 t4);
      ("ingest_ms", ms t0 t1);
      ("run_ms", ms t1 t2);
      ("to_idb_ms", ms t2 t3);
      ("emit_ms", ms t3 t4);
      ("row_visits", float_of_int stats.Migrate.row_visits);
      ("rows_out", float_of_int stats.Migrate.rows_out);
      ("chunks_in", float_of_int stats.Migrate.chunks_in);
      ("intern_growth", float_of_int (strings1 - strings0 + values1 - values0));
      ("major_words", (Gc.quick_stat ()).Gc.major_words -. major0);
      ("pool_tasks", float_of_int (Telemetry.Agg.counter agg "pool.task"));
      ("peak_rss_mb", Proc.peak_rss_mb "self");
    ]
    @ List.map
        (fun k ->
          ( "op." ^ k ^ "_ms",
            Telemetry.Agg.timer_total_s agg ("migrate.op." ^ k) *. 1000. ))
        op_kinds
  in
  print_endline
    (String.concat " "
       (List.map (fun (k, v) -> Printf.sprintf "%s=%.17g" k v) fields))

(* ---- the parent ---- *)

type report = { fields : (string * float) list; wall_s : float; digest : Gen.digest }

let field r k = List.assoc k r.fields

let migrate_once ~self ~workdir ~input ~trace =
  let output = Filename.concat workdir "out.csv" in
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = Proc.now () in
  let pid =
    Proc.spawn self
      [ "--migrate-child"; input; output; (if trace then "1" else "0") ]
      ~stdout:w
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let line =
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> input_line ic)
  in
  Proc.check_exit "migration" (Proc.reap pid);
  let wall_s = Proc.now () -. t0 in
  let fields =
    String.split_on_char ' ' line
    |> List.map (fun kv ->
           Scanf.sscanf kv "%[^=]=%f" (fun k v -> (k, v)))
  in
  let digest = In_channel.with_open_bin output Gen.digest_channel in
  Sys.remove output;
  { fields; wall_s; digest }

let write_input ~seed ~workdir =
  let path = Filename.concat workdir "prices.csv" in
  let t0 = Proc.now () in
  let input = Gen.mig_input ~seed in
  Out_channel.with_open_bin path (fun oc -> output_string oc (Gen.mig_csv input));
  (path, input, Proc.now () -. t0)

(* [n] migrations of one input, with the host speed read around each
   (see [Speed]); returns their reports and factors, and the number whose
   output differs from the expected rows. *)
let migrate_many ~self ~workdir ~input ~expected ~trace n =
  let timed = Speed.around ~domains:jobs n (fun _ -> migrate_once ~self ~workdir ~input ~trace) in
  let reports = Speed.results timed in
  let bad =
    Array.fold_left (fun k r -> if r.digest = expected then k else k + 1) 0 reports
  in
  (reports, Speed.factors timed, bad)

let column reports k = Array.map (fun r -> field r k) reports

let run ~self ~workdir ~seed ~seconds =
  let n = migrations ~seconds in
  Report.record "mig: %d migrations of %d rows, --jobs %d, --chunk-rows %d" n
    (Gen.mig_carriers * Gen.mig_routes_each) jobs chunk_rows;
  let writes = Speed.around setups (fun _ -> write_input ~seed ~workdir) in
  let input, gen, _ = fst writes.(0) in
  let expected = Gen.mig_expected gen in
  let reports, factors, bad =
    migrate_many ~self ~workdir ~input ~expected ~trace:false n
  in
  Sys.remove input;
  let raw = column reports "pipeline_ms" in
  let pipeline = Array.map2 ( *. ) raw factors in
  Report.deciles "mig: raw pipeline ms" raw;
  Report.deciles "mig: scaled pipeline ms" pipeline;
  Report.record "mig: raw p50 %.3f ms, p90 %.3f ms; mean speed factor %.4f"
    (Stats.reported 0.5 raw) (Stats.reported 0.9 raw) (Stats.mean factors);
  let rows_in = float_of_int (Gen.mig_rows_in gen) in
  (* totals over the run of times at the nominal speed *)
  let total_s k =
    Array.fold_left ( +. ) 0. (Array.map2 ( *. ) (column reports k) factors) /. 1000.
  in
  let wall_s =
    Array.fold_left ( +. ) 0. (Array.map2 (fun r f -> r.wall_s *. f) reports factors)
  in
  let visits = Array.fold_left ( +. ) 0. (column reports "row_visits") in
  {
    Report.attempted = n;
    failed = bad;
    problems = [];
    metrics =
      Report.
        [
          metric "setup_s" "s"
            (Stats.median (Array.map (fun ((_, _, t), f) -> t *. f) writes))
            ~samples:setups;
          metric "p50_ms" "ms" (Stats.reported 0.5 pipeline) ~samples:n;
          metric "p90_ms" "ms" (Stats.reported 0.9 pipeline) ~samples:n;
          (* row visits per second of [Migrate.run], the rate
             `tupelo migrate` prints *)
          metric "capacity_per_s" "1/s" (visits /. total_s "run_ms") ~samples:n;
          (* migrations per second, back to back *)
          metric "throughput_per_s" "1/s" (float_of_int n /. wall_s) ~samples:n;
          metric "rows_per_s" "1/s"
            (float_of_int n *. rows_in /. total_s "pipeline_ms")
            ~samples:n;
          metric "peak_rss_mb" "MB" (Stats.median (column reports "peak_rss_mb"))
            ~samples:n;

        ];
  }

(* ---- the traced run ---- *)

let traced_migrations = 15

let traced ~self ~workdir ~seed =
  let input, gen, _ = write_input ~seed ~workdir in
  let expected = Gen.mig_expected gen in
  let many trace =
    migrate_many ~self ~workdir ~input ~expected ~trace traced_migrations
  in
  let plain, plain_factors, bad_plain = many false in
  let reports, factors, bad = many true in
  Sys.remove input;
  let scaled reports factors k = Array.map2 ( *. ) (column reports k) factors in
  let m k = Stats.median (column reports k) in
  let n = traced_migrations in
  let ms k = Report.metric ("mig." ^ k) "ms" (m k) ~samples:n in
  let count k = Report.metric ("mig." ^ k) "count" (m k) ~samples:n in
  {
    Report.attempted = 2 * n;
    failed = bad_plain + bad;
    problems = [];
    metrics =
      List.map ms [ "ingest_ms"; "run_ms"; "to_idb_ms"; "emit_ms" ]
      @ List.map (fun k -> ms ("op." ^ k ^ "_ms")) op_kinds
      @ List.map count [ "row_visits"; "rows_out"; "chunks_in"; "pool_tasks"; "intern_growth" ]
      @ Report.
          [
            metric "mig.major_words" "words" (m "major_words") ~samples:n;
            metric "mig.trace_overhead_ms" "ms"
              (Stats.median (scaled reports factors "pipeline_ms")
              -. Stats.median (scaled plain plain_factors "pipeline_ms"))
              ~samples:n;
          ];
  }
