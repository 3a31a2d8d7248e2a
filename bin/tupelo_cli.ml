(* The tupelo command-line interface.

   Critical instances are given as one CSV file per relation, written
   NAME=path.csv. Complex semantic functions are given as TNF annotation
   strings (the §4 encoding), e.g.

     tupelo discover \
       --source Prices=b.csv --target Flights=a.csv \
       --algorithm rbfs --heuristic cosine

     tupelo discover --source i.csv --target o.csv \
       --semfun 'λtotal/2[Cost,AgentFee>TotalCost]:100␟15→115' ...

   See README.md for a walkthrough. *)

open Cmdliner
open Relational

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* "Name=path.csv" or bare "path.csv" (relation named after the file). *)
let parse_rel_spec spec =
  match String.index_opt spec '=' with
  | Some i ->
      (String.sub spec 0 i, String.sub spec (i + 1) (String.length spec - i - 1))
  | None ->
      let base = Filename.remove_extension (Filename.basename spec) in
      (base, spec)

(* Load REL=FILE.csv specs, blaming the offending spec on failure: a
   bare [Csv.Error]/[Sys_error] out of a ten-relation command line gives
   no clue which --source/--target file was at fault. *)
let load_database ~what specs =
  let context fmt = Printf.sprintf fmt in
  List.fold_left
    (fun db spec ->
      let name, path = parse_rel_spec spec in
      if Database.mem db name then
        raise
          (Csv.Error
             (context "%s relation %S (%s): duplicate relation name" what name
                path));
      let contents =
        try read_file path
        with Sys_error m ->
          raise (Csv.Error (context "%s relation %S: %s" what name m))
      in
      let rel =
        try Csv.parse_relation contents
        with Csv.Error m ->
          raise (Csv.Error (context "%s relation %S (%s): %s" what name path m))
      in
      try Database.add db name rel
      with Database.Error m ->
        raise (Csv.Error (context "%s relation %S (%s): %s" what name path m)))
    Database.empty specs

(* --- common options --- *)

let source_arg =
  Arg.(
    non_empty
    & opt_all string []
    & info [ "s"; "source" ] ~docv:"REL=FILE.csv"
        ~doc:"Source critical-instance relation (repeatable).")

let target_arg =
  Arg.(
    non_empty
    & opt_all string []
    & info [ "t"; "target" ] ~docv:"REL=FILE.csv"
        ~doc:"Target critical-instance relation (repeatable).")

let algorithm_arg =
  Arg.(
    value
    & opt string "rbfs"
    & info [ "a"; "algorithm" ] ~docv:"ALG"
        ~doc:
          "Search algorithm: ida, ida-tt, rbfs, astar, greedy, beam[:W], \
           bfs or portfolio (race several algorithm/heuristic \
           configurations across --jobs domains, first mapping wins).")

let jobs_arg =
  Arg.(
    value
    & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Number of CPU domains for the parallel engine: beam and astar \
           expand their frontiers across $(docv) domains; portfolio races \
           its entrants on $(docv) domains. 1 = sequential; 0 = one per \
           available core.")

let heuristic_arg =
  Arg.(
    value
    & opt string "cosine"
    & info [ "H"; "heuristic" ] ~docv:"H"
        ~doc:
          "Search heuristic: h0, h1, h2, h3, euclid, euclid-norm, cosine or \
           levenshtein.")

let goal_arg =
  Arg.(
    value
    & opt string "superset"
    & info [ "g"; "goal" ] ~docv:"MODE"
        ~doc:
          "Goal test: superset (the paper's), exact, or schema \
           (structure only — the coarsest multiresolution answer).")

let partial_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "partial" ] ~docv:"REL[,REL]"
        ~doc:
          "Restrict discovery to this subset of target relations \
           (repeatable, comma-separable). The search works toward the \
           named relations only; combine with -g schema for the \
           coarsest answer.")

let split_partial specs =
  List.concat_map
    (fun spec ->
      List.filter_map
        (fun s -> match String.trim s with "" -> None | s -> Some s)
        (String.split_on_char ',' spec))
    specs

let budget_arg =
  Arg.(
    value
    & opt int 1_000_000
    & info [ "b"; "budget" ] ~docv:"N"
        ~doc:"Give up after examining $(docv) states.")

let semfun_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "f"; "semfun" ] ~docv:"ANNOTATION"
        ~doc:
          "Complex semantic function as a TNF annotation string \
           (repeatable; one per example).")

let paper_arg =
  Arg.(
    value & flag
    & info [ "paper-notation" ]
        ~doc:"Print the mapping in the paper's R1 := … notation.")

let save_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "save" ] ~docv:"FILE"
        ~doc:"Write the discovered mapping expression to $(docv) (replayable               with the apply subcommand).")

let run_on_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "run-on" ] ~docv:"REL=FILE.csv"
        ~doc:
          "After discovery, execute the mapping on this instance of the \
           source schema and print the result (repeatable).")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a JSONL trace of telemetry events (search \
           examinations/expansions/prunes, frontier gauges, pool and \
           portfolio activity, memo and operator counters) to $(docv), one \
           JSON object per line.")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Aggregate telemetry in memory and print a per-discovery metrics \
           summary after the run.")

let fail fmt = Format.kasprintf (fun m -> `Error (false, m)) fmt

(* Build the telemetry handle requested by --trace/--metrics, run [k] with
   it, then print the aggregated summary and close the trace file. With
   neither flag the handle is {!Telemetry.disabled} and discovery runs on
   the allocation-free path. *)
let with_telemetry trace metrics k =
  let agg = if metrics then Some (Telemetry.Agg.create ()) else None in
  let run oc =
    let sinks =
      (match oc with Some oc -> [ Telemetry.Sink.jsonl_channel oc ] | None -> [])
      @ (match agg with Some a -> [ Telemetry.Agg.sink a ] | None -> [])
    in
    let telemetry =
      match sinks with
      | [] -> Telemetry.disabled
      | [ s ] -> Telemetry.create s
      | ss -> Telemetry.create (Telemetry.Sink.tee ss)
    in
    let r = k telemetry in
    (match agg with
    | Some a ->
        print_newline ();
        print_string (Telemetry.Agg.summary a)
    | None -> ());
    r
  in
  match trace with
  | Some path ->
      let oc = open_out_bin path in
      let r =
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> run (Some oc))
      in
      Printf.printf "trace written to %s\n" path;
      r
  | None -> run None

(* --- discover --- *)

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let discover_cmd_run source target algorithm heuristic goal partial budget
    jobs semfuns anytime frontier_path paper save run_on trace metrics =
  try
    let source = load_database ~what:"--source" source in
    let target = load_database ~what:"--target" target in
    let registry =
      Fira.Semfun.of_list (Fira.Semfun.decode_annotations semfuns)
    in
    let algorithm_opt = Tupelo.Discover.algorithm_of_string algorithm in
    match algorithm_opt with
    | None -> fail "unknown algorithm %S" algorithm
    | Some _ when jobs < 0 -> fail "--jobs must be >= 0 (got %d)" jobs
    | Some _ when budget <= 0 -> fail "--budget must be > 0 (got %d)" budget
    | Some alg -> (
        let jobs =
          if jobs = 0 then Search.Pool.default_domains () else jobs
        in
        let scaling = Tupelo.Discover.scaling_for alg in
        let heuristic_opt = Heuristics.Heuristic.by_name scaling heuristic in
        let goal_opt = Tupelo.Goal.mode_of_string goal in
        let partial = split_partial partial in
        match (heuristic_opt, goal_opt) with
        | None, _ -> fail "unknown heuristic %S" heuristic
        | _, None -> fail "unknown goal mode %S" goal
        | Some heuristic, Some goal -> (
            match
              List.find_opt
                (fun rel -> Database.find_opt target rel = None)
                partial
            with
            | Some rel -> fail "--partial: no target relation %S" rel
            | None -> (
                let resume =
                  match frontier_path with
                  | Some path when Sys.file_exists path -> (
                      match
                        Tupelo.Discover.frontier_of_string (read_file path)
                      with
                      | Ok fr -> Ok (Some fr)
                      | Error m ->
                          Error (Printf.sprintf "--frontier %s: %s" path m))
                  | _ -> Ok None
                in
                match resume with
                | Error m -> fail "%s" m
                | Ok resume ->
                    with_telemetry trace metrics @@ fun telemetry ->
                    let config =
                      Tupelo.Discover.config ~algorithm:alg ~heuristic ~goal
                        ~partial ~budget ~jobs ~telemetry ()
                    in
                    let report = function
                      | Tupelo.Discover.Mapping m ->
                          Printf.printf
                            "discovered: %d operators, %d states examined, \
                             %.3fs\n\n"
                            (Tupelo.Mapping.length m)
                            m.Tupelo.Mapping.stats.Search.Space.examined
                            m.Tupelo.Mapping.stats.Search.Space.elapsed_s;
                          print_endline
                            (if paper then
                               Fira.Expr.to_paper_string m.Tupelo.Mapping.expr
                             else Fira.Expr.to_string m.Tupelo.Mapping.expr);
                          (match save with
                          | Some path ->
                              write_file path
                                (Fira.Parser.expr_to_file_string
                                   m.Tupelo.Mapping.expr);
                              Printf.printf "\nmapping saved to %s\n" path
                          | None -> ());
                          if run_on <> [] then begin
                            let instance =
                              load_database ~what:"--run-on" run_on
                            in
                            print_endline
                              "\nresult of executing the mapping:";
                            print_endline
                              (Database.to_string
                                 (Tupelo.Mapping.apply registry m instance))
                          end;
                          `Ok ()
                      | Tupelo.Discover.No_mapping stats ->
                          Printf.printf
                            "no mapping exists in the (budgeted) space; %d \
                             states examined\n"
                            stats.Search.Space.examined;
                          `Ok ()
                      | Tupelo.Discover.Gave_up stats ->
                          Printf.printf "gave up after %d states\n"
                            stats.Search.Space.examined;
                          `Ok ()
                    in
                    if (not anytime) && frontier_path = None then
                      report
                        (Tupelo.Discover.discover ~registry config ~source
                           ~target)
                    else begin
                      let on_incumbent (inc : Tupelo.Discover.incumbent) =
                        if anytime then
                          Printf.printf
                            "incumbent after %d states: %d ops, h=%d, \
                             coverage %d/%d [%s]\n\
                             %!"
                            inc.Tupelo.Discover.inc_seq
                            inc.Tupelo.Discover.inc_cost
                            inc.Tupelo.Discover.inc_h
                            inc.Tupelo.Discover.inc_covered
                            inc.Tupelo.Discover.inc_total
                            inc.Tupelo.Discover.inc_entrant
                      in
                      let result =
                        Tupelo.Discover.discover_anytime ~registry
                          ~on_incumbent ?resume config ~source ~target
                      in
                      (match
                         (frontier_path, result.Tupelo.Discover.a_frontier)
                       with
                      | Some path, Some fr ->
                          write_file path
                            (Tupelo.Discover.frontier_to_string fr);
                          Printf.printf
                            "frontier checkpointed to %s (rerun with \
                             --frontier %s to continue)\n"
                            path path
                      | Some path, None ->
                          (* the checkpoint was consumed (or none was
                             produced): a rerun must not resurrect it *)
                          if resume <> None && Sys.file_exists path then
                            Sys.remove path
                      | None, _ -> ());
                      report result.Tupelo.Discover.a_outcome
                    end)))
  with
  | Sys_error m | Csv.Error m | Database.Error m | Fira.Semfun.Error m ->
      fail "%s" m

let discover_cmd =
  let doc = "discover a mapping expression between two critical instances" in
  let anytime =
    Arg.(
      value & flag
      & info [ "anytime" ]
          ~doc:
            "Print each improving incumbent (best partial mapping seen so \
             far) while the search runs.")
  in
  let frontier =
    Arg.(
      value
      & opt (some string) None
      & info [ "frontier" ] ~docv:"FILE"
          ~doc:
            "Checkpoint file for resumable discovery: when the budget runs \
             out the search frontier is saved to $(docv), and a rerun with \
             the same flag resumes from it instead of starting over.")
  in
  Cmd.v
    (Cmd.info "discover" ~doc)
    Term.(
      ret
        (const discover_cmd_run $ source_arg $ target_arg $ algorithm_arg
       $ heuristic_arg $ goal_arg $ partial_arg $ budget_arg $ jobs_arg
       $ semfun_arg $ anytime $ frontier $ paper_arg $ save_arg $ run_on_arg
       $ trace_arg $ metrics_arg))

(* --- apply --- *)

let apply_cmd_run mapping_path instance semfuns csv_out =
  try
    let text = read_file mapping_path in
    match Fira.Parser.expr_of_string text with
    | Error m -> fail "%s: %s" mapping_path m
    | Ok expr ->
        let registry =
          Fira.Semfun.of_list (Fira.Semfun.decode_annotations semfuns)
        in
        let db = load_database ~what:"instance" instance in
        let result = Fira.Expr.eval registry expr db in
        (match csv_out with
        | None -> print_endline (Database.to_string result)
        | Some dir ->
            List.iter
              (fun (name, rel) ->
                let path = Filename.concat dir (name ^ ".csv") in
                write_file path (Csv.print_relation rel);
                Printf.printf "wrote %s\n" path)
              (Database.relations result));
        `Ok ()
  with
  | Sys_error m | Csv.Error m | Database.Error m | Fira.Semfun.Error m
  | Fira.Eval.Error m ->
      fail "%s" m

let apply_cmd =
  let doc = "execute a saved mapping expression on an instance" in
  let mapping =
    Arg.(
      required
      & opt (some string) None
      & info [ "m"; "mapping" ] ~docv:"FILE"
          ~doc:"Mapping expression file (from discover --save).")
  in
  let instance =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"REL=FILE.csv" ~doc:"Instance to transform.")
  in
  let csv_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv-out" ] ~docv:"DIR"
          ~doc:"Write each result relation as a CSV file into $(docv).")
  in
  Cmd.v (Cmd.info "apply" ~doc)
    Term.(
      ret (const apply_cmd_run $ mapping $ instance $ semfun_arg $ csv_out))

(* --- migrate --- *)

let migrate_cmd_run program_path inputs semfuns out_dir jobs chunk_rows =
  if jobs < 0 then fail "--jobs must be >= 0 (got %d)" jobs
  else if chunk_rows < 1 then
    fail "--chunk-rows must be >= 1 (got %d)" chunk_rows
  else
  try
    let text = read_file program_path in
    match Fira.Parser.expr_of_string text with
    | Error m -> fail "%s: %s" program_path m
    | Ok expr ->
        let registry =
          Fira.Semfun.of_list (Fira.Semfun.decode_annotations semfuns)
        in
        let jobs = if jobs = 0 then Search.Pool.default_domains () else jobs in
        let cfg = Migrate.config ~chunk_rows ~jobs () in
        let cdb =
          List.fold_left
            (fun cdb spec ->
              let name, path = parse_rel_spec spec in
              let ic =
                try open_in_bin path
                with Sys_error m ->
                  raise
                    (Migrate.Error
                       (Printf.sprintf "input relation %S: %s" name m))
              in
              Fun.protect
                ~finally:(fun () -> close_in_noerr ic)
                (fun () ->
                  try Migrate.ingest_channel cfg cdb ~name ic
                  with Csv.Error m ->
                    raise
                      (Migrate.Error
                         (Printf.sprintf "input relation %S (%s): %s" name path
                            m))))
            Migrate.Cdb.empty inputs
        in
        let out, stats = Migrate.run ~registry cfg expr cdb in
        let idb = Migrate.Cdb.to_idb out in
        (match out_dir with
        | Some dir ->
            if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
            Idb.fold
              (fun name r () ->
                let path =
                  Filename.concat dir (Intern.string_of_id name ^ ".csv")
                in
                let oc = open_out_bin path in
                Fun.protect
                  ~finally:(fun () -> close_out_noerr oc)
                  (fun () -> Migrate.emit_channel cfg oc r);
                Printf.printf "wrote %s\n" path)
              idb ()
        | None ->
            Idb.fold
              (fun name r () ->
                Printf.printf "# relation %s\n" (Intern.string_of_id name);
                Migrate.emit_channel cfg stdout r;
                flush stdout)
              idb ());
        Printf.eprintf
          "migrated %d rows -> %d rows: %d ops over %d chunks, %.3fs, %.0f \
           row-visits/s (jobs=%d, chunk-rows=%d)\n"
          stats.Migrate.rows_in
          (* the rows written: cross-chunk duplicates counted once *)
          (Idb.fold (fun _ r n -> n + Irel.cardinality r) idb 0)
          stats.Migrate.ops
          stats.Migrate.chunks_in stats.Migrate.elapsed_s
          (float_of_int stats.Migrate.row_visits
          /. Float.max 1e-9 stats.Migrate.elapsed_s)
          jobs chunk_rows;
        `Ok ()
  with
  | Sys_error m | Csv.Error m | Migrate.Error m | Fira.Semfun.Error m ->
      fail "%s" m

let migrate_cmd =
  let doc = "bulk-execute a mapping program over full-size CSV instances" in
  let program =
    Arg.(
      required
      & opt (some string) None
      & info [ "p"; "program" ] ~docv:"FILE"
          ~doc:"Mapping expression file (from discover --save).")
  in
  let inputs =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"REL=FILE.csv"
          ~doc:"Input relation, streamed chunk by chunk (repeatable).")
  in
  let out_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv-out" ] ~docv:"DIR"
          ~doc:
            "Write each result relation as $(docv)/<name>.csv (default: \
             stream everything to stdout).")
  in
  let jobs =
    Arg.(
      value
      & opt int 0
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Domains for chunk-parallel operator application. 1 = \
             sequential; 0 = one per available core.")
  in
  let chunk_rows =
    Arg.(
      value
      & opt int 65536
      & info [ "chunk-rows" ] ~docv:"N"
          ~doc:
            "Rows per columnar chunk: bounds ingest memory and sets the \
             parallel task granularity.")
  in
  Cmd.v (Cmd.info "migrate" ~doc)
    Term.(
      ret
        (const migrate_cmd_run $ program $ inputs $ semfun_arg $ out_dir
       $ jobs $ chunk_rows))

(* --- tnf --- *)

let tnf_cmd_run inputs as_sql =
  try
    let db = load_database ~what:"input" inputs in
    if as_sql then print_string (Tnf.sql_script db)
    else print_endline (Relation.to_string (Tnf.encode db));
    `Ok ()
  with Sys_error m | Csv.Error m | Database.Error m -> fail "%s" m

let tnf_cmd =
  let doc = "print the Tuple Normal Form of a database" in
  let inputs =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"REL=FILE.csv" ~doc:"Relations to encode.")
  in
  let as_sql =
    Arg.(
      value & flag
      & info [ "sql" ]
          ~doc:"Emit the SQL script that materializes the TNF instead.")
  in
  Cmd.v (Cmd.info "tnf" ~doc) Term.(ret (const tnf_cmd_run $ inputs $ as_sql))

(* --- sql --- *)

let sql_cmd_run inputs script_path =
  try
    let db = load_database ~what:"input" inputs in
    let script = read_file script_path in
    let results = Sql.exec_script db script in
    List.iter
      (fun r ->
        match r.Sql.relation with
        | Some rel -> print_endline (Relation.to_string rel)
        | None -> ())
      results;
    `Ok ()
  with
  | Sys_error m | Csv.Error m | Database.Error m | Sql.Error m -> fail "%s" m

let sql_cmd =
  let doc = "run a SQL script against CSV-loaded relations" in
  let inputs =
    Arg.(
      value & opt_all string []
      & info [ "load" ] ~docv:"REL=FILE.csv" ~doc:"Relations to load first.")
  in
  let script =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SCRIPT.sql" ~doc:"SQL script to execute.")
  in
  Cmd.v (Cmd.info "sql" ~doc) Term.(ret (const sql_cmd_run $ inputs $ script))

(* --- serve --- *)

let host_arg =
  Arg.(
    value
    & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"ADDR" ~doc:"Address to bind or connect to.")

let port_arg ~default =
  Arg.(
    value
    & opt int default
    & info [ "p"; "port" ] ~docv:"PORT"
        ~doc:"TCP port (0 = pick an ephemeral port).")

let serve_cmd_run host port queue workers jobs budget timeout_ms
    read_timeout_ms max_payload cache_capacity cache_shards frontier_capacity
    frontier_ttl_ms no_search_telemetry trace metrics =
  try
    let agg = if metrics then Some (Telemetry.Agg.create ()) else None in
    let with_trace k =
      match trace with
      | Some path ->
          let oc = open_out_bin path in
          let r =
            Fun.protect
              ~finally:(fun () -> close_out_noerr oc)
              (fun () -> k (Some (Telemetry.Sink.jsonl_channel oc)))
          in
          Printf.printf "trace written to %s\n" path;
          r
      | None -> k None
    in
    with_trace @@ fun trace_sink ->
    let trace_sink =
      match (trace_sink, agg) with
      | Some s, Some a -> Some (Telemetry.Sink.tee [ s; Telemetry.Agg.sink a ])
      | Some s, None -> Some s
      | None, Some a -> Some (Telemetry.Agg.sink a)
      | None, None -> None
    in
    let config =
      Server.Daemon.config ~host ~port ~queue_capacity:queue ~workers ~jobs
        ~budget ~timeout_ms ~read_timeout_ms ~max_payload ~cache_capacity
        ~cache_shards ~frontier_capacity ~frontier_ttl_ms
        ~search_telemetry:(not no_search_telemetry) ?trace_sink ()
    in
    (* Report the bound address once the server is up and its signal
       handlers are installed: scripts wait for this line, then talk to
       the port (which matters with --port 0) or signal the process. *)
    Server.Daemon.run config ~on_ready:(fun t ->
        Printf.printf "tupelo server listening on %s:%d\n%!" host
          (Server.Daemon.port t));
    print_endline "shut down: in-flight requests drained";
    (match agg with
    | Some a ->
        print_newline ();
        print_string (Telemetry.Agg.summary a)
    | None -> ());
    `Ok ()
  with
  | Invalid_argument m -> fail "%s" m
  | Unix.Unix_error (e, fn, arg) ->
      fail "%s %s: %s" fn arg (Unix.error_message e)

let serve_cmd =
  let doc = "run the mapping-discovery server (POST /discover, GET /healthz, GET /stats)" in
  let queue =
    Arg.(
      value & opt int 64
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Admission-queue capacity; requests beyond it are refused \
             with 429 (backpressure).")
  in
  let workers =
    Arg.(
      value & opt int 2
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Concurrent discovery searches: worker threads, packed onto \
             at most cores-1 domains.")
  in
  let timeout =
    Arg.(
      value & opt int 30_000
      & info [ "timeout-ms" ] ~docv:"MS"
          ~doc:
            "Default per-request deadline; a search past it is \
             cancelled cooperatively and reported as a timeout.")
  in
  let read_timeout =
    Arg.(
      value & opt int 10_000
      & info [ "read-timeout-ms" ] ~docv:"MS"
          ~doc:
            "Deadline for completing a partially received request; a \
             connection dribbling a header slower than this gets 408 \
             and is closed (slow-loris protection).")
  in
  let max_payload =
    Arg.(
      value
      & opt int (8 * 1024 * 1024)
      & info [ "max-payload" ] ~docv:"BYTES"
          ~doc:"Request-body and per-relation CSV size limit (413 beyond).")
  in
  let cache_shards =
    Arg.(
      value & opt int 8
      & info [ "cache-shards" ] ~docv:"N"
          ~doc:
            "Independent LRU shards in the mapping cache (per-shard \
             locks; routed by schema fingerprints so drifted pairs \
             warm-start from their owning shard).")
  in
  let cache_capacity =
    Arg.(
      value & opt int 256
      & info [ "cache" ] ~docv:"N"
          ~doc:
            "Mapping-cache entries: discovered mappings are remembered \
             by the (source, target) instance fingerprints, LRU-evicted.")
  in
  let frontier_capacity =
    Arg.(
      value & opt int 32
      & info [ "frontier-capacity" ] ~docv:"N"
          ~doc:
            "Retained resume checkpoints for anytime requests that gave \
             up; beyond it the oldest checkpoint is evicted.")
  in
  let frontier_ttl =
    Arg.(
      value & opt int 300_000
      & info [ "frontier-ttl-ms" ] ~docv:"MS"
          ~doc:"How long an unredeemed resume token stays valid.")
  in
  let no_search_telemetry =
    Arg.(
      value & flag
      & info [ "no-search-telemetry" ]
          ~doc:
            "Only server-level events (requests, queue, cache) reach \
             --trace/--metrics; omit the per-state search event stream. \
             Without --trace or --metrics no search event is emitted \
             anyway.")
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      ret
        (const serve_cmd_run $ host_arg $ port_arg ~default:8080 $ queue
       $ workers $ jobs_arg $ budget_arg $ timeout $ read_timeout
       $ max_payload $ cache_capacity $ cache_shards $ frontier_capacity
       $ frontier_ttl $ no_search_telemetry $ trace_arg $ metrics_arg))

(* --- request --- *)

let request_cmd_run host port source target algorithm heuristic goal partial
    budget jobs timeout_ms semfuns anytime resume health stats =
  try
    let get path =
      match Server.Client.once ~host ~port ~meth:"GET" ~path () with
      | Ok (200, body) ->
          print_endline body;
          `Ok ()
      | Ok (status, body) -> fail "HTTP %d: %s" status body
      | Error m -> fail "%s" m
    in
    if health then get "/healthz"
    else if stats then get "/stats"
    else begin
      (* the final response prints last either way; incumbent frames
         stream above it as they arrive *)
      let on_frame = function
        | Server.Protocol.F_incumbent i ->
            print_endline
              (Server.Json.to_string (Server.Protocol.encode_incumbent i))
        | Server.Protocol.F_final _ | Server.Protocol.F_error _ -> ()
      in
      let print_final (resp : Server.Protocol.discover_response) =
        print_endline
          (Server.Json.to_string (Server.Protocol.encode_response resp));
        if resp.Server.Protocol.outcome = "mapping" then `Ok ()
        else `Error (false, "no mapping: " ^ resp.Server.Protocol.outcome)
      in
      let with_conn k =
        let conn = Server.Client.connect ~host ~port in
        Fun.protect
          ~finally:(fun () -> Server.Client.close conn)
          (fun () ->
            match k conn with
            | Error m -> fail "%s" m
            | Ok (status, Error m) -> fail "HTTP %d: %s" status m
            | Ok (_, Ok resp) -> print_final resp)
      in
      match resume with
      | Some token ->
          with_conn (fun conn ->
              Server.Client.discover_resume conn ~on_frame token)
      | None ->
          let csv_specs specs =
            List.map
              (fun spec ->
                let name, path = parse_rel_spec spec in
                (name, read_file path))
              specs
          in
          if source = [] || target = [] then
            fail
              "--source and --target are required (or use \
               --health/--stats/--resume)"
          else
            let req =
              Server.Protocol.request ~algorithm ~heuristic ~goal
                ~partial:(split_partial partial) ~budget ~jobs ?timeout_ms
                ~semfuns ~source:(csv_specs source)
                ~target:(csv_specs target) ()
            in
            with_conn (fun conn ->
                if anytime then
                  Server.Client.discover_anytime conn ~on_frame req
                else Server.Client.discover conn req)
    end
  with
  | Sys_error m -> fail "%s" m
  | Unix.Unix_error (e, fn, _) -> fail "%s: %s" fn (Unix.error_message e)

let request_cmd =
  let doc = "send one request to a running mapping-discovery server" in
  let source =
    Arg.(
      value & opt_all string []
      & info [ "s"; "source" ] ~docv:"REL=FILE.csv"
          ~doc:"Source critical-instance relation (repeatable).")
  in
  let target =
    Arg.(
      value & opt_all string []
      & info [ "t"; "target" ] ~docv:"REL=FILE.csv"
          ~doc:"Target critical-instance relation (repeatable).")
  in
  let timeout =
    Arg.(
      value
      & opt (some int) None
      & info [ "timeout-ms" ] ~docv:"MS"
          ~doc:"Per-request deadline override.")
  in
  let health =
    Arg.(value & flag & info [ "health" ] ~doc:"GET /healthz instead.")
  in
  let stats =
    Arg.(value & flag & info [ "stats" ] ~doc:"GET /stats instead.")
  in
  let anytime =
    Arg.(
      value & flag
      & info [ "anytime" ]
          ~doc:
            "Stream the request ([/discover?anytime=1]): improving \
             incumbent frames print as they arrive, then the final \
             response. A budget-starved search's final frame carries a \
             resume_token for --resume.")
  in
  let resume =
    Arg.(
      value
      & opt (some string) None
      & info [ "resume" ] ~docv:"TOKEN"
          ~doc:
            "Redeem a resume_token from an earlier --anytime response and \
             continue that search where it stopped (tokens are \
             single-use).")
  in
  Cmd.v (Cmd.info "request" ~doc)
    Term.(
      ret
        (const request_cmd_run $ host_arg $ port_arg ~default:8080 $ source
       $ target $ algorithm_arg $ heuristic_arg $ goal_arg $ partial_arg
       $ budget_arg $ jobs_arg $ timeout $ semfun_arg $ anytime $ resume
       $ health $ stats))

(* --- fuzz --- *)

(* "HOST:PORT", with or without an http:// prefix or trailing slash. *)
let parse_server url =
  let url =
    match String.index_opt url '/' with
    | Some _ when String.length url > 7 && String.sub url 0 7 = "http://" ->
        String.sub url 7 (String.length url - 7)
    | _ -> url
  in
  let url =
    match String.index_opt url '/' with
    | Some i -> String.sub url 0 i
    | None -> url
  in
  match String.rindex_opt url ':' with
  | None -> None
  | Some i -> (
      let host = String.sub url 0 i in
      match int_of_string_opt (String.sub url (i + 1) (String.length url - i - 1)) with
      | Some port when host <> "" && port > 0 -> Some (host, port)
      | _ -> None)

let shape_of_string = function
  | "default" -> Some Workloads.Random_db.default_shape
  | "fuzz" -> Some Workloads.Random_db.fuzz_shape
  | "wide" -> Some Workloads.Random_db.wide_shape
  | "skewed" -> Some Workloads.Random_db.skewed_shape
  | _ -> None

let fuzz_cmd_run trials seed depth algorithm heuristic budget search_jobs jobs
    time_budget server corpus_dir shrink_attempts not_found_fails oracle_mode
    shape_name =
  try
    if trials < 0 then fail "--trials must be >= 0 (got %d)" trials
    else if depth < 0 then fail "--depth must be >= 0 (got %d)" depth
    else if budget <= 0 then fail "--budget must be > 0 (got %d)" budget
    else if jobs < 0 then fail "--jobs must be >= 0 (got %d)" jobs
    else
      match shape_of_string shape_name with
      | None ->
          fail "--shape: unknown shape %S (want default|fuzz|wide|skewed)"
            shape_name
      | Some shape -> (
      match Fuzz.Oracle.mode_of_string oracle_mode with
      | None ->
          fail
            "--oracle: unknown mode %S (want \
             replay|invert|compose|drift|anytime)"
            oracle_mode
      | Some omode -> (
      match Tupelo.Discover.algorithm_of_string algorithm with
      | None -> fail "unknown algorithm %S" algorithm
      | Some alg -> (
          let scaling = Tupelo.Discover.scaling_for alg in
          match Heuristics.Heuristic.by_name scaling heuristic with
          | None -> fail "unknown heuristic %S" heuristic
          | Some _ -> (
              let mode =
                match server with
                | None -> Ok Fuzz.Driver.Local
                | Some url -> (
                    match parse_server url with
                    | Some (host, port) ->
                        Ok (Fuzz.Driver.Remote { host; port })
                    | None -> Error url)
              in
              match mode with
              | Error url -> fail "--server: cannot parse %S (want HOST:PORT)" url
              | Ok mode ->
                  let jobs =
                    if jobs = 0 then Search.Pool.default_domains () else jobs
                  in
                  let oracle =
                    Fuzz.Oracle.config ~algorithm:alg ~heuristic ~budget
                      ~jobs:search_jobs ()
                  in
                  (match corpus_dir with
                  | Some dir when not (Sys.file_exists dir) ->
                      Sys.mkdir dir 0o755
                  | _ -> ());
                  let config =
                    Fuzz.Driver.config ~oracle ~oracle_mode:omode ~trials
                      ~seed ~depth ~shape ~jobs ?time_budget_s:time_budget
                      ~mode ~shrink_attempts ?corpus_dir ~not_found_fails ()
                  in
                  Printf.printf
                    "fuzzing (%s oracle, %s shape): %d trials, master seed \
                     %d, depth %d, %s/%s, budget %d, %d job%s%s\n%!"
                    (Fuzz.Oracle.mode_name omode) shape_name trials seed depth
                    (Tupelo.Discover.algorithm_name alg)
                    heuristic budget jobs
                    (if jobs = 1 then "" else "s")
                    (match mode with
                    | Fuzz.Driver.Local -> ""
                    | Fuzz.Driver.Remote { host; port } ->
                        Printf.sprintf " via server %s:%d" host port);
                  let summary =
                    Fuzz.Driver.run ~log:(Printf.printf "%s\n%!") config
                  in
                  print_endline (Fuzz.Driver.summary_to_string summary);
                  List.iter
                    (fun (f : Fuzz.Driver.failure) ->
                      Printf.printf "\nFAIL trial %d (%s):\n  %s\n%s"
                        f.Fuzz.Driver.trial
                        (Fuzz.Oracle.outcome_name
                           f.Fuzz.Driver.report.Fuzz.Oracle.outcome)
                        (Fuzz.Scenario.to_string f.Fuzz.Driver.scenario)
                        (match f.Fuzz.Driver.saved with
                        | Some path ->
                            Printf.sprintf "  reproducer: %s\n" path
                        | None ->
                            "  reproducer bundle:\n"
                            ^ Fuzz.Corpus.to_string
                                ~label:
                                  (Fuzz.Oracle.outcome_name
                                     f.Fuzz.Driver.report.Fuzz.Oracle.outcome)
                                f.Fuzz.Driver.scenario))
                    summary.Fuzz.Driver.failures;
                  if Fuzz.Driver.clean summary then `Ok ()
                  else fail "%d failing scenario%s"
                         (List.length summary.Fuzz.Driver.failures)
                         (match summary.Fuzz.Driver.failures with
                         | [ _ ] -> ""
                         | _ -> "s")))))
  with Sys_error m -> fail "%s" m

let fuzz_cmd =
  let doc =
    "inverse-problem fuzzing: generate random ℒ programs, apply them, \
     rediscover the mapping, verify the replay"
  in
  let trials =
    Arg.(
      value
      & opt int 100
      & info [ "n"; "trials" ] ~docv:"N" ~doc:"Number of scenarios to run.")
  in
  let seed =
    Arg.(
      value
      & opt int 1
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Master seed; trial $(i,i) derives its own scenario seed from \
             it deterministically, so any failure reproduces from the \
             numbers in the log.")
  in
  let depth =
    Arg.(
      value
      & opt int 3
      & info [ "depth" ] ~docv:"D"
          ~doc:"Operators per generated program (the generator may stop \
                short when nothing is applicable).")
  in
  let fuzz_budget =
    Arg.(
      value
      & opt int 50_000
      & info [ "b"; "budget" ] ~docv:"N"
          ~doc:"Per-trial search budget (states examined).")
  in
  let search_jobs =
    Arg.(
      value
      & opt int 1
      & info [ "search-jobs" ] ~docv:"N"
          ~doc:
            "Domains for each trial's search engine (see discover --jobs); \
             trials themselves are sharded with --jobs.")
  in
  let fuzz_jobs =
    Arg.(
      value
      & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains sharding the trials. 1 = sequential; 0 = one \
             per available core.")
  in
  let time_budget =
    Arg.(
      value
      & opt (some float) None
      & info [ "time-budget" ] ~docv:"SECONDS"
          ~doc:
            "Wall-clock budget: no new trials start after $(docv) seconds \
             and the in-flight search is cancelled cooperatively.")
  in
  let server =
    Arg.(
      value
      & opt (some string) None
      & info [ "server" ] ~docv:"HOST:PORT"
          ~doc:
            "Fuzz through a running mapping server (tupelo serve) instead \
             of in-process: scenarios are POSTed to /discover and the \
             returned expression is replayed locally.")
  in
  let corpus =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Save minimized reproducers of failing scenarios to $(docv) as \
             self-contained .scenario bundles (created if missing). \
             Without it, bundles are printed to stdout.")
  in
  let shrink_attempts =
    Arg.(
      value
      & opt int 400
      & info [ "shrink-attempts" ] ~docv:"N"
          ~doc:"Cap on failure re-checks while minimizing each reproducer.")
  in
  let not_found_fails =
    Arg.(
      value & flag
      & info [ "not-found-fails" ]
          ~doc:
            "Also treat a search that exhausts its space with no mapping as \
             a failure (every scenario is solvable by construction, but \
             with finite budgets this outcome is budget-dependent, so it \
             is informational by default).")
  in
  let oracle_mode =
    Arg.(
      value
      & opt string "replay"
      & info [ "oracle" ] ~docv:"MODE"
          ~doc:
            "Which property each trial checks: $(b,replay) (rediscover and \
             replay — the classic inverse problem), $(b,invert) \
             (quasi-inverse containment over the longest invertible suffix, \
             no search), $(b,compose) (composition/normalization laws, no \
             search), $(b,drift) (perturb one source cell and re-discover \
             with the normalized original program as a warm start), or \
             $(b,anytime) (stream incumbents and hold each one to its \
             claimed replay and coverage). Only replay honours --server; \
             the other modes always run in-process.")
  in
  let shape =
    Arg.(
      value
      & opt string "fuzz"
      & info [ "shape" ] ~docv:"SHAPE"
          ~doc:
            "Scenario source-database shape: $(b,default) (tame pool), \
             $(b,fuzz) (delimiter-spiced, metadata-valued cells), \
             $(b,wide) (up to 24 attributes, unicode values) or \
             $(b,skewed) (null-heavy, power-law hot keys).")
  in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(
      ret
        (const fuzz_cmd_run $ trials $ seed $ depth $ algorithm_arg
       $ heuristic_arg $ fuzz_budget $ search_jobs $ fuzz_jobs $ time_budget
       $ server $ corpus $ shrink_attempts $ not_found_fails $ oracle_mode
       $ shape))

(* --- demo --- *)

let demo_cmd_run () =
  print_endline "Fig. 1 of the paper: three representations of flight fares.\n";
  List.iter
    (fun (name, source, target) ->
      let config =
        Tupelo.Discover.config ~algorithm:Tupelo.Discover.Ida
          ~heuristic:Heuristics.Heuristic.h1 ~budget:500_000 ()
      in
      match
        Tupelo.Discover.discover ~registry:Workloads.Flights.registry config
          ~source ~target
      with
      | Tupelo.Discover.Mapping m ->
          Printf.printf "%s (%d states):\n%s\n\n" name
            m.Tupelo.Mapping.stats.Search.Space.examined
            (Fira.Expr.to_paper_string m.Tupelo.Mapping.expr)
      | _ -> Printf.printf "%s: not found\n" name)
    Workloads.Flights.pairs;
  `Ok ()

let demo_cmd =
  let doc = "run the built-in Fig. 1 flights demonstration" in
  Cmd.v (Cmd.info "demo" ~doc) Term.(ret (const demo_cmd_run $ const ()))

let main_cmd =
  let doc = "data mapping as search (TUPELO, EDBT 2006)" in
  let info = Cmd.info "tupelo" ~version:"1.0.0" ~doc in
  Cmd.group info
    [ discover_cmd; apply_cmd; migrate_cmd; tnf_cmd; sql_cmd; serve_cmd;
      request_cmd; fuzz_cmd; demo_cmd ]

let () = exit (Cmd.eval main_cmd)
