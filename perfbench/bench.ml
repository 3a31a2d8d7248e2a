(* Entry point: `bench.exe --tupelo EXE --workload NAME --seed N
   --seconds S --trace 0|1`, run from the repository root (run.sh builds
   and calls it). Prints how the run was made, each metric with its unit
   and sample count, and last a JSON line with the verdict and the
   metrics: the end-to-end ones with --trace 0, the per-layer ones of all
   three workloads with --trace 1. Every workload prints all seven
   end-to-end names, so each run can be compared name by name; where a
   name has no single meaning across workloads, its workload's module
   says how it is defined there. Times and rates are reported at a
   nominal host speed, read off a reference kernel timed between
   operations (see [Speed]); the raw figures go to the record.

   `--migrate-child` runs one migration: the calls `tupelo migrate`
   makes (ingest_channel, run, Cdb.to_idb, emit_channel), in a fresh
   process that times each stage and reads its own peak RSS, which the
   real command does not report. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: bench.exe --tupelo EXE --workload serve-hit|serve-cold|migrate-csv \
     --seed N --seconds S --trace 0|1";
  exit 2

let why workload =
  match Server.Json.parse (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all) with
  | Ok j ->
      Option.bind (Server.Json.member "workloads" j) Server.Json.to_arr
      |> Option.value ~default:[]
      |> List.find_map (fun w ->
             match Server.Json.(member "name" w, member "why" w) with
             | Some (Server.Json.Str n), Some (Server.Json.Str y) when n = workload -> Some y
             | _ -> None)
      |> Option.value ~default:"(not in BENCHMARK.json)"
  | Error _ -> "(BENCHMARK.json unreadable)"
  | exception Sys_error _ -> "(no BENCHMARK.json)"

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "--migrate-child"; input; output; trace ] ->
      Mig.child ~input ~output ~trace:(trace = "1")
  | args ->
      let rec parse acc = function
        | k :: v :: rest when String.starts_with ~prefix:"--" k -> parse ((k, v) :: acc) rest
        | [] -> acc
        | _ -> usage ()
      in
      let opts = parse [] args in
      let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
      let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
      let exe = get "--tupelo" and workload = get "--workload" in
      let seed = int "--seed" and seconds = int "--seconds" and trace = int "--trace" in
      if not (List.mem workload [ "serve-hit"; "serve-cold"; "migrate-csv" ]) then usage ();
      if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
      if not (Sys.file_exists exe) then begin
        prerr_endline ("bench: no tupelo binary at " ^ exe);
        exit 2
      end;
      let workdir = ".perfbench-run" in
      if not (Sys.file_exists workdir) then Sys.mkdir workdir 0o755;
      Report.record "workload %s, seed %d, seconds %d, trace %d" workload seed seconds trace;
      Report.record "%s, nproc %d, OCaml %s" (Proc.source_id ())
        (Domain.recommended_domain_count ()) Sys.ocaml_version;
      Report.record "server: tupelo %s" (String.concat " " Proc.server_flags);
      Report.record "why: %s" (why workload);
      let self = Sys.executable_name in
      let outcome =
        if trace = 1 then
          let legs =
            [ ("serve-hit", fun () -> Hit.traced ~exe ~workdir ~seed);
              ("serve-cold", fun () -> Cold.traced ~exe ~workdir ~seed);
              ("migrate-csv", fun () -> Mig.traced ~self ~workdir ~seed) ]
          in
          (* the named workload first, then the other two *)
          let first, rest = List.partition (fun (w, _) -> w = workload) legs in
          List.fold_left
            (fun (acc : Report.outcome) (_, leg) ->
              let o : Report.outcome = leg () in
              { attempted = acc.attempted + o.attempted;
                failed = acc.failed + o.failed;
                problems = acc.problems @ o.problems;
                metrics = acc.metrics @ o.metrics })
            { attempted = 0; failed = 0; problems = []; metrics = [] }
            (first @ rest)
        else
          match workload with
          | "serve-hit" -> Hit.run ~exe ~seed ~seconds
          | "serve-cold" -> Cold.run ~exe ~seed ~seconds
          | _ -> Mig.run ~self ~workdir ~seed ~seconds
      in
      (try Sys.rmdir workdir with Sys_error _ -> ());
      Report.print outcome
