(* Child processes of the benchmark: the `tupelo serve` server under
   test and the one-shot migration processes. Every child started here
   is registered so that an early exit still stops and reaps it. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let live : int list ref = ref []

let reap pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  let status = go () in
  live := List.filter (( <> ) pid) !live;
  status

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (reap pid))
        !live)

let spawn exe args ~stdout =
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin stdout
      Unix.stderr
  in
  live := pid :: !live;
  pid

let check_exit what = function
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> failwith (Printf.sprintf "%s exited with code %d" what n)
  | Unix.WSIGNALED n | Unix.WSTOPPED n ->
      failwith (Printf.sprintf "%s killed by signal %d" what n)

(* Peak resident set of a live process, from /proc/<pid>/status. *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> go ()
        | exception End_of_file -> failwith "VmHWM missing from /proc status"
      in
      go ())

(* ---- the server under test ---- *)

type server = {
  pid : int;
  port : int;
  out : in_channel;
  ready_s : float;  (** spawn until the listening line *)
}

let server_flags = [ "serve"; "--port"; "0"; "--workers"; "1" ]

let start_server ~exe ?trace () =
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = now () in
  let args =
    server_flags @ match trace with Some f -> [ "--trace"; f ] | None -> []
  in
  let pid = spawn exe args ~stdout:w in
  Unix.close w;
  let out = Unix.in_channel_of_descr r in
  let rec await () =
    match input_line out with
    | line -> (
        match
          Scanf.sscanf line "tupelo server listening on %_s@:%d" Fun.id
        with
        | port -> port
        | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) ->
            await ())
    | exception End_of_file -> failwith "server exited before listening"
  in
  let port = await () in
  { pid; port; out; ready_s = now () -. t0 }

(* SIGTERM drains the server and closes its trace file; returns its
   peak RSS in MB, read just before the signal. `tupelo serve` prints
   its listening line before it installs its SIGTERM handler, so a
   server stopped right after start-up can die of the signal itself:
   that is a clean stop too. *)
let stop_server s =
  let rss = peak_rss_mb (string_of_int s.pid) in
  Unix.kill s.pid Sys.sigterm;
  (try
     while true do
       ignore (input_line s.out)
     done
   with End_of_file -> ());
  close_in_noerr s.out;
  (match reap s.pid with
  | Unix.WSIGNALED n when n = Sys.sigterm -> ()
  | status -> check_exit "tupelo serve" status);
  rss

(* ---- what every run records ---- *)

let command_output cmd =
  match Unix.open_process_in cmd with
  | ic ->
      let line = try Some (input_line ic) with End_of_file -> None in
      (match Unix.close_process_in ic with
      | Unix.WEXITED 0 -> line
      | _ -> None)
  | exception Unix.Unix_error _ -> None

(* The commit when the tree is a git checkout; otherwise a digest of the
   program's sources, which names the code just as well. *)
let source_id () =
  match
    if Sys.file_exists ".git" then command_output "git rev-parse HEAD 2>/dev/null"
    else None
  with
  | Some sha -> "commit " ^ sha
  | None ->
      let rec files dir =
        Sys.readdir dir |> Array.to_list |> List.sort compare
        |> List.concat_map (fun f ->
               let p = Filename.concat dir f in
               if Sys.is_directory p then files p
               else if
                 Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli"
                 || f = "dune"
               then [ p ]
               else [])
      in
      let digests =
        List.map
          (fun p -> p ^ Digest.to_hex (Digest.file p))
          (files "lib" @ files "bin")
      in
      "source-md5 " ^ Digest.to_hex (Digest.string (String.concat "\n" digests))
