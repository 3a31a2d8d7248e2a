(* The JSONL trace `tupelo serve --trace FILE` writes, one event per
   line (schema in lib/telemetry/telemetry.mli). *)

type t = {
  domain : int;
  kind : string;  (** counter, timer, span_begin, span_end, gauge, message *)
  name : string;
  amount : float;  (** a counter's increment or a timer's/span's seconds *)
}

let of_line line =
  let open Server.Json in
  match parse line with
  | Error m -> failwith ("trace line does not parse: " ^ m)
  | Ok j ->
      let str k = Option.bind (member k j) to_str |> Option.value ~default:"" in
      let num k = Option.bind (member k j) to_num |> Option.value ~default:0. in
      let kind = str "type" in
      {
        domain = int_of_float (num "domain");
        kind;
        name = str "name";
        amount = (if kind = "counter" then num "incr" else num "elapsed_s");
      }

let fold path f init =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (f acc (of_line line))
        | exception End_of_file -> acc
      in
      go init)
