(* What a run prints: the record of how it ran, one line per metric with
   its unit and sample count, and a final JSON line with the verdict. *)

type metric = { name : string; value : float; unit : string; samples : int }

let metric ?(samples = 1) name unit value = { name; value; unit; samples }

type outcome = {
  attempted : int;
  failed : int;
  problems : string list;  (** reasons the run is not valid *)
  metrics : metric list;
}

let record fmt = Printf.printf ("record: " ^^ fmt ^^ "\n%!")

(* The shape of a latency distribution, for the record. *)
let deciles what xs =
  record "%s at p10..p90: %s" what
    (String.concat " "
       (List.init 9 (fun k ->
            Printf.sprintf "%.2f" (Stats.percentile (float_of_int (k + 1) /. 10.) xs))))

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print o =
  List.iter
    (fun m ->
      Printf.printf "metric %-28s %14.6f %-6s (n=%d)\n" m.name m.value m.unit
        m.samples)
    o.metrics;
  List.iter (fun p -> Printf.printf "INVALID: %s\n" p) o.problems;
  Printf.printf "attempted %d, failed %d\n" o.attempted o.failed;
  let finite = List.for_all (fun m -> Float.is_finite m.value) o.metrics in
  let metrics =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
          (json_number (if Float.is_finite m.value then m.value else 0.))
          m.unit)
      o.metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (o.failed = 0 && o.problems = [] && finite)
    (max 1 o.attempted) o.failed (String.concat ", " metrics)
