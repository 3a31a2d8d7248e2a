(* Seeded inputs for the three workloads, and the outputs they must
   produce. Everything here is a pure function of the seed: the program
   under test only ever sees what these functions generate. *)

open Relational
module Prng = Workloads.Prng

type pair = {
  tag : string;  (** prefix of every name and string value of the pair *)
  source : (string * string) list;  (** relation name -> CSV document *)
  target : (string * string) list;
}

let csv header rows = Csv.print (header :: rows)

let rng ~seed salt = Prng.create ((seed * 1_000_003) + salt)

(* ---- serve-hit: a working set of multi-relation rename pairs ----

   Each pair is a critical instance of a few relations and tens of rows
   whose target renames one attribute per relation, so the warm-up
   search is short while every hit still decodes and fingerprints
   [hit_relations * hit_rows] rows per side. The tag makes the pairs of
   the working set term-disjoint. *)

let hit_working_set = 32
let hit_relations = 3
let hit_attributes = 5
let hit_rows = 24

let hit_pair ~seed i =
  let tag = Printf.sprintf "h%dx%d_" seed i in
  let g = rng ~seed (1 + i) in
  let rel r =
    let att a = Printf.sprintf "%sa%d%d" tag r a in
    let rows =
      List.init hit_rows (fun k ->
          List.init hit_attributes (fun a ->
              if a = 0 then Printf.sprintf "%sk%d_%d" tag r k
              else if a mod 2 = 1 then string_of_int (1 + Prng.int g 99_999)
              else Printf.sprintf "%sv%d" tag (Prng.int g 1000)))
    in
    let atts = List.init hit_attributes att in
    let renamed = Printf.sprintf "%sb%d0" tag r :: List.tl atts in
    let name = Printf.sprintf "%sR%d" tag r in
    ((name, csv atts rows), (name, csv renamed rows))
  in
  let rels = List.init hit_relations rel in
  { tag; source = List.map fst rels; target = List.map snd rels }

let hit_rows_per_request = 2 * hit_relations * hit_rows

(* The working-set index of each of [n] hit requests. *)
let hit_draws ~seed n =
  let g = rng ~seed 0 in
  Array.init n (fun _ -> Prng.int g hit_working_set)

(* ---- serve-cold: fresh instances of Fig. 1's B -> A restructuring ----

   B = Prices(Carrier, Route, Cost, AgentFee) over [cold_carriers] x
   [cold_routes] rows, A = Flights(Carrier, Fee, <one column per
   route>): the mapping needs promote, drops, merge and renames. Every
   name and string value carries a per-request tag, so no two requests
   share a fingerprint term (no hit, no warm start) while the search
   examines exactly [cold_states] states for every tag. *)

let cold_carriers = 8
let cold_routes = 3
let cold_states = 489

let cold_pair ~seed i =
  let t = Printf.sprintf "c%dx%d_" seed i in
  let route r = Printf.sprintf "%sR%d" t r in
  let cost c r = string_of_int ((100 * (c + 1)) + (10 * r)) in
  let fee c = string_of_int (15 + c) in
  let carriers = List.init cold_carriers Fun.id in
  let routes = List.init cold_routes Fun.id in
  let b =
    List.concat_map
      (fun c ->
        List.map
          (fun r -> [ Printf.sprintf "%sC%d" t c; route r; cost c r; fee c ])
          routes)
      carriers
  in
  let a =
    List.map
      (fun c ->
        (Printf.sprintf "%sC%d" t c :: fee c :: List.map (cost c) routes))
      carriers
  in
  let n s = t ^ s in
  {
    tag = t;
    source =
      [ (n "Prices", csv [ n "Carrier"; n "Route"; n "Cost"; n "AgentFee" ] b) ];
    target =
      [ (n "Flights", csv (n "Carrier" :: n "Fee" :: List.map route routes) a) ];
  }

let cold_rows_per_request = (cold_carriers * cold_routes) + cold_carriers

(* ---- wire form ---- *)

let discover_body p =
  Server.Json.to_string
    (Server.Protocol.encode_request
       (Server.Protocol.request ~source:p.source ~target:p.target ()))

let http_post body =
  Printf.sprintf
    "POST /discover HTTP/1.1\r\n\
     host: perfbench\r\n\
     content-type: application/json\r\n\
     content-length: %d\r\n\
     \r\n\
     %s"
    (String.length body) body

let database rels =
  List.fold_left
    (fun db (name, doc) -> Database.add db name (Csv.parse_relation doc))
    Database.empty rels

(* ---- migrate-csv: a large B-shaped relation ----

   Many carriers, each flying [mig_routes_each] routes out of a pool of
   [mig_route_pool], with one agent fee per carrier. Rows are written
   route-rank-major (every carrier's first route, then every carrier's
   second, ...) so each carrier's rows land in different chunks and the
   merge must regroup them across chunks. *)

let mig_carriers = 4000
let mig_route_pool = 12
let mig_routes_each = 3

type carrier = { name : string; fee : int; costs : (string * int) list }

let letters g n = String.init n (fun _ -> Char.chr (65 + Prng.int g 26))

let mig_input ~seed =
  let g = rng ~seed 7 in
  let prefix = letters g 2 in
  let pool =
    let rec draw acc =
      if List.length acc = mig_route_pool then List.rev acc
      else
        let code = Printf.sprintf "%s%d" (letters g 3) (10 + Prng.int g 90) in
        draw (if List.mem code acc then acc else code :: acc)
    in
    draw []
  in
  Array.init mig_carriers (fun c ->
      {
        name = Printf.sprintf "%s%05d" prefix c;
        fee = 5 + Prng.int g 36;
        costs =
          List.map
            (fun r -> (r, 50 + Prng.int g 950))
            (Prng.sample g mig_routes_each pool);
      })

let mig_rows_in input = Array.length input * mig_routes_each

let mig_csv input =
  let buf = Buffer.create (32 * mig_rows_in input) in
  Csv.add_row buf [ "Carrier"; "Route"; "Cost"; "AgentFee" ];
  for k = 0 to mig_routes_each - 1 do
    Array.iter
      (fun c ->
        let route, cost = List.nth c.costs k in
        Csv.add_row buf [ c.name; route; string_of_int cost; string_of_int c.fee ])
      input
  done;
  Buffer.contents buf

(* ---- order-independent digests of relation contents ---- *)

type digest = { rows : int; sum : int64 }

let empty_digest = { rows = 0; sum = 0L }

(* One row as (attribute, printed cell) pairs, in any attribute order. *)
let add_row d cells =
  let line =
    String.concat "\x1e"
      (List.map (fun (a, v) -> a ^ "\x1f" ^ v) (List.sort compare cells))
  in
  { rows = d.rows + 1; sum = Int64.add d.sum (String.get_int64_le (Digest.string line) 0) }

(* Example 2 on B: one Flights row per carrier holding its fee and a
   cost under each route it flies, null under every other route. Derived
   from the generator's own parameters, not by running any evaluator. *)
let mig_expected input =
  let routes =
    List.sort_uniq compare
      (Array.to_list input |> List.concat_map (fun c -> List.map fst c.costs))
  in
  let null = Value.to_string Value.Null in
  Array.fold_left
    (fun d c ->
      add_row d
        (("Carrier", c.name)
        :: ("Fee", string_of_int c.fee)
        :: List.map
             (fun r ->
               (r, match List.assoc_opt r c.costs with
                   | Some cost -> string_of_int cost
                   | None -> null))
             routes))
    empty_digest input

(* Digest of a CSV document read from [ic]: header, then data rows. *)
let digest_channel ic =
  let _, d =
    Csv.fold_channel
      (fun (header, d) row ->
        match header with
        | None -> (Some row, d)
        | Some h -> (header, add_row d (List.combine h row)))
      (None, empty_digest) ic
  in
  d

let digest_relation r =
  let atts = Schema.attributes (Relation.schema r) in
  List.fold_left
    (fun d row ->
      add_row d (List.combine atts (List.map Value.to_string (Row.to_list row))))
    empty_digest (Relation.rows r)

(* Whether [expr] (the server's replayable file form) maps the pair's
   source to a superset of its target under the reference evaluator. *)
let replays_to_superset p expr =
  match Fira.Parser.expr_of_string expr with
  | Error _ -> false
  | Ok e -> (
      try
        Tupelo.Goal.reached Tupelo.Goal.Superset ~target:(database p.target)
          (Fira.Expr.eval Fira.Semfun.empty_registry e (database p.source))
      with _ -> false)
