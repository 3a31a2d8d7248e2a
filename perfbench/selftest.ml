(* Self-tests of the benchmark's own code. Without arguments they are
   pure and quick, and `dune runtest` runs them. With
   `--spawn TUPELO_EXE` they also check, against a real `tupelo serve`,
   that a serve-cold run's peak_rss_mb depends on the work it does and
   not on how fast it does it; `bash perfbench/run.sh --selftest` runs
   both. *)

open Perfbench
open Relational

let failures = ref 0

let check name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

(* Nearest rank ceil(p * n), clamped to [1, n]; a percentile needs
   [Stats.min_beyond] = 10 samples above its rank. *)
let () =
  check "rank of p50 over 10 samples is 5" (Stats.rank 0.5 10 = 5);
  check "rank of p90 over 10 samples is 9" (Stats.rank 0.9 10 = 9);
  check "rank of p90 over 101 samples is 91" (Stats.rank 0.9 101 = 91);
  check "rank of p90 over 1 sample is 1" (Stats.rank 0.9 1 = 1);
  check "rank of p100 is the last" (Stats.rank 1.0 7 = 7);
  check "p90 of 10..1 is 9"
    (Stats.percentile 0.9 (Array.init 10 (fun i -> float_of_int (10 - i))) = 9.);
  check "99 samples leave 9 beyond p90" (Stats.beyond 0.9 99 = 9);
  check "p90 needs 100 samples" (Stats.samples_for 0.9 = 100);
  check "p50 needs 20 samples" (Stats.samples_for 0.5 = 20);
  check "a p90 over 99 samples is refused"
    (match Stats.reported 0.9 (Array.make 99 1.) with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check "a p90 over 100 samples is reported" (Stats.reported 0.9 (Array.make 100 1.) = 1.);
  check "a serve-cold run has enough samples for p90"
    (Stats.beyond 0.9 (Cold.requests ~seconds:1) >= Stats.min_beyond);
  check "a migrate-csv run has enough samples for p90"
    (Stats.beyond 0.9 (Mig.migrations ~seconds:1) >= Stats.min_beyond);
  check "a serve-hit window has enough samples for p90"
    (Stats.beyond 0.9 (int_of_float (Hit.rate *. Hit.window_s)) >= Stats.min_beyond)

(* Each operation gets the factor of the kernel times on either side. *)
let () =
  let timed = Speed.around 3 (fun i -> i) in
  check "Speed.around runs each operation once, in order"
    (Speed.results timed = [| 0; 1; 2 |]);
  check "host-speed factors are positive and finite"
    (Array.for_all (fun f -> f > 0. && Float.is_finite f) (Speed.factors timed))

(* The same seed gives byte-identical inputs; another seed, other ones. *)
let () =
  let bodies seed =
    List.init 4 (fun i -> Gen.http_post (Gen.discover_body (Gen.hit_pair ~seed i)))
    @ List.init 4 (fun i -> Gen.discover_body (Gen.cold_pair ~seed i))
  in
  check "same seed, byte-identical request bodies" (bodies 7 = bodies 7);
  check "other seed, other request bodies" (bodies 7 <> bodies 8);
  check "same seed, same hit draws" (Gen.hit_draws ~seed:7 500 = Gen.hit_draws ~seed:7 500);
  let csv seed = Gen.mig_csv (Gen.mig_input ~seed) in
  check "same seed, byte-identical CSV input" (String.equal (csv 7) (csv 7));
  check "other seed, other CSV input" (not (String.equal (csv 7) (csv 8)))

(* Cold pairs share no fingerprint term with each other or with the
   serve-hit working set, so a cold request can neither hit the cache
   nor warm-start from an earlier entry. One shard, so [find_near]
   scans every entry. *)
let () =
  let cache = Server.Cache.create ~capacity:256 () in
  let enter (p : Gen.pair) =
    let s = Gen.database p.source and t = Gen.database p.target in
    let key = (Fingerprint.of_database s, Fingerprint.of_database t) in
    let sk = Server.Cache.sketch_of_pair ~source:s ~target:t in
    let fresh =
      Server.Cache.find cache key = None
      && Server.Cache.find_near cache ~max_dist:1.0 sk = None
    in
    Server.Cache.add cache ~sketch:sk key ();
    (fresh, sk)
  in
  let hits = List.init 8 (fun i -> fst (enter (Gen.hit_pair ~seed:7 i))) in
  let colds = List.init 16 (fun i -> fst (enter (Gen.cold_pair ~seed:7 i))) in
  check "hit working-set pairs are term-disjoint" (List.for_all Fun.id hits);
  check "cold pairs are term-disjoint" (List.for_all Fun.id colds);
  let again, sk = enter (Gen.cold_pair ~seed:7 3) in
  check "a repeated cold pair is found (the check can fail)"
    ((not again) && Server.Cache.find_near cache ~max_dist:1.0 sk <> None)

(* The expected migrate-csv output, derived from the generator's own
   parameters, equals the reference evaluator's result of Example 2. *)
let () =
  let input = Array.sub (Gen.mig_input ~seed:7) 0 40 in
  let db = Database.of_list [ ("Prices", Csv.parse_relation (Gen.mig_csv input)) ] in
  let out =
    Fira.Expr.eval Workloads.Flights.registry Workloads.Flights.example2_expression db
  in
  check "mig_expected = Fira.Eval of Example 2 on 40 carriers"
    (Database.relation_names out = [ "Flights" ]
    && Gen.digest_relation (Database.find out "Flights") = Gen.mig_expected input)

(* The same cold requests against two fresh servers, back to back and
   then with a pause after each. GC pacing follows allocation, not the
   clock, so the peak RSS may differ only by heap-growth granularity. *)
let rss_tolerance = 0.05

let rss_at_two_speeds exe =
  let pairs = Array.init 30 (Gen.cold_pair ~seed:7) in
  let serve pause =
    let s = Proc.start_server ~exe () in
    let answers, _ = Cold.drive ~pause ~port:s.Proc.port pairs in
    let rss = Proc.stop_server s in
    (rss, Cold.failures pairs answers)
  in
  let fast, bad_fast = serve 0. in
  let slow, bad_slow = serve 0.1 in
  check "the requests at both speeds succeed" (bad_fast = 0 && bad_slow = 0);
  check
    (Printf.sprintf "serve-cold peak_rss_mb is the same at two speeds (%.1f, %.1f MB)"
       fast slow)
    (Float.abs (fast -. slow) <= rss_tolerance *. fast)

let () =
  (match Array.to_list Sys.argv |> List.tl with
  | [] -> ()
  | [ "--spawn"; exe ] -> rss_at_two_speeds exe
  | _ ->
      prerr_endline "usage: selftest.exe [--spawn TUPELO_EXE]";
      exit 2);
  if !failures > 0 then begin
    Printf.printf "%d self-test(s) failed\n" !failures;
    exit 1
  end
