(* E6: state-identity throughput — fingerprinted incremental states versus
   the canonical-key baseline, measured on the same searches.

   The baseline replicates the pre-fingerprint state bookkeeping: a state
   is a database plus a lazily cached [Database.canonical_key] and a
   lazily cached from-scratch [Profile.of_database] — every generated
   successor pays one full canonical-key serialization (the dedup and
   closed-set identity), the cell-count guard rescans the successor, and
   every scored state pays one full profile construction (memoized on the
   canonical key, as the old engine did). It proposes with the production
   [Moves.candidates] over a per-state interned conversion of the boxed
   database, so the two legs differ in state bookkeeping, not in the
   proposal rules. The fingerprint path is the
   production one: [Tupelo.State] states built with [Moves.successors],
   which maintains the 128-bit fingerprint, the cell count and the
   heuristic profile in O(cells changed) from the parent via the
   operator's delta.

   The incremental profile is structurally equal to the from-scratch one
   (property-tested), so both paths score and expand the same states in
   the same order — the measured difference is pure state-identity
   bookkeeping. Each (workload, algorithm) pair reports:

   - states/sec: the median over TUPELO_BENCH_SEARCH_REPS (default 5)
     timed samples; each sample repeats the whole search until a fixed
     number of generated states, TUPELO_BENCH_SEARCH_STATES (default
     20000), has been produced, so every sample measures the same amount
     of work and the median is robust to scheduler noise (a wall-clock
     window would measure however much work happened to fit into a noisy
     slice);
   - closed-set key bytes: an untimed breadth-first exploration of the
     same space collects every distinct key (what a closed set /
     transposition table must retain) and sums its reachable heap words —
     canonical-key strings for the baseline, 128-bit fingerprints for the
     new path.

   Results are printed as a table and written to BENCH_search.json (or
   $TUPELO_BENCH_SEARCH_OUT) so CI can archive and diff them. When
   TUPELO_BENCH_SEARCH_MIN_SPEEDUP is set, the bench exits non-zero if
   the fingerprint side is slower than that multiple of the baseline on
   flights-b-to-a or inventory-k6 — a same-run ratio, so a slow or noisy
   CI machine does not fail the gate by itself. *)

open Relational

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> (
      match int_of_string_opt s with Some v when v > 0 -> v | _ -> default)
  | None -> default

(* Generated states per timed sample; each sample repeats identical whole
   searches until the count is reached, so samples are fixed work. *)
let min_states = env_int "TUPELO_BENCH_SEARCH_STATES" 20_000
let reps = env_int "TUPELO_BENCH_SEARCH_REPS" 5
let closed_cap = 2000
let goal = Tupelo.Goal.Superset

type algorithm = Search.Frontier_search.policy =
  | Greedy
  | Bfs
  | Astar
  | Beam of int

let algorithm_label = function
  | Greedy -> "greedy"
  | Bfs -> "bfs"
  | Astar -> "astar"
  | Beam w -> Printf.sprintf "beam%d" w

type side = {
  states_per_sec : float;  (* median across [reps] fixed-work samples *)
  generated : int;  (* generated states per sample (identical samples) *)
  elapsed_s : float;  (* median sample wall clock *)
  closed_states : int;
  closed_key_bytes : int;
}

let total_cells db =
  Database.fold
    (fun _ r acc ->
      acc + (Relation.cardinality r * Schema.arity (Relation.schema r)))
    db 0

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "median: empty"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* One timed sample repeats the whole search — every repetition identical
   (fresh memo, deterministic search) — until [min_states] states have
   been generated. [reps] samples, median rate: fixed work per sample, so
   a descheduled slice skews one sample, not the statistic. *)
let measure run =
  let sample () =
    let rec loop generated elapsed =
      if generated >= min_states then (generated, elapsed)
      else begin
        let t0 = Unix.gettimeofday () in
        let stats : Search.Space.stats = run () in
        let dt = Unix.gettimeofday () -. t0 in
        loop (generated + stats.Search.Space.generated) (elapsed +. dt)
      end
    in
    loop 0 0.0
  in
  let samples = List.init reps (fun _ -> sample ()) in
  let rates = List.map (fun (g, e) -> float_of_int g /. e) samples in
  let generated = fst (List.hd samples) in
  (median rates, generated, median (List.map snd samples))

(* Distinct keys reachable within [closed_cap] states, and their summed
   heap footprint — the payload a closed set keyed this way must hold. *)
let closed_set_footprint ~key ~successors root =
  let seen = Hashtbl.create 1024 in
  let q = Queue.create () in
  let bytes = ref 0 in
  let visit s =
    let k = key s in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.add seen k ();
      bytes := !bytes + (8 * Obj.reachable_words (Obj.repr k));
      Queue.add s q
    end
  in
  visit root;
  while (not (Queue.is_empty q)) && Hashtbl.length seen < closed_cap do
    let s = Queue.pop q in
    List.iter (fun (_, s') -> visit s') (successors s)
  done;
  (Hashtbl.length seen, !bytes)

let cosine () =
  Heuristics.Heuristic.cosine
    ~k:Heuristics.Heuristic.Scaling.ida.Heuristics.Heuristic.Scaling.k_cosine

(* The pre-change state representation, verbatim: lazily cached canonical
   key and from-scratch profile (see the repo history of lib/tupelo). *)
type base_state = {
  db : Database.t;
  bkey : string Lazy.t;
  bprofile : Heuristics.Profile.t Lazy.t;
}

let base_state db =
  {
    db;
    bkey = lazy (Database.canonical_key db);
    bprofile = lazy (Heuristics.Profile.of_database db);
  }

let run_baseline ~registry ~target ~budget alg source =
  let info = Tupelo.Moves.target_info target in
  let config = Tupelo.Moves.default goal in
  let target_profile = Heuristics.Profile.of_database target in
  let heuristic = cosine () in
  let module Sp = struct
    type state = base_state
    type action = Fira.Op.t

    module Key = Search.Space.String_key

    let key s = Lazy.force s.bkey

    let successors s =
      let ops =
        Tupelo.Moves.candidates config registry info (Idb.of_database s.db)
      in
      let seen : (string, unit) Hashtbl.t = Hashtbl.create 32 in
      List.filter_map
        (fun op ->
          match Fira.Eval.apply_syntactic registry op s.db with
          | exception Fira.Eval.Error _ -> None
          | db' ->
              if total_cells db' > config.Tupelo.Moves.max_state_cells then
                None
              else
                let s' = base_state db' in
                let k = Lazy.force s'.bkey in
                if Hashtbl.mem seen k then None
                else begin
                  Hashtbl.add seen k ();
                  Some (op, s')
                end)
        ops

    let is_goal s = Tupelo.Goal.reached goal ~target s.db
  end in
  let run () =
    let memo : (string, int) Heuristics.Memo.t = Heuristics.Memo.create () in
    let estimate s =
      Heuristics.Memo.find_or_add memo (Lazy.force s.bkey) (fun _ ->
          heuristic.Heuristics.Heuristic.estimate ~target:target_profile
            (Lazy.force s.bprofile))
    in
    let result =
      let module F = Search.Frontier_search.Make (Sp) in
      F.search ~budget alg ~heuristic:estimate (base_state source)
    in
    result.Search.Space.stats
  in
  let states_per_sec, generated, elapsed_s = measure run in
  let closed_states, closed_key_bytes =
    closed_set_footprint ~key:Sp.key ~successors:Sp.successors
      (base_state source)
  in
  { states_per_sec; generated; elapsed_s; closed_states; closed_key_bytes }

let run_fingerprint ~registry ~target ~budget alg source =
  let info = Tupelo.Moves.target_info target in
  let config = Tupelo.Moves.default goal in
  let target_profile = Heuristics.Profile.of_database target in
  let heuristic = cosine () in
  let module Sp = struct
    type state = Tupelo.State.t
    type action = Fira.Op.t

    module Key = Relational.Fingerprint

    let key = Tupelo.State.fingerprint
    let successors state = Tupelo.Moves.successors config registry info state

    (* The interned goal test, as production [Discover] runs it — no boxed
       conversion per examined state. *)
    let is_goal state =
      Tupelo.Goal.reached_interned goal
        ~target:(Tupelo.Moves.target_idb info)
        (Tupelo.State.idb state)
  end in
  let run () =
    let memo : (Relational.Fingerprint.t, int) Heuristics.Memo.t =
      Heuristics.Memo.create ()
    in
    (* Incremental cosine scoring, as production [Discover] wires it:
       dot/norm parts folded along the parent chain from column
       histograms, no profile materialization per scored state.
       Bit-identical to [estimate] on the materialized profile. *)
    let target = Heuristics.Profile.cosine_target target_profile in
    let k =
      match heuristic.Heuristics.Heuristic.cosine_k with
      | Some k -> k
      | None -> assert false
    in
    let estimate state =
      Heuristics.Memo.find_or_add memo (Tupelo.State.fingerprint state)
        (fun _ ->
          Heuristics.Heuristic.cosine_scaled ~k
            (Tupelo.State.cosine_distance ~target state))
    in
    let root = Tupelo.State.of_database source in
    let result =
      let module F = Search.Frontier_search.Make (Sp) in
      F.search ~budget alg ~heuristic:estimate root
    in
    result.Search.Space.stats
  in
  let states_per_sec, generated, elapsed_s = measure run in
  let closed_states, closed_key_bytes =
    closed_set_footprint ~key:Sp.key ~successors:Sp.successors
      (Tupelo.State.of_database source)
  in
  { states_per_sec; generated; elapsed_s; closed_states; closed_key_bytes }

type entry = {
  workload : string;
  algorithm : string;
  baseline : side;
  fingerprint : side;
}

let speedup e = e.fingerprint.states_per_sec /. e.baseline.states_per_sec

let side_json s =
  Printf.sprintf
    "{ \"states_per_sec\": %.1f, \"generated\": %d, \"elapsed_s\": %.4f, \
     \"reps\": %d, \"closed_states\": %d, \"closed_key_bytes\": %d }"
    s.states_per_sec s.generated s.elapsed_s reps s.closed_states
    s.closed_key_bytes

let entry_json e =
  Printf.sprintf
    "    { \"workload\": %S, \"algorithm\": %S,\n\
    \      \"baseline\": %s,\n\
    \      \"fingerprint\": %s,\n\
    \      \"speedup\": %.2f }" e.workload e.algorithm (side_json e.baseline)
    (side_json e.fingerprint) (speedup e)

let write_json entries =
  let path =
    match Sys.getenv_opt "TUPELO_BENCH_SEARCH_OUT" with
    | Some p -> p
    | None -> "BENCH_search.json"
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc "{\n  \"bench\": \"search\",\n  \"results\": [\n";
      output_string oc (String.concat ",\n" (List.map entry_json entries));
      output_string oc "\n  ]\n}\n");
  Printf.printf "wrote %s\n" path

(* A multi-relation instance: a rename task padded with relations that are
   identical in source and target. The ballast is inert for the search
   (its names and values already match the target, so no operators are
   proposed over it) but it is real state content: the baseline
   re-serializes and re-profiles all of it for every state, while the
   delta-maintained path only ever touches the relation an operator
   changed. Real integration scenarios look like this — a handful of
   tables being restructured inside a database of many. *)
let ballast_workload () =
  let g = Workloads.Prng.create 7 in
  let source, target = Workloads.Random_db.rename_task g 5 in
  let shape =
    {
      Workloads.Random_db.default_shape with
      max_relations = 1;
      max_attributes = 6;
      max_rows = 8;
      null_probability = 0.0;
    }
  in
  let ballast =
    List.init 12 (fun i ->
        (Printf.sprintf "ballast%02d" i, Workloads.Random_db.relation ~shape g))
  in
  let pad db =
    List.fold_left (fun db (n, r) -> Database.add db n r) db ballast
  in
  (pad source, pad target)

let workloads () =
  let inventory = Workloads.Inventory.task 6 in
  let real_estate = Workloads.Real_estate.task 6 in
  let ballast_source, ballast_target = ballast_workload () in
  [
    ( "flights-b-to-a",
      Workloads.Flights.b,
      Workloads.Flights.a,
      Workloads.Flights.registry );
    ( "inventory-k6",
      inventory.Workloads.Inventory.source,
      inventory.Workloads.Inventory.target,
      inventory.Workloads.Inventory.registry );
    ( "real-estate-k6",
      real_estate.Workloads.Real_estate.source,
      real_estate.Workloads.Real_estate.target,
      real_estate.Workloads.Real_estate.registry );
    ( "rename-12rel-ballast",
      ballast_source,
      ballast_target,
      Fira.Semfun.empty_registry );
  ]

let run () =
  Report.section "E6: state identity (fingerprints vs canonical keys)";
  let budget = 2_000 in
  let entries =
    List.concat_map
      (fun (workload, source, target, registry) ->
        List.map
          (fun alg ->
            let baseline = run_baseline ~registry ~target ~budget alg source in
            let fingerprint =
              run_fingerprint ~registry ~target ~budget alg source
            in
            { workload; algorithm = algorithm_label alg; baseline; fingerprint })
          [ Greedy; Beam 8 ])
      (workloads ())
  in
  let rows =
    List.map
      (fun e ->
        [
          e.workload;
          e.algorithm;
          Printf.sprintf "%.0f" e.baseline.states_per_sec;
          Printf.sprintf "%.0f" e.fingerprint.states_per_sec;
          Printf.sprintf "%.2fx" (speedup e);
          string_of_int e.baseline.closed_states;
          Printf.sprintf "%.1f" (float_of_int e.baseline.closed_key_bytes /. 1024.);
          Printf.sprintf "%.1f"
            (float_of_int e.fingerprint.closed_key_bytes /. 1024.);
        ])
      entries
  in
  Report.print_table
    ~title:"states/sec and closed-set key bytes (baseline vs fingerprint)"
    ~header:
      [
        "workload"; "algorithm"; "base st/s"; "fp st/s"; "speedup";
        "closed"; "base key KB"; "fp key KB";
      ]
    rows;
  write_json entries;
  match Sys.getenv_opt "TUPELO_BENCH_SEARCH_MIN_SPEEDUP" with
  | None -> ()
  | Some s -> (
      match float_of_string_opt s with
      | None ->
          Printf.eprintf "ignoring non-numeric TUPELO_BENCH_SEARCH_MIN_SPEEDUP=%S\n" s
      | Some min_speedup ->
          let gated =
            List.filter
              (fun e ->
                e.workload = "flights-b-to-a" || e.workload = "inventory-k6")
              entries
          in
          let failures =
            List.filter (fun e -> speedup e < min_speedup) gated
          in
          List.iter
            (fun e ->
              Printf.eprintf
                "SPEEDUP GATE: %s/%s fingerprint is %.2fx baseline, below the \
                 required %.2fx\n"
                e.workload e.algorithm (speedup e) min_speedup)
            failures;
          if failures <> [] then exit 1)
