let log_src = Logs.Src.create "tupelo.discover" ~doc:"Mapping discovery"

module Log = (val Logs.src_log log_src : Logs.LOG)

type algorithm =
  | Ida
  | Ida_tt
  | Rbfs
  | Astar
  | Greedy
  | Beam of int
  | Bfs
  | Portfolio

let algorithm_name = function
  | Ida -> "IDA"
  | Ida_tt -> "IDA+TT"
  | Rbfs -> "RBFS"
  | Astar -> "A*"
  | Greedy -> "Greedy"
  | Beam w -> Printf.sprintf "Beam(%d)" w
  | Bfs -> "BFS"
  | Portfolio -> "Portfolio"

(* Total inverse of [algorithm_name] (property-tested): every printed
   name parses back, along with the historical spellings. *)
let algorithm_of_string s =
  let parse_beam prefix suffix =
    (* "beam:W" and "beam(W)" *)
    let p = String.length prefix and n = String.length s in
    if n > p + String.length suffix
       && String.lowercase_ascii (String.sub s 0 p) = prefix
       && (suffix = ""
          || String.sub s (n - String.length suffix) (String.length suffix)
             = suffix)
    then
      int_of_string_opt (String.sub s p (n - p - String.length suffix))
    else None
  in
  match String.lowercase_ascii s with
  | "ida" -> Some Ida
  | "ida-tt" | "ida+tt" | "idatt" -> Some Ida_tt
  | "rbfs" -> Some Rbfs
  | "astar" | "a*" -> Some Astar
  | "greedy" -> Some Greedy
  | "beam" -> Some (Beam 8)
  | "bfs" -> Some Bfs
  | "portfolio" -> Some Portfolio
  | _ -> (
      match
        match parse_beam "beam:" "" with
        | Some w -> Some w
        | None -> parse_beam "beam(" ")"
      with
      | Some w when w > 0 -> Some (Beam w)
      | _ -> None)

let scaling_for = function
  | Rbfs -> Heuristics.Heuristic.Scaling.rbfs
  | Ida | Ida_tt | Astar | Greedy | Beam _ | Bfs | Portfolio ->
      Heuristics.Heuristic.Scaling.ida

type config = {
  algorithm : algorithm;
  heuristic : Heuristics.Heuristic.t;
  goal : Goal.mode;
  partial : string list;
  budget : int;
  moves : Moves.config;
  jobs : int;
  telemetry : Telemetry.t;
}

let config ?(algorithm = Rbfs) ?heuristic ?(goal = Goal.Superset)
    ?(partial = []) ?(budget = Search.Space.default_budget) ?moves
    ?(jobs = 1) ?(telemetry = Telemetry.disabled) () =
  if jobs < 1 then invalid_arg "Discover.config: jobs must be >= 1";
  let heuristic =
    match heuristic with
    | Some h -> h
    | None ->
        let k = (scaling_for algorithm).k_cosine in
        Heuristics.Heuristic.cosine ~k
  in
  let moves = match moves with Some m -> m | None -> Moves.default goal in
  { algorithm; heuristic; goal; partial; budget; moves; jobs; telemetry }

type outcome =
  | Mapping of Mapping.t
  | No_mapping of Search.Space.stats
  | Gave_up of Search.Space.stats

let states_examined = function
  | Mapping m -> m.Mapping.stats.Search.Space.examined
  | No_mapping stats | Gave_up stats -> stats.Search.Space.examined

(* ------------------------------------------------------------------ *)
(* Anytime discovery: streamed incumbents and resumable frontiers.    *)
(* ------------------------------------------------------------------ *)

type incumbent = {
  inc_ops : Fira.Op.t list;
  inc_cost : int;
  inc_h : int;
  inc_coverage : Goal.coverage list;
  inc_covered : int;
  inc_total : int;
  inc_entrant : string;
  inc_seq : int;
}

type frontier = {
  fr_algorithm : algorithm;
  fr_nodes : Fira.Op.t list list;
  fr_prefix : Fira.Op.t list;
  fr_closed : (Relational.Fingerprint.t * int) list;
  fr_checked : int;
}

type anytime = {
  a_outcome : outcome;
  a_incumbent : incumbent option;
  a_frontier : frontier option;
}

(* Retention bounds on a captured frontier: the open-node paths are the
   part a resume cannot do without (capped generously — a beam is at
   most its width, a heap snapshot is best-first so the tail matters
   least); the closed set only prevents re-exploration, so overflow is
   dropped rather than failing. A checkpoint whose open list overflows
   the node cap is best-effort: the dropped nodes' parents are already
   closed, so a resumed run may not re-derive them (see the .mli). *)
let frontier_nodes_cap = 512
let frontier_closed_cap = 200_000

let rec take_at_most n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: rest -> x :: take_at_most (n - 1) rest

let rec drop_at_most n = function
  | rest when n <= 0 -> rest
  | [] -> []
  | _ :: rest -> drop_at_most (n - 1) rest

(* The incumbent tracker: one per run, shared by every portfolio entrant
   (hence the mutex — entrants race on separate domains). An examined
   state becomes a candidate when its h beats every previous candidate's
   (a cheap filter: coverage is only computed for the few states on the
   descending-h envelope), and a candidate is reported when its coverage
   has not decreased — so the reported stream is monotone by
   construction: covered never decreases, h never worsens. *)
type tracker = {
  tr_mutex : Mutex.t;
  mutable tr_obs : int;
  mutable tr_best_h : int;
  mutable tr_best_cov : int;
  mutable tr_best : incumbent option;
  tr_report : incumbent -> unit;
  tr_coverage : State.t -> Goal.coverage list;
  tr_prefix : Fira.Op.t list;
  tr_telemetry : Telemetry.t;
}

(* A candidate incumbent for [state], reached by [ops] from the source.
   Called under the tracker's lock. *)
let incumbent_of t ~entrant ~ops ~h state =
  let cov = t.tr_coverage state in
  let covered, total = Goal.coverage_totals cov in
  {
    inc_ops = ops;
    inc_cost = List.length ops;
    inc_h = h;
    inc_coverage = cov;
    inc_covered = covered;
    inc_total = total;
    inc_entrant = entrant;
    inc_seq = t.tr_obs;
  }

let tracker_report t inc =
  t.tr_best <- Some inc;
  t.tr_best_cov <- inc.inc_covered;
  Telemetry.count t.tr_telemetry "discover.incumbents" 1;
  t.tr_report inc

let tracker_observe t ~entrant ~estimate
    (w : (State.t, Fira.Op.t) Search.Space.witness) =
  let h = estimate w.Search.Space.w_state in
  Mutex.protect t.tr_mutex (fun () ->
      t.tr_obs <- t.tr_obs + 1;
      if h < t.tr_best_h then begin
        t.tr_best_h <- h;
        let ops = t.tr_prefix @ List.rev w.Search.Space.w_path_rev in
        let inc = incumbent_of t ~entrant ~ops ~h w.Search.Space.w_state in
        if inc.inc_covered >= t.tr_best_cov then tracker_report t inc
      end)

(* The goal state closes the stream: reported unconditionally with h = 0
   and full coverage, so the final incumbent always equals the returned
   mapping. *)
let tracker_final t ~entrant ~ops final =
  Mutex.protect t.tr_mutex (fun () ->
      t.tr_obs <- t.tr_obs + 1;
      t.tr_best_h <- 0;
      tracker_report t (incumbent_of t ~entrant ~ops ~h:0 final))

let tracker_best t = Mutex.protect t.tr_mutex (fun () -> t.tr_best)

(* The default portfolio: diverse (algorithm × heuristic) entrants. RBFS
   and IDA+TT are the paper's strongest configurations; A* and Greedy
   with the discrete h1 explore a different region of the space; the
   beam is the fast incomplete scout. *)
let portfolio_entrants () =
  let ida_k = Heuristics.Heuristic.Scaling.ida.k_cosine in
  let rbfs_k = Heuristics.Heuristic.Scaling.rbfs.k_cosine in
  [
    (Rbfs, Heuristics.Heuristic.cosine ~k:rbfs_k);
    (Ida_tt, Heuristics.Heuristic.cosine ~k:ida_k);
    (Astar, Heuristics.Heuristic.h1);
    (Beam 8, Heuristics.Heuristic.cosine ~k:ida_k);
    (Greedy, Heuristics.Heuristic.h1);
  ]

let sum_stats ~iterations ~elapsed_s results =
  List.fold_left
    (fun acc (r : (State.t, Fira.Op.t) Search.Space.result) ->
      let s = r.Search.Space.stats in
      {
        acc with
        Search.Space.examined = acc.Search.Space.examined + s.Search.Space.examined;
        generated = acc.Search.Space.generated + s.Search.Space.generated;
        expanded = acc.Search.Space.expanded + s.Search.Space.expanded;
      })
    {
      Search.Space.examined = 0;
      generated = 0;
      expanded = 0;
      iterations;
      elapsed_s;
    }
    results

(* Per-operator-kind event names, built once per kind. *)
let proposed_event = Fira.Op.event_names "moves.proposed."
let applied_event = Fira.Op.event_names "moves.applied."

let frontier_policy : algorithm -> Search.Frontier_search.policy = function
  | Greedy -> Greedy
  | Bfs -> Bfs
  | Astar -> Astar
  | Beam w -> Beam w
  | (Ida | Ida_tt | Rbfs | Portfolio) as a ->
      invalid_arg ("Discover: no frontier policy for " ^ algorithm_name a)

(* ------------------------------------------------------------------ *)
(* A run in three stages: prepare (partial target, warm prefix, resume *)
(* replay), run (one engine or the portfolio), report.                 *)
(* ------------------------------------------------------------------ *)

type snapshot =
  (State.t, Fira.Op.t, Relational.Fingerprint.t) Search.Space.snapshot

type prepared = {
  algorithm : algorithm;  (** the snapshot's on resume *)
  target_info : Moves.target_info;
  target_profile : Heuristics.Profile.t;
  target_cosine : Heuristics.Profile.target;
      (** the target profile's cosine index, shared by every entrant *)
  moves_config : Moves.config;
  root : State.t;  (** the source with the warm prefix applied *)
  warm_prefix : Fira.Op.t list;
  resume_snap : snapshot option;
}

(* Replay [ops] from [st] under the move generator's syntactic semantics
   and cell bound, so the states are bit-identical (fingerprint and all)
   to search-built ones. Stops at the first operator that does not
   apply or would exceed the bound, or at a state where [halt] holds.
   Returns the applied prefix, the state reached and whether every
   operator applied. *)
let replay_ops ~registry ~max_cells ?(halt = fun _ -> false) st ops =
  let rec go acc st = function
    | [] -> (List.rev acc, st, true)
    | _ when halt st -> (List.rev acc, st, false)
    | op :: rest -> (
        match
          Fira.Eval.apply_interned_delta ~semantics:`Syntactic registry op
            (State.idb st)
        with
        | exception
            ( Fira.Eval.Error _ | Relational.Relation.Error _
            | Relational.Database.Error _ ) ->
            (List.rev acc, st, false)
        | idb', delta ->
            if State.total_cells st + Fira.Eval.idelta_cells delta > max_cells
            then (List.rev acc, st, false)
            else go (op :: acc) (State.of_isuccessor st delta idb') rest)
  in
  go [] st ops

let prepare ~registry ~warm_start ?resume config ~source ~target =
  (* Partial goals: restrict the target to the requested relations before
     anything else looks at it — the goal test, the move generator and
     the heuristic profile then all work toward the sub-target. *)
  let target =
    match config.partial with
    | [] -> target
    | rels ->
        Relational.Database.of_list
          (List.map
             (fun n ->
               match Relational.Database.find_opt target n with
               | Some r -> (n, r)
               | None ->
                   invalid_arg
                     (Printf.sprintf
                        "Discover: partial goal relation %S not in target" n))
             rels)
  in
  (* A resumed run continues the snapshot's algorithm and re-applies the
     snapshot's own warm prefix — node paths are stored prefix-free
     (relative to the warm-started root), so the engines' recomputed g
     values (path lengths) agree with the transplanted dedup tables. The
     caller's warm start is ignored. *)
  let algorithm, warm_start =
    match resume with
    | Some fr -> (fr.fr_algorithm, fr.fr_prefix)
    | None -> (config.algorithm, warm_start)
  in
  Log.debug (fun m ->
      m "discover: %s/%s goal=%s budget=%d jobs=%d source=%d rels target=%d rels"
        (algorithm_name algorithm)
        config.heuristic.Heuristics.Heuristic.name
        (Goal.mode_to_string config.goal)
        config.budget config.jobs
        (Relational.Database.size source)
        (Relational.Database.size target));
  let target_info = Moves.target_info target in
  let moves_config = { config.moves with goal = config.goal } in
  let replay =
    replay_ops ~registry ~max_cells:moves_config.Moves.max_state_cells
  in
  let root = State.of_database source in
  (* The root is the only state fingerprinted from scratch; successors are
     all maintained incrementally (see [Moves.successors]). *)
  Telemetry.count config.telemetry "fingerprint.full" 1;
  (* Warm start: apply the longest applicable prefix of the supplied
     program (a normalized cached mapping for a near-miss pair, say) and
     search from the resulting state instead of the source. It stops at
     the first inapplicable operator, at the cell bound, or as soon as
     the goal is reached — a drifted pair whose cached program still
     applies ends the search at its root. *)
  let warm_prefix, root =
    match warm_start with
    | [] -> ([], root)
    | ops ->
        let at_goal st =
          Goal.reached_interned config.goal
            ~target:(Moves.target_idb target_info)
            (State.idb st)
        in
        let prefix, st, _ = replay ~halt:at_goal root ops in
        Telemetry.count config.telemetry "discover.warm_ops"
          (List.length prefix);
        Log.debug (fun m ->
            m "warm start: applied %d/%d prefix operators"
              (List.length prefix) (List.length ops));
        (prefix, st)
  in
  (* Resume: rebuild live open nodes by replaying each prefix-free path
     from the warm-started root. A path that no longer applies is
     dropped — the search just re-derives whatever it led to. *)
  let resume_snap =
    Option.map
      (fun fr ->
        let dropped_checked = ref 0 in
        let nodes =
          List.filter_map
            (fun (i, path) ->
              match replay root path with
              | _, st, true -> Some (path, st)
              | _, _, false ->
                  (* A dropped node inside the already-goal-tested prefix
                     shrinks the skip count, so whichever node slides
                     into its slot still gets goal-tested. *)
                  if i < fr.fr_checked then incr dropped_checked;
                  Telemetry.count config.telemetry "discover.resume.dropped" 1;
                  None)
            (List.mapi (fun i path -> (i, path)) fr.fr_nodes)
        in
        {
          Search.Space.snap_nodes = nodes;
          snap_closed = fr.fr_closed;
          snap_checked =
            min (max 0 (fr.fr_checked - !dropped_checked)) (List.length nodes);
        })
      resume
  in
  let target_profile = Heuristics.Profile.of_database target in
  {
    algorithm;
    target_info;
    target_profile;
    target_cosine = Heuristics.Profile.cosine_target target_profile;
    moves_config;
    root;
    warm_prefix;
    resume_snap;
  }

let make_tracker ?on_incumbent config p =
  {
    tr_mutex = Mutex.create ();
    tr_obs = 0;
    tr_best_h = max_int;
    (* -1 so the first observed state always reports, even with zero
       coverage: the stream opens with the root. *)
    tr_best_cov = -1;
    tr_best = None;
    tr_report = Option.value on_incumbent ~default:ignore;
    tr_coverage =
      (fun st ->
        Goal.coverage_interned config.goal
          ~target:(Moves.target_idb p.target_info)
          (State.idb st));
    tr_prefix = p.warm_prefix;
    tr_telemetry = config.telemetry;
  }

let to_frontier ~warm_prefix alg (snap : snapshot) =
  let nodes = take_at_most frontier_nodes_cap snap.Search.Space.snap_nodes in
  {
    fr_algorithm = alg;
    (* Paths are prefix-free — the warm prefix travels separately and is
       re-applied on resume before the paths replay, so the resumed
       engine's g values (path lengths) match the closed set's, and the
       prefix is prepended only when a mapping is reported. *)
    fr_nodes = List.map fst nodes;
    fr_prefix = warm_prefix;
    fr_closed =
      take_at_most frontier_closed_cap
        (* When the node cap bites, release the dropped nodes' dedup
           entries so a resumed search may at least re-admit them if
           another path re-derives them — their keys would otherwise
           prune them forever. The engines re-register the retained
           nodes' own keys on resume, so shared keys are safe. *)
        (match drop_at_most frontier_nodes_cap snap.Search.Space.snap_nodes with
        | [] -> snap.Search.Space.snap_closed
        | dropped ->
            let module FT = Hashtbl.Make (Relational.Fingerprint) in
            let dk = FT.create (List.length dropped) in
            List.iter
              (fun (_, st) -> FT.replace dk (State.fingerprint st) ())
              dropped;
            List.filter
              (fun (k, _) -> not (FT.mem dk k))
              snap.Search.Space.snap_closed);
    fr_checked = min snap.Search.Space.snap_checked (List.length nodes);
  }

(* The run stage's answer: the result to report under [name], and the
   checkpoint to hand back on a give-up. A portfolio without a winner
   reports a synthesized result carrying the summed stats. *)
type ran = {
  name : string;
  result : (State.t, Fira.Op.t) Search.Space.result;
  frontier : frontier option;
}

(* The successor memo's bound, in cells. An entry weighs the key state's
   cells plus every successor's, and each state is also charged
   [successor_memo_state_cells] for what it pins besides its cells (state
   record, relation maps, fingerprints, caches): on small states that
   overhead dominates. Shared relations are counted once per state, so
   this over-counts cells. A state holds at most [max_state_cells] (4096
   by default); a domain's two generations keep at most 2^18 weighted
   cells, which measured at up to 7 words each (about 15 MB). *)
let successor_memo_cells = 1 lsl 18
let successor_memo_state_cells = 64

let run_engine ~registry ~stop ~anytime ?tracker config p =
  let telemetry = config.telemetry in
  (* Every memo the run creates is cleared when the run ends, however it
     ends (see {!Heuristics.Memo.clear}): a finished search must leave
     nothing young alive for the next minor collection to promote.
     Portfolio entrants create theirs on other domains, hence the atomic
     list. *)
  let memos = Atomic.make [] in
  let owned memo =
    let rec push () =
      let l = Atomic.get memos in
      if
        not
          (Atomic.compare_and_set memos l
             ((fun () -> Heuristics.Memo.clear memo) :: l))
      then push ()
    in
    push ();
    memo
  in
  let compute state =
    Moves.successors ~telemetry p.moves_config registry p.target_info state
  in
  (* RBFS re-expands a state on every backtrack and IDA* on every
     iteration, and successor lists depend only on the state's content:
     for them, memoize the lists for this run by fingerprint. The stored
     state confirms a hit (a fingerprint collision computes the successors
     afresh), and the engines still count every expansion, so
     states-examined does not change. Counters: [successors.hit] /
     [successors.miss]. The frontier kernel expands each key once (A*
     again only on a strictly smaller g), so it gets no memo: there the
     memo would only keep alive successor lists that otherwise die young. *)
  let succ_memo :
      (Relational.Fingerprint.t, State.t * (Fira.Op.t * State.t) list)
      Heuristics.Memo.t =
    owned
      (Heuristics.Memo.create ~telemetry ~name:"successors"
         ~cap:successor_memo_cells
         ~weight:(fun (st, succs) ->
           let weigh s = State.total_cells s + successor_memo_state_cells in
           List.fold_left (fun n (_, s) -> n + weigh s) (weigh st) succs)
         ())
  in
  let memoized state =
    let st, succs =
      Heuristics.Memo.find_or_add succ_memo (State.fingerprint state)
        (fun _ -> (state, compute state))
    in
    if st == state || State.same_content st state then succs
    else compute state
  in
  (* The search space every engine shares, over a successor function. *)
  let module Space (G : sig
    val successors : State.t -> (Fira.Op.t * State.t) list
  end) =
  struct
    type state = State.t
    type action = Fira.Op.t

    module Key = Relational.Fingerprint

    let key = State.fingerprint

    let successors state =
      let succs = G.successors state in
      if Telemetry.enabled telemetry then
        List.iter
          (fun (op, _) -> Telemetry.count telemetry (proposed_event op) 1)
          succs;
      succs

    let is_goal state =
      Telemetry.timed telemetry "goal.test" (fun () ->
          Goal.reached_interned config.goal
            ~target:(Moves.target_idb p.target_info)
            (State.idb state))
  end in
  let module Sp = Space (struct
    let successors = compute
  end) in
  let module Sp_memo = Space (struct
    let successors = memoized
  end) in
  (* IDA* and RBFS re-visit states across iterations/backtracks; heuristic
     values depend only on the state, so memoize them by fingerprint.
     This does not affect the states-examined counts — only wall clock —
     and matters most for the Levenshtein heuristic, whose edit-distance
     computation is quadratic in the instance size. The blind heuristic
     skips profile construction altogether. The cache is bounded and
     per-domain (see {!Heuristics.Memo}), so parallel frontier expansion
     and portfolio racing can score states on any domain. *)
  let estimate_for tel (heuristic : Heuristics.Heuristic.t) =
    if heuristic.Heuristics.Heuristic.name = "h0" then fun _ -> 0
    else begin
      let memo : (Relational.Fingerprint.t, int) Heuristics.Memo.t =
        owned (Heuristics.Memo.create ~telemetry:tel ())
      in
      (* Cosine estimates skip profile materialization entirely: the
         state's dot/norm parts are folded incrementally along the parent
         chain (State.cosine_parts) from the changed columns' histograms
         and the target index — bit-identical to scoring the materialized
         profile. *)
      let eval =
        match heuristic.Heuristics.Heuristic.cosine_k with
        | Some k ->
            let target = p.target_cosine in
            fun state ->
              Heuristics.Heuristic.cosine_scaled ~k
                (State.cosine_distance ~target state)
        | None ->
            fun state ->
              heuristic.Heuristics.Heuristic.estimate ~target:p.target_profile
                (State.profile state)
      in
      fun state ->
        Heuristics.Memo.find_or_add memo (State.fingerprint state) (fun _ ->
            Telemetry.timed tel "heuristic.eval" (fun () -> eval state))
    end
  in
  (* One entrant: [alg] with [heuristic], checkpointing into [slot] when
     the run is anytime. *)
  let run_algorithm ?(stop = stop) ?pool ?resume ~slot ~entrant ~telemetry:tel
      alg heuristic =
    let estimate = estimate_for tel heuristic in
    (* Anytime observation: every goal-tested state flows through the
       shared incumbent tracker, scored with this entrant's own memoized
       heuristic (domain-safe under portfolio racing). *)
    let watch =
      Option.map (fun t w -> tracker_observe t ~entrant ~estimate w) tracker
    in
    let budget = config.budget and root = p.root in
    match alg with
    | (Ida | Ida_tt) as alg ->
        let module I = Search.Ida.Make (Sp_memo) in
        I.search ~stop ~telemetry:tel ~budget ~table:(alg = Ida_tt) ?watch
          ~heuristic:estimate root
    | Rbfs ->
        let module R = Search.Rbfs.Make (Sp_memo) in
        R.search ~stop ~telemetry:tel ~budget ?watch ~heuristic:estimate root
    | Astar | Greedy | Beam _ | Bfs ->
        let module F = Search.Frontier_search.Make (Sp) in
        let snapshot =
          if anytime then
            Some
              (fun snap ->
                slot := Some (to_frontier ~warm_prefix:p.warm_prefix alg snap))
          else None
        in
        F.search ~stop ~telemetry:tel ?pool ~budget ?watch ?resume ?snapshot
          (frontier_policy alg) ~heuristic:estimate root
    | Portfolio ->
        invalid_arg "Discover: Portfolio cannot be an entrant of itself"
  in
  Fun.protect ~finally:(fun () ->
      List.iter (fun clear -> clear ()) (Atomic.get memos))
  @@ fun () ->
  match p.algorithm with
  | Portfolio -> (
      let elapsed = Search.Space.stopwatch () in
      let entrants =
        List.map
          (fun (alg, heuristic) ->
            let name =
              Printf.sprintf "%s/%s" (algorithm_name alg)
                heuristic.Heuristics.Heuristic.name
            in
            let slot = ref None in
            ( (name, slot),
              {
                Search.Portfolio.name;
                run =
                  (fun ~cancelled ->
                    run_algorithm ~stop:cancelled ~slot ~entrant:name
                      ~telemetry:(Telemetry.with_scope telemetry name)
                      alg heuristic);
              } ))
          (portfolio_entrants ())
      in
      let race =
        Search.Portfolio.race ~telemetry ~domains:config.jobs ~stop
          ~won:Search.Space.found (List.map snd entrants)
      in
      let completed = List.map snd race.Search.Portfolio.results in
      (* Honest accounting: the portfolio's cost is the work of every
         entrant that ran, not just the winner's. *)
      let stats iterations =
        sum_stats ~iterations ~elapsed_s:(elapsed ()) completed
      in
      match race.Search.Portfolio.winner with
      | Some (name, result) ->
          {
            name = Printf.sprintf "Portfolio(%s)" name;
            result =
              {
                result with
                Search.Space.stats =
                  stats result.Search.Space.stats.Search.Space.iterations;
              };
            frontier = None;
          }
      | None ->
          let gave_up =
            List.exists
              (fun (r : (State.t, Fira.Op.t) Search.Space.result) ->
                match r.Search.Space.outcome with
                | Search.Space.Budget_exceeded | Search.Space.Cancelled -> true
                | _ -> false)
              completed
          in
          Log.info (fun m ->
              m "portfolio: no entrant found a mapping (%d entrants)"
                (List.length completed));
          (* When every entrant gives up, the best entrant's partial work
             — the incumbent it reported and the frontier it
             checkpointed — is propagated instead of being discarded with
             the race. *)
          let frontier =
            if not gave_up then None
            else
              let named =
                List.map (fun ((n, slot), _) -> (n, !slot)) entrants
              in
              let preferred =
                match Option.bind tracker tracker_best with
                | Some inc -> Option.join (List.assoc_opt inc.inc_entrant named)
                | None -> None
              in
              match preferred with
              | Some f -> Some f
              | None -> List.find_map snd named
          in
          {
            name = "Portfolio";
            result =
              {
                Search.Space.outcome =
                  (if gave_up then Search.Space.Budget_exceeded
                   else Search.Space.Exhausted);
                stats = stats 1;
              };
            frontier;
          })
  | alg ->
      let tel = Telemetry.with_scope telemetry (algorithm_name alg) in
      let slot = ref None in
      let entrant = algorithm_name alg in
      let run ?pool () =
        run_algorithm ?pool ?resume:p.resume_snap ~slot ~entrant ~telemetry:tel
          alg config.heuristic
      in
      let result =
        match alg with
        | (Astar | Beam _) when config.jobs > 1 ->
            Search.Pool.with_pool ~telemetry:tel ~domains:config.jobs
              (fun pool -> run ~pool ())
        | _ -> run ()
      in
      { name = entrant; result; frontier = !slot }

let report ?tracker config p { name; result; frontier } =
  let examined = result.Search.Space.stats.Search.Space.examined in
  let outcome =
    match result.Search.Space.outcome with
    | Search.Space.Found { path; final; _ } ->
        Log.info (fun m ->
            m "discovered %d-operator mapping (%s), %d states examined"
              (List.length path) name examined);
        (* The reported mapping replays from the original source, so the
           warm prefix is part of it. *)
        let path = p.warm_prefix @ path in
        if Telemetry.enabled config.telemetry then
          List.iter
            (fun op -> Telemetry.count config.telemetry (applied_event op) 1)
            path;
        (* Close the incumbent stream with the answer itself, so the
           final incumbent always equals the returned mapping. *)
        Option.iter
          (fun t -> tracker_final t ~entrant:name ~ops:path final)
          tracker;
        Mapping
          {
            Mapping.expr = Fira.Expr.of_ops path;
            algorithm = name;
            heuristic = config.heuristic.Heuristics.Heuristic.name;
            goal = config.goal;
            stats = result.Search.Space.stats;
          }
    | Search.Space.Exhausted ->
        Log.info (fun m -> m "space exhausted after %d states" examined);
        No_mapping result.Search.Space.stats
    | Search.Space.Budget_exceeded ->
        Log.info (fun m -> m "budget exceeded at %d states" examined);
        Gave_up result.Search.Space.stats
    | Search.Space.Cancelled ->
        (* An honest give-up: a deadline, a shutdown or a lost race. *)
        Log.info (fun m -> m "cancelled after %d states" examined);
        Gave_up result.Search.Space.stats
  in
  {
    a_outcome = outcome;
    a_incumbent = Option.bind tracker tracker_best;
    a_frontier = frontier;
  }

(* The public entry points: one [discover] span around the three stages,
   then the sink is flushed. *)
let discover_run ?(registry = Fira.Semfun.empty_registry)
    ?(stop = Search.Space.never_stop) ?(warm_start = []) ?(anytime = false)
    ?on_incumbent ?resume config ~source ~target =
  let result =
    Telemetry.span config.telemetry "discover" (fun () ->
        let p = prepare ~registry ~warm_start ?resume config ~source ~target in
        let tracker =
          if anytime then Some (make_tracker ?on_incumbent config p) else None
        in
        run_engine ~registry ~stop ~anytime ?tracker config p
        |> report ?tracker config p)
  in
  Option.iter
    (fun fr ->
      Telemetry.count config.telemetry "discover.frontier.nodes"
        (List.length fr.fr_nodes))
    result.a_frontier;
  Telemetry.flush config.telemetry;
  result

let discover ?registry ?stop ?warm_start config ~source ~target =
  (discover_run ?registry ?stop ?warm_start config ~source ~target).a_outcome

let discover_anytime = discover_run ~anytime:true

(* ------------------------------------------------------------------ *)
(* Frontier serialization: a line-based text form so a checkpoint can
   leave the process — saved to a file by the CLI, retained by the
   server behind a resume token. Operators reuse the mapping parser's
   round-trippable ASCII form, closed-set keys are hex fingerprints. *)
(* ------------------------------------------------------------------ *)

let frontier_to_string fr =
  let b = Buffer.create 1024 in
  Buffer.add_string b "# tupelo frontier v1\n";
  Buffer.add_string b
    (Printf.sprintf "algorithm %s\n" (algorithm_name fr.fr_algorithm));
  Buffer.add_string b (Printf.sprintf "checked %d\n" fr.fr_checked);
  (* An operator block: a counted header, then one operator per line. *)
  let add_ops header ops =
    Buffer.add_string b (Printf.sprintf "%s %d\n" header (List.length ops));
    List.iter
      (fun op ->
        Buffer.add_string b (Fira.Op.to_string op);
        Buffer.add_char b '\n')
      ops
  in
  if fr.fr_prefix <> [] then add_ops "prefix" fr.fr_prefix;
  List.iter
    (fun (k, g) ->
      Buffer.add_string b
        (Printf.sprintf "closed %s %d\n" (Relational.Fingerprint.to_hex k) g))
    fr.fr_closed;
  List.iter (add_ops "node") fr.fr_nodes;
  Buffer.contents b

let frontier_of_string s =
  let lines =
    String.split_on_char '\n' s
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let parse_closed line =
    match String.index_opt line ' ' with
    | Some i -> (
        let hex = String.sub line 0 i in
        let g = String.sub line (i + 1) (String.length line - i - 1) in
        match (Relational.Fingerprint.of_hex hex, int_of_string_opt g) with
        | Some k, Some g -> Ok (k, g)
        | _ -> err "frontier: bad closed entry %S" line)
    | None -> err "frontier: bad closed entry %S" line
  in
  let strip_prefix p line =
    let lp = String.length p in
    if String.length line > lp && String.sub line 0 lp = p then
      Some (String.sub line lp (String.length line - lp))
    else None
  in
  match lines with
  | alg_line :: checked_line :: rest -> (
      match
        ( Option.bind (strip_prefix "algorithm " alg_line)
            algorithm_of_string,
          Option.bind (strip_prefix "checked " checked_line) int_of_string_opt
        )
      with
      | Some algorithm, Some checked -> (
          let rec take_ops k acc rest =
            if k = 0 then Ok (List.rev acc, rest)
            else
              match rest with
              | [] -> err "frontier: truncated operator block"
              | op_line :: rest -> (
                  match Fira.Parser.op_of_string op_line with
                  | Ok op -> take_ops (k - 1) (op :: acc) rest
                  | Error e ->
                      err "frontier: bad operator %S (%s)" op_line e)
          in
          (* The optional warm-prefix block sits between the header and
             the closed/node entries; its absence means a cold search. *)
          let prefix_and_rest =
            match rest with
            | line :: rest' -> (
                match
                  Option.bind (strip_prefix "prefix " line) int_of_string_opt
                with
                | Some n when n >= 0 -> take_ops n [] rest'
                | _ -> Ok ([], rest))
            | [] -> Ok ([], [])
          in
          let rec parse_entries closed nodes = function
            | [] -> Ok (List.rev closed, List.rev nodes)
            | line :: rest -> (
                match strip_prefix "closed " line with
                | Some payload -> (
                    match parse_closed payload with
                    | Ok entry -> parse_entries (entry :: closed) nodes rest
                    | Error e -> Error e)
                | None -> (
                    match
                      Option.bind (strip_prefix "node " line) int_of_string_opt
                    with
                    | Some n when n >= 0 -> (
                        match take_ops n [] rest with
                        | Ok (path, rest) ->
                            parse_entries closed (path :: nodes) rest
                        | Error e -> Error e)
                    | _ -> err "frontier: unexpected line %S" line))
          in
          match prefix_and_rest with
          | Error e -> Error e
          | Ok (fr_prefix, rest) -> (
              match parse_entries [] [] rest with
              | Ok (fr_closed, fr_nodes) ->
                  Ok
                    {
                      fr_algorithm = algorithm;
                      fr_nodes;
                      fr_prefix;
                      fr_closed;
                      fr_checked = checked;
                    }
              | Error e -> Error e))
      | _ -> err "frontier: missing algorithm/checked header")
  | _ -> err "frontier: missing header"
