(** State-space abstraction shared by all search algorithms.

    TUPELO's §2.3 casts data mapping as search: states are databases,
    actions are ℒ operators, edges have unit cost (the paper's
    [g(x)] = number of transformations applied). The algorithms below are
    generic over any space with that shape. *)

(** Hashable state identity. Algorithms key every closed set,
    transposition table and cycle check on [Key.t] via [Hashtbl.Make], so
    a space can use compact identities (e.g. the 16-byte
    [Relational.Fingerprint.t]) instead of canonical serializations. *)
module type KEY = sig
  type t

  val equal : t -> t -> bool
  val hash : t -> int
end

(** The classic choice — canonical serializations as keys. *)
module String_key = struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end

module type S = sig
  type state
  type action

  module Key : KEY

  val key : state -> Key.t
  (** Canonical identity; two states with equal keys are identical.
      Used for on-path cycle detection (IDA*, RBFS) and the frontier
      engines' dedup table. *)

  val successors : state -> (action * state) list
  (** All states one transformation away. Order matters only for
      tie-breaking. *)

  val is_goal : state -> bool
end

(** Search statistics. [examined] is the paper's reported metric: the
    number of states on which the goal test was evaluated, accumulated
    across IDA* iterations and RBFS re-expansions (redundant explorations
    count, as in the paper). *)
type stats = {
  examined : int;
  generated : int;  (** successor states produced *)
  expanded : int;   (** states whose successors were produced *)
  iterations : int; (** IDA* depth-bound iterations (1 elsewhere) *)
  elapsed_s : float;
}

type ('state, 'action) outcome =
  | Found of { path : 'action list; final : 'state; cost : int }
      (** [path] in application order; [cost] = number of actions. *)
  | Exhausted  (** the whole (budgeted) space contains no goal *)
  | Budget_exceeded  (** gave up after examining the budget of states *)
  | Cancelled
      (** stopped by an external cancellation signal (e.g. a
          {!Portfolio} race another entrant won); the stats describe the
          work done up to that point *)

type ('state, 'action) result = {
  outcome : ('state, 'action) outcome;
  stats : stats;
}

(** One examined state, as seen by an anytime observer: the state, its
    action path from the root in reverse application order, and its path
    cost g. Watchers fire once per goal-tested state — after the budget
    check, before the goal test — so a pure observer never perturbs the
    outcome, the stats or the examination order. *)
type ('state, 'action) witness = {
  w_state : 'state;
  w_path_rev : 'action list;  (** reverse application order *)
  w_cost : int;  (** g: actions from the root *)
}

(** A resumable frontier: everything {!Frontier_search} (A*, greedy,
    beam, BFS) needs to continue a budget-exceeded or cancelled search
    where it stopped. [snap_nodes] are the open nodes in the order the
    engine would have considered them (paths in application order);
    [snap_closed] transplants the dedup table — keys already enqueued or
    expanded, each with the smallest g it was reached at. Only A* reads
    that g (to reopen a key reached more cheaply); greedy, BFS and beam
    never reopen a key and read an entry as membership, whatever its g.
    [snap_checked] is beam-specific: the number of head nodes of the
    snapshot already goal-tested in the interrupted sweep, skipped on
    resume so the examined count continues exactly. *)
type ('state, 'action, 'key) snapshot = {
  snap_nodes : ('action list * 'state) list;
  snap_closed : ('key * int) list;
  snap_checked : int;
}

let default_budget = 1_000_000

(** {2 Shared bookkeeping}

    Every algorithm maintains the same counters and stopwatch; they are
    factored here so the accounting (and its clock) cannot drift between
    implementations. *)

(** Mutable counters shared by all algorithm implementations. *)
type counters = {
  mutable examined_c : int;
  mutable generated_c : int;
  mutable expanded_c : int;
  mutable iterations_c : int;
}

let counters () =
  { examined_c = 0; generated_c = 0; expanded_c = 0; iterations_c = 1 }

(** Stable telemetry event names shared by every algorithm (the schema is
    documented in [Telemetry]); counter sums are kept in lock-step with
    the {!counters} fields by the helpers below, so an aggregated trace
    always reconciles with the reported {!stats}. *)
module Ev = struct
  let examine = "search.examine"
  let expand = "search.expand"
  let generate = "search.generate"
  let prune_seen = "search.prune.seen"
  let prune_stale = "search.prune.stale"
  let prune_cycle = "search.prune.cycle"
  let frontier = "search.frontier"
  let iteration = "search.iteration"
  let bound = "search.bound"
  let outcome = "search.outcome"
end

let tick_examined tel c =
  c.examined_c <- c.examined_c + 1;
  Telemetry.count tel Ev.examine 1

let record_expansion tel c ~generated =
  c.expanded_c <- c.expanded_c + 1;
  c.generated_c <- c.generated_c + generated;
  Telemetry.count tel Ev.expand 1;
  Telemetry.count tel Ev.generate generated

let tick_iteration tel c =
  c.iterations_c <- c.iterations_c + 1;
  Telemetry.count tel Ev.iteration 1

(* CLOCK_MONOTONIC via bechamel's stub: immune to wall-clock steps, so
   elapsed_s can never go negative (and is clamped besides, out of
   paranoia about broken clocks). *)
let now_ns () = Monotonic_clock.now ()

let stopwatch () =
  let t0 = now_ns () in
  fun () -> Float.max 0. (Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9)

let outcome_name = function
  | Found _ -> "found"
  | Exhausted -> "exhausted"
  | Budget_exceeded -> "budget_exceeded"
  | Cancelled -> "cancelled"

let finish ?(telemetry = Telemetry.disabled) c elapsed outcome =
  Telemetry.message telemetry Ev.outcome (fun () -> outcome_name outcome);
  {
    outcome;
    stats =
      {
        examined = c.examined_c;
        generated = c.generated_c;
        expanded = c.expanded_c;
        iterations = c.iterations_c;
        elapsed_s = elapsed ();
      };
  }

let validate_budget name budget =
  if budget <= 0 then
    invalid_arg (Printf.sprintf "%s: budget must be positive (got %d)" name budget)

(* A [stop] callback that never fires: the default for standalone runs. *)
let never_stop () = false

let found result =
  match result.outcome with Found _ -> true | _ -> false

let path_exn result =
  match result.outcome with
  | Found { path; _ } -> path
  | _ -> invalid_arg "Space.path_exn: no solution"

let cost_exn result =
  match result.outcome with
  | Found { cost; _ } -> cost
  | _ -> invalid_arg "Space.cost_exn: no solution"

let pp_stats ppf s =
  Format.fprintf ppf
    "examined=%d generated=%d expanded=%d iterations=%d elapsed=%.3fs"
    s.examined s.generated s.expanded s.iterations s.elapsed_s
