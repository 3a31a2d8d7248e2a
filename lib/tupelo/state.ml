open Relational

(* States carry the interned columnar database (Idb.t) — the form the
   successor-generation hot path reads and writes. A caller that wants
   the boxed Database.t converts [idb] itself.

   The profile is maintained incrementally but computed on demand: a fresh
   successor holds its parent and the operator's delta, and the profile is
   materialized (recursively, so a chain of unforced ancestors collapses in
   one walk) the first time a heuristic asks for it. Successor states that
   are deduplicated or never scored — the majority under closed-set-heavy
   searches — never pay for profile maintenance at all.

   The caches are plain mutable fields rather than [Lazy.t] on purpose:
   parallel frontier expansion can score one state from several domains at
   once, and [Lazy] is not safe to force concurrently. Racing domains here
   at worst recompute the same structurally-equal value and both write it —
   an idempotent, benign race on an atomic pointer store. *)
type t = {
  idb : Idb.t;
  fp : Fingerprint.t;
  cells : int;  (* total cells, maintained from the parent's count + delta *)
  mutable profile : profile_state;
  mutable score : (Heuristics.Profile.target * float * int) option;
      (* cosine parts (dot, sq_norm) against one target index, keyed by
         physical identity of that index — see [cosine_parts] *)
}

and profile_state =
  | Profile of Heuristics.Profile.t
  | From_parent of t * (int * Irel.t) list * (int * Irel.t) list
      (* parent, removed, added — the interned relation-granular delta *)

let of_database db =
  let idb = Idb.of_database db in
  {
    idb;
    (* Idb.fingerprint sums the same per-relation terms as
       Fingerprint.of_database — bit-identical (property-tested). *)
    fp = Idb.fingerprint idb;
    cells = Idb.cells idb;
    profile = Profile (Heuristics.Profile.of_idb idb);
    score = None;
  }

let of_idb idb =
  {
    idb;
    fp = Idb.fingerprint idb;
    cells = Idb.cells idb;
    profile = Profile (Heuristics.Profile.of_idb idb);
    score = None;
  }

let rec profile s =
  match s.profile with
  | Profile p -> p
  | From_parent (parent, removed, added) ->
      (* Relation-granular delta; Profile skips physically shared columns
         and nets the rest, so a rename or a λ pays for one column. *)
      let p = Heuristics.Profile.apply_idelta (profile parent) ~removed ~added in
      s.profile <- Profile p;
      p

(* Cosine score parts — dot(s, target) and |s|² — maintained incrementally
   along the parent chain, so scoring a successor costs its changed
   columns' histograms and never materializes a profile: the delta algebra
   ([Profile.idelta_cosine]) needs no parent counts, so a cosine search
   forces no profile but the root's.

   Both parts are exact integers (stored as float/int), so the incremental
   score is bit-identical to [Vector.dot (Profile.vector (profile s)) tvec]
   and [Vector.sq_norm ...] — search order cannot diverge from the
   profile-based path. The cache is keyed by physical identity of the
   target index (one per search); same benign-race story as the other
   caches. *)
let rec cosine_parts ~target s =
  match s.score with
  | Some (tg, dot, sq) when tg == target -> (dot, sq)
  | _ ->
      let ((dot, sq) as parts) =
        match s.profile with
        | Profile p ->
            let v = Heuristics.Profile.vector p in
            ( Heuristics.Vector.dot v (Heuristics.Profile.target_vector target),
              Heuristics.Vector.sq_norm v )
        | From_parent (parent, removed, added) ->
            let pdot, psq = cosine_parts ~target parent in
            let ddot, dsq =
              Heuristics.Profile.idelta_cosine ~target ~removed ~added
            in
            (pdot +. float_of_int ddot, psq + dsq)
      in
      s.score <- Some (target, dot, sq);
      parts

let cosine_distance ~target s =
  (* Mirrors Vector.cosine_distance operation for operation so the result
     is bit-identical to scoring the materialized vector. *)
  let dot, sq = cosine_parts ~target s in
  let tsq = Heuristics.Profile.target_sq_norm target in
  match (sq = 0, tsq = 0) with
  | true, true -> 0.0
  | true, false | false, true -> 1.0
  | false, false ->
      1.0
      -. (dot /. (sqrt (float_of_int sq) *. sqrt (float_of_int tsq)))

let delta_fp parent_fp removed added =
  let fp =
    List.fold_left
      (fun fp (name, r) -> Fingerprint.remove fp (Irel.fingerprint ~name r))
      parent_fp removed
  in
  List.fold_left
    (fun fp (name, r) -> Fingerprint.combine fp (Irel.fingerprint ~name r))
    fp added

let of_isuccessor parent (delta : Fira.Eval.idelta) idb =
  {
    idb;
    fp = delta_fp parent.fp delta.iremoved delta.iadded;
    cells = parent.cells + Fira.Eval.idelta_cells delta;
    profile = From_parent (parent, delta.iremoved, delta.iadded);
    score = None;
  }

let idb s = s.idb

let fingerprint s = s.fp
let total_cells s = s.cells

let equal a b = Fingerprint.equal a.fp b.fp
let same_content a b = Idb.equal a.idb b.idb
