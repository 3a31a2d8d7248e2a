open Relational
module Strings = Set.Make (String)

(* Multiplicity maps are keyed by interned string ids (Intern.string_id) —
   REL and ATT names directly, VALUE by the id of its printed form. Ids
   biject with strings, so key-set cardinalities (all the set heuristics
   consume) agree exactly with the old string keying. *)
module Counts = Map.Make (Int)

(* The REL/ATT/VALUE projections are kept as multiplicity maps rather than
   sets so they can be maintained under triple removal: a name disappears
   from the projection exactly when its count reaches zero. The set and
   string views of the old representation are derived on demand. *)
type t = {
  rel_counts : int Counts.t;
  att_counts : int Counts.t;
  val_counts : int Counts.t;
  vector : Vector.t;
}

let empty =
  {
    rel_counts = Counts.empty;
    att_counts = Counts.empty;
    val_counts = Counts.empty;
    vector = Vector.empty;
  }

let incr m k =
  Counts.update k (function None -> Some 1 | Some c -> Some (c + 1)) m

let add_id_triple p ((r, a, v) as triple) =
  {
    rel_counts = incr p.rel_counts r;
    att_counts = incr p.att_counts a;
    val_counts = incr p.val_counts v;
    vector = Vector.add_id p.vector triple;
  }

let intern_triple (r, a, v) =
  (Intern.string_id r, Intern.string_id a, Intern.string_id v)

let add_triple p triple = add_id_triple p (intern_triple triple)
let add_triples p triples = List.fold_left add_triple p triples
let add_id_triples p triples = List.fold_left add_id_triple p triples
let of_triples triples = add_triples empty triples

let relation_triples name rel =
  let atts = Relation.attributes rel in
  let arity = List.length atts in
  Relation.fold
    (fun row acc ->
      if Row.arity row <> arity then
        invalid_arg
          (Printf.sprintf
             "Profile.relation_triples: ragged relation %S: row arity %d does \
              not match schema arity %d"
             name (Row.arity row) arity);
      List.fold_left2
        (fun acc att v ->
          if Value.is_null v then acc else (name, att, Value.to_string v) :: acc)
        acc atts (Row.to_list row))
    rel []

let irel_triples name rel =
  let atts = Irel.atts rel in
  let n = Irel.cardinality rel in
  let acc = ref [] in
  for j = 0 to Array.length atts - 1 do
    let att = atts.(j) in
    let ids = Irel.col_ids rel j in
    for i = 0 to n - 1 do
      let vid = ids.(i) in
      if not (Intern.value_is_null vid) then
        acc := (name, att, Intern.value_str_id vid) :: !acc
    done
  done;
  !acc

(* Incremental application of a relation-granular interned delta.

   Two reductions keep this O(changed cells), not O(changed relations):

   - a replaced relation usually shares most column RECORDS with its
     predecessor (rename_att, project_away, extend, promote and the
     identity fast paths all share untouched columns physically) — a
     column present on both sides under the same relation name contributes
     identical triples to both, so it is skipped wholesale;
   - the surviving cells are netted per component first (from each
     column's cached histogram), so each distinct REL/ATT/VALUE key and
     each distinct vector triple pays exactly one map update however many
     cells mention it. *)
let col_shared name att ids side =
  List.exists
    (fun (name', r') ->
      name = name'
      &&
      let atts' = Irel.atts r' in
      let rec go j =
        j < Array.length atts'
        && ((atts'.(j) = att && Irel.col_ids r' j == ids) || go (j + 1))
      in
      go 0)
    side

let apply_idelta p ~removed ~added =
  let rel_net : (int, int ref) Hashtbl.t = Hashtbl.create 8 in
  let att_net : (int, int ref) Hashtbl.t = Hashtbl.create 16 in
  let val_net : (int, int ref) Hashtbl.t = Hashtbl.create 64 in
  let vec_net : (int * int * int, int ref) Hashtbl.t = Hashtbl.create 64 in
  let bump tbl key sign =
    match Hashtbl.find_opt tbl key with
    | Some c -> c := !c + sign
    | None -> Hashtbl.add tbl key (ref sign)
  in
  let scan sign other (name, rel) =
    let atts = Irel.atts rel in
    for j = 0 to Array.length atts - 1 do
      let att = atts.(j) in
      if not (col_shared name att (Irel.col_ids rel j) other) then begin
        (* The column's cached histogram has its cells netted already: a
           column with few distinct values (the shape × and ↓ produce)
           pays per distinct value, and the REL/ATT keys pay once. *)
        let h = Irel.histogram rel j in
        let nonnull = Array.fold_left ( + ) 0 h.Irel.counts in
        if nonnull > 0 then begin
          bump rel_net name (sign * nonnull);
          bump att_net att (sign * nonnull);
          Array.iteri
            (fun k v ->
              let c = sign * h.Irel.counts.(k) in
              bump val_net v c;
              bump vec_net (name, att, v) c)
            h.Irel.strs
        end
      end
    done
  in
  List.iter (scan (-1) added) removed;
  List.iter (scan 1 removed) added;
  let apply_counts tbl counts =
    Hashtbl.fold
      (fun key c counts ->
        let n = !c in
        if n = 0 then counts
        else
          Counts.update key
            (fun cur ->
              let cur = Option.value ~default:0 cur in
              let c' = cur + n in
              if c' < 0 then
                invalid_arg "Profile: removing a triple that is not present"
              else if c' = 0 then None
              else Some c')
            counts)
      tbl counts
  in
  let vector =
    Hashtbl.fold
      (fun key c vec ->
        let n = !c in
        if n > 0 then Vector.add_id_n vec key n
        else if n < 0 then Vector.remove_id_n vec key (-n)
        else vec)
      vec_net p.vector
  in
  {
    rel_counts = apply_counts rel_net p.rel_counts;
    att_counts = apply_counts att_net p.att_counts;
    val_counts = apply_counts val_net p.val_counts;
    vector;
  }

(* The cosine target index: the target vector's coordinates grouped by
   (REL, ATT) into histograms shaped like [Irel.histogram] — value-string
   ids ascending, with their counts — sorted by (REL, ATT) for binary
   search, plus the target's squared norm. *)
type tcol = { trel : int; tatt : int; tstrs : int array; tcounts : int array }
type target = { tvec : Vector.t; tsq : int; tcols : tcol array }

let cosine_target p =
  (* [fold_id] visits coordinates in ascending (rel, att, value) order, so
     each (rel, att) group is contiguous and its values ascend. *)
  let groups =
    Vector.fold_id
      (fun (r, a, v) c acc ->
        match acc with
        | (r', a', vs, cs) :: rest when r = r' && a = a' ->
            (r, a, v :: vs, c :: cs) :: rest
        | _ -> (r, a, [ v ], [ c ]) :: acc)
      p.vector []
  in
  let tcols =
    Array.of_list
      (List.rev_map
         (fun (trel, tatt, vs, cs) ->
           {
             trel;
             tatt;
             tstrs = Array.of_list (List.rev vs);
             tcounts = Array.of_list (List.rev cs);
           })
         groups)
  in
  { tvec = p.vector; tsq = Vector.sq_norm p.vector; tcols }

let target_vector t = t.tvec
let target_sq_norm t = t.tsq

(* Index of the target's (rel, att) histogram, or -1. *)
let find_tcol t rel att =
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) / 2 in
      let c = t.tcols.(mid) in
      let d =
        if c.trel <> rel then Int.compare rel c.trel
        else Int.compare att c.tatt
      in
      if d = 0 then mid else if d < 0 then go lo mid else go (mid + 1) hi
  in
  go 0 (Array.length t.tcols)

(* Σ c·t over the ids two ascending histograms share. *)
let merge_dot strs counts tstrs tcounts =
  let n = Array.length strs and m = Array.length tstrs in
  let rec go i k acc =
    if i >= n || k >= m then acc
    else
      let x = Array.unsafe_get strs i and y = Array.unsafe_get tstrs k in
      if x < y then go (i + 1) k acc
      else if x > y then go i (k + 1) acc
      else
        go (i + 1) (k + 1)
          (acc + (Array.unsafe_get counts i * Array.unsafe_get tcounts k))
  in
  go 0 0 0

(* A relation name occurs at most once on each side, so a triple's count
   in the parent is its count r in the removed version of its column, and
   the per-triple norm change n(2r + n), n = a − r, is a² − r²: summed,
   Σc² of the added columns minus Σc² of the removed ones. Columns that
   both versions share physically cancel and are skipped. *)
let idelta_cosine ~target ~removed ~added =
  let ddot = ref 0 and dsq = ref 0 in
  let scan sign other (name, rel) =
    let atts = Irel.atts rel in
    for j = 0 to Array.length atts - 1 do
      let att = atts.(j) in
      if not (col_shared name att (Irel.col_ids rel j) other) then begin
        let h = Irel.histogram rel j in
        dsq := !dsq + (sign * h.Irel.sq);
        let k = find_tcol target name att in
        if k >= 0 then
          let tc = target.tcols.(k) in
          ddot :=
            !ddot
            + (sign * merge_dot h.Irel.strs h.Irel.counts tc.tstrs tc.tcounts)
      end
    done
  in
  List.iter (scan (-1) added) removed;
  List.iter (scan 1 removed) added;
  (!ddot, !dsq)

let of_database db =
  Database.fold
    (fun name rel acc -> add_triples acc (relation_triples name rel))
    db empty

let of_idb idb =
  Idb.fold
    (fun name rel acc -> add_id_triples acc (irel_triples name rel))
    idb empty

let rel_counts p = p.rel_counts
let att_counts p = p.att_counts
let val_counts p = p.val_counts
let vector p = p.vector

let names counts =
  Counts.fold
    (fun k _ s -> Strings.add (Intern.string_of_id k) s)
    counts Strings.empty

let atts p = names p.att_counts
let values p = names p.val_counts

let str p =
  (* Sorted (by triple, with multiplicity) cell rendering, components and
     cells joined with '\x01' so distinct triple multisets cannot collide
     (e.g. ("ab","c","d") vs ("a","bc","d")). The vector iterates in id
     order, so the string triples are materialized and re-sorted to keep
     the rendering byte-identical to the historical string keying. *)
  let cells =
    List.sort compare
      (Vector.fold (fun triple c acc -> (triple, c) :: acc) p.vector [])
  in
  let buf = Buffer.create 256 in
  List.iter
    (fun ((r, a, v), c) ->
      for _ = 1 to c do
        Buffer.add_string buf r;
        Buffer.add_char buf '\x01';
        Buffer.add_string buf a;
        Buffer.add_char buf '\x01';
        Buffer.add_string buf v;
        Buffer.add_char buf '\x01'
      done)
    cells;
  Buffer.contents buf

let equal p q =
  Vector.equal p.vector q.vector
  && Counts.equal Int.equal p.rel_counts q.rel_counts
  && Counts.equal Int.equal p.att_counts q.att_counts
  && Counts.equal Int.equal p.val_counts q.val_counts
