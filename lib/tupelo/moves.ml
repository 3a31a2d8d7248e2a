open Relational
module Strings = Set.Make (String)
module SMap = Map.Make (String)

type config = {
  goal : Goal.mode;
  enable_promote : bool;
  enable_demote : bool;
  enable_dereference : bool;
  enable_partition : bool;
  enable_product : bool;
  enable_drop : bool;
  enable_merge : bool;
  enable_rename : bool;
  enable_apply : bool;
  rename_value_check : bool;
  max_lambda_inputs : int;
  max_state_cells : int;
  paranoid_fingerprints : bool;
}

let paranoid_from_env () =
  match Sys.getenv_opt "TUPELO_FP_VERIFY" with
  | Some ("1" | "true" | "yes") -> true
  | Some _ | None -> false

let default goal =
  {
    goal;
    enable_promote = true;
    enable_demote = true;
    enable_dereference = true;
    enable_partition = true;
    enable_product = true;
    enable_drop = true;
    enable_merge = true;
    enable_rename = true;
    enable_apply = true;
    rename_value_check = true;
    max_lambda_inputs = 64;
    max_state_cells = 4096;
    paranoid_fingerprints = paranoid_from_env ();
  }

(* Membership in a sorted int array (binary search). *)
let mem_sorted (arr : int array) x =
  let lo = ref 0 and hi = ref (Array.length arr) in
  let found = ref false in
  while (not !found) && !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let v = arr.(mid) in
    if v = x then found := true else if v < x then lo := mid + 1 else hi := mid
  done;
  !found

(* Non-empty intersection of two id-sorted arrays (merge walk). *)
let intersects (a : int array) (b : int array) =
  let na = Array.length a and nb = Array.length b in
  let i = ref 0 and j = ref 0 and hit = ref false in
  while (not !hit) && !i < na && !j < nb do
    let x = a.(!i) and y = b.(!j) in
    if x = y then hit := true else if x < y then incr i else incr j
  done;
  !hit

module FnTbl = Hashtbl.Make (struct
  type t = Fira.Semfun.t

  let equal = ( == )
  let hash f = Hashtbl.hash (Fira.Semfun.name f)
end)

type target_info = {
  db : Database.t;
  idb : Idb.t;
  rels : Strings.t;
  atts : Strings.t;
  values : Strings.t;
  att_values : Strings.t SMap.t;
      (* per target attribute, the value strings illustrated under it *)
  rel_values : Strings.t SMap.t;
      (* per target relation, all its value strings *)
  (* Interned mirrors, for the [icandidates] hot path. Names appear twice:
     string-sorted (for emission-order-faithful iteration) and id-sorted
     (for O(log n) membership). *)
  trels_sorted : int array;
  trels_set : int array;
  tatts_sorted : int array;
  tatts_set : int array;
  tvalues_set : int array;
  itatt_values : (int, int array) Hashtbl.t;  (* att id → id-sorted values *)
  itrel_values : (int, int array) Hashtbl.t;  (* rel id → id-sorted values *)
  itrels : (int * int array) array;
      (* (name id, att ids in schema order), name-string-sorted *)
  itrel_atts : (int, int array) Hashtbl.t;  (* rel id → att ids, schema order *)
  lambda_help : Fira.Semfun.t -> bool;
      (* does some illustrated output of the function occur among the
         target's values? Memoized per function (mutex-guarded — candidate
         generation runs on several domains under parallel expansion). *)
}

let value_strings rel =
  Relation.fold
    (fun row acc ->
      List.fold_left
        (fun acc v ->
          if Value.is_null v then acc else Strings.add (Value.to_string v) acc)
        acc (Row.to_list row))
    rel Strings.empty

let target_info db =
  let att_values =
    Database.fold
      (fun _ rel acc ->
        List.fold_left
          (fun acc att ->
            let vals =
              Relation.column rel att
              |> List.filter_map (fun v ->
                     if Value.is_null v then None else Some (Value.to_string v))
              |> Strings.of_list
            in
            SMap.update att
              (function
                | None -> Some vals
                | Some old -> Some (Strings.union old vals))
              acc)
          acc (Relation.attributes rel))
      db SMap.empty
  in
  let rel_values =
    Database.fold
      (fun name rel acc -> SMap.add name (value_strings rel) acc)
      db SMap.empty
  in
  let rels = Strings.of_list (Database.relation_names db) in
  let atts = Strings.of_list (Database.all_attributes db) in
  let values =
    Strings.of_list (List.map Value.to_string (Database.all_values db))
  in
  let sorted_ids set =
    Array.of_list (List.map Intern.string_id (Strings.elements set))
  in
  let by_id arr =
    let arr = Array.copy arr in
    Array.sort Int.compare arr;
    arr
  in
  let id_value_map smap =
    let tbl = Hashtbl.create 16 in
    SMap.iter
      (fun name set -> Hashtbl.replace tbl (Intern.string_id name) (by_id (sorted_ids set)))
      smap;
    tbl
  in
  let trels_sorted = sorted_ids rels in
  let tatts_sorted = sorted_ids atts in
  let tvalues_set = by_id (sorted_ids values) in
  let itrels =
    Array.of_list
      (List.map
         (fun (name, rel) ->
           ( Intern.string_id name,
             Array.of_list
               (List.map Intern.string_id (Relation.attributes rel)) ))
         (Database.relations db))
  in
  let itrel_atts = Hashtbl.create 16 in
  Array.iter (fun (name, atts) -> Hashtbl.replace itrel_atts name atts) itrels;
  let lambda_help =
    let tbl = FnTbl.create 8 in
    let m = Mutex.create () in
    fun f ->
      Mutex.lock m;
      let b =
        match FnTbl.find_opt tbl f with
        | Some b -> b
        | None ->
            let b =
              List.exists
                (fun (_, out) ->
                  mem_sorted tvalues_set
                    (Intern.string_id (Value.to_string out)))
                (Fira.Semfun.examples f)
            in
            FnTbl.add tbl f b;
            b
      in
      Mutex.unlock m;
      b
  in
  {
    db;
    idb = Idb.of_database db;
    rels;
    atts;
    values;
    att_values;
    rel_values;
    trels_sorted;
    trels_set = by_id trels_sorted;
    tatts_sorted;
    tatts_set = by_id tatts_sorted;
    tvalues_set;
    itatt_values = id_value_map att_values;
    itrel_values = id_value_map rel_values;
    itrels;
    itrel_atts;
    lambda_help;
  }

let target_db t = t.db
let target_idb t = t.idb

(* Values of a column rendered as strings, distinct. *)
let column_strings rel att =
  Relation.column_distinct rel att
  |> List.filter_map (fun v ->
         if Value.is_null v then None else Some (Value.to_string v))

let fresh_name base taken =
  if not (Strings.mem base taken) then base
  else
    let rec go i =
      let candidate = Printf.sprintf "%s_%d" base i in
      if Strings.mem candidate taken then go (i + 1) else candidate
    in
    go 1

(* All ordered [arity]-tuples over [atts], truncated to [cap]. Arities and
   schemas are small (critical instances), so materializing is fine. *)
let enumerate_inputs atts arity cap =
  let rec go remaining =
    if remaining = 0 then [ [] ]
    else
      let rest = go (remaining - 1) in
      List.concat_map (fun a -> List.map (fun tl -> a :: tl) rest) atts
  in
  List.filteri (fun i _ -> i < cap) (go arity)

let candidates config registry target db =
  let db_rels = Strings.of_list (Database.relation_names db) in
  let acc = ref [] in
  let emit op = acc := op :: !acc in
  let relations = Database.relations db in
  (* --- per-relation operators, relations in sorted name order --- *)
  List.iter
    (fun (rel, r) ->

      let atts = Relation.attributes r in
      let atts_set = Strings.of_list atts in
      (* ρ-att: A not wanted by the target, B a target attribute missing
         from this relation, and — the Rosetta Stone prune — the column's
         illustrated data compatible with the target attribute's. *)
      if config.enable_rename then begin
        let missing_targets = Strings.diff target.atts atts_set in
        let att_compatible a b =
          (not config.rename_value_check)
          ||
          let a_vals = Strings.of_list (column_strings r a) in
          match SMap.find_opt b target.att_values with
          | Some tv when not (Strings.is_empty tv) ->
              Strings.is_empty a_vals
              || not (Strings.is_empty (Strings.inter a_vals tv))
          | _ -> true (* no data illustrated: cannot rule the rename out *)
        in
        (* An attribute is not renamed away while the target still wants
           it — judged against the same-named target relation when there
           is one, else against all target attributes. The per-relation
           case came out of inverse-problem fuzzing: with two relations
           sharing a column name, renaming it in one of them was never
           proposed because the other relation's target schema still
           wanted the name globally. *)
        let wanted_atts =
          match Database.find_opt target.db rel with
          | Some tr -> Strings.of_list (Relation.attributes tr)
          | None -> target.atts
        in
        if not (Strings.is_empty missing_targets) then
          List.iter
            (fun a ->
              if not (Strings.mem a wanted_atts) then
                Strings.iter
                  (fun b ->
                    if att_compatible a b then
                      emit (Fira.Op.RenameAtt { rel; old_name = a; new_name = b }))
                  missing_targets)
            atts;
        (* ρ-rel, with the same data-compatibility prune. *)
        let rel_compatible n =
          (not config.rename_value_check)
          ||
          let r_vals = value_strings r in
          match SMap.find_opt n target.rel_values with
          | Some tv when not (Strings.is_empty tv) ->
              Strings.is_empty r_vals
              || not (Strings.is_empty (Strings.inter r_vals tv))
          | _ -> true
        in
        if not (Strings.mem rel target.rels) then
          Strings.iter
            (fun n ->
              if (not (Strings.mem n db_rels)) && rel_compatible n then
                emit (Fira.Op.RenameRel { old_name = rel; new_name = n }))
            (Strings.diff target.rels db_rels)
      end;
      (* ↑ promote *)
      if config.enable_promote then
        List.iter
          (fun a ->
            let vals = column_strings r a in
            let creates_target_att =
              List.exists
                (fun v -> Strings.mem v target.atts && not (Strings.mem v atts_set))
                vals
            in
            if creates_target_att then
              List.iter
                (fun b ->
                  let value_overlap =
                    List.exists
                      (fun v -> Strings.mem v target.values)
                      (column_strings r b)
                  in
                  if value_overlap then
                    emit (Fira.Op.Promote { rel; name_col = a; value_col = b }))
                atts)
          atts;
      (* ↓ demote: this relation's metadata occurs among target values, and
         the relation does not already carry its metadata as data (a second
         demote would only square the relation's size). Both tests are
         value heuristics with blind spots that inverse-problem fuzzing
         exposed — an empty relation demotes to no rows at all (so the
         value test never fires), and a data value that coincidentally
         equals a column name makes the already-demoted test suppress a
         genuinely needed ↓. So, independently of the value tests, when a
         same-named target relation's schema is exactly this relation's
         plus two attributes, demote is also proposed aimed straight at
         those two names. *)
      if config.enable_demote then begin
        let metadata_wanted =
          Strings.mem rel target.values
          || List.exists (fun a -> Strings.mem a target.values) atts
        in
        let already_demoted =
          List.exists
            (fun c ->
              List.exists (fun v -> Strings.mem v atts_set) (column_strings r c))
            atts
        in
        if metadata_wanted && not already_demoted then begin
          let taken = Strings.union atts_set target.atts in
          let att_att = fresh_name "ATT" taken in
          let rel_att = fresh_name "REL" (Strings.add att_att taken) in
          emit (Fira.Op.Demote { rel; att_att; rel_att })
        end;
        match Database.find_opt target.db rel with
        | Some tr -> (
            match
              List.filter
                (fun a -> not (Strings.mem a atts_set))
                (Relation.attributes tr)
            with
            | [ att_att; rel_att ] ->
                emit (Fira.Op.Demote { rel; att_att; rel_att })
            | _ -> ())
        | None -> ()
      end;
      (* → dereference *)
      if config.enable_dereference then begin
        let missing_targets = Strings.diff target.atts atts_set in
        if not (Strings.is_empty missing_targets) then
          List.iter
            (fun a ->
              let points_at_columns =
                List.exists (fun v -> Strings.mem v atts_set) (column_strings r a)
              in
              if points_at_columns then
                Strings.iter
                  (fun b ->
                    emit (Fira.Op.Dereference { rel; target = b; pointer_col = a }))
                  missing_targets)
            atts
      end;
      (* ℘ partition *)
      if config.enable_partition then
        List.iter
          (fun a ->
            let creates_target_rel =
              List.exists (fun v -> Strings.mem v target.rels) (column_strings r a)
            in
            if creates_target_rel then emit (Fira.Op.Partition { rel; col = a }))
          atts;
      let has_nulls =
        Relation.fold
          (fun row any -> any || List.exists Value.is_null (Row.to_list row))
          r false
      in
      (* π̄ drop. Under the Exact goal, drop whatever the target does not
         want. Under the Superset goal dropping is never needed to satisfy
         containment, but it is needed to unblock merges (Example 2 drops
         Route and Cost before µ), so it is proposed exactly when the
         relation has null cells. *)
      if config.enable_drop then begin
        let propose_drops wanted =
          List.iter
            (fun a ->
              if not (Strings.mem a wanted) then emit (Fira.Op.Drop { rel; col = a }))
            atts
        in
        match config.goal with
        | Goal.Exact ->
            let wanted =
              match Database.find_opt target.db rel with
              | Some target_rel ->
                  Strings.of_list (Relation.attributes target_rel)
              | None -> target.atts
            in
            propose_drops wanted
        | Goal.Superset | Goal.Schema -> if has_nulls then propose_drops target.atts
      end;
      (* µ merge: only useful with null cells and duplicated keys. *)
      if config.enable_merge && has_nulls then
        List.iter
          (fun a ->
            let distinct = List.length (Relation.column_distinct r a) in
            if Relation.cardinality r > distinct then
              emit (Fira.Op.Merge { rel; col = a }))
          atts;
      (* λ apply. The application must be able to help: either the output
         attribute is one the target wants, or the function's illustrated
         output values occur among the target's data values (the output
         column may be intermediate — e.g. promoted away afterwards). *)
      if config.enable_apply then
        List.iter
          (fun f ->
            let fname = Fira.Semfun.name f in
            let output_helps output =
              Strings.mem output target.atts
              || List.exists
                   (fun (_, out) ->
                     Strings.mem (Value.to_string out) target.values)
                   (Fira.Semfun.examples f)
            in
            match Fira.Semfun.signature f with
            | Some (inputs, output) ->
                if
                  (not (Strings.mem output atts_set))
                  && output_helps output
                  && List.for_all (fun a -> Strings.mem a atts_set) inputs
                then
                  emit (Fira.Op.Apply { rel; func = fname; inputs; output })
            | None ->
                let outs =
                  Strings.elements (Strings.diff target.atts atts_set)
                in
                let input_tuples =
                  enumerate_inputs atts (Fira.Semfun.arity f)
                    config.max_lambda_inputs
                in
                List.iter
                  (fun output ->
                    List.iter
                      (fun inputs ->
                        emit (Fira.Op.Apply { rel; func = fname; inputs; output }))
                      input_tuples)
                  outs)
          (Fira.Semfun.to_list registry);
      ())
    relations;
  (* --- × product over relation pairs --- *)
  if config.enable_product then
    List.iter
      (fun (l, lr) ->
        List.iter
          (fun (rt, rr) ->
            if l < rt then begin
              let latts = Strings.of_list (Relation.attributes lr) in
              let ratts = Strings.of_list (Relation.attributes rr) in
              if Strings.is_empty (Strings.inter latts ratts) then begin
                let combined = Strings.union latts ratts in
                let fits_target =
                  List.exists
                    (fun (_, trel) ->
                      Strings.subset combined
                        (Strings.of_list (Relation.attributes trel)))
                    (Database.relations target.db)
                in
                if fits_target then begin
                  let out =
                    (* Prefer naming the product directly after a target
                       relation whose schema can absorb it. *)
                    let candidate =
                      List.find_opt
                        (fun (tname, trel) ->
                          (not (Strings.mem tname db_rels))
                          && Strings.subset combined
                               (Strings.of_list (Relation.attributes trel)))
                        (Database.relations target.db)
                    in
                    match candidate with
                    | Some (tname, _) -> tname
                    | None -> fresh_name (l ^ "*" ^ rt) db_rels
                  in
                  emit (Fira.Op.Product { left = l; right = rt; out })
                end
              end
            end)
          relations)
      relations;
  List.rev !acc
  |> List.filter (fun op -> Fira.Eval.applicable registry op db)

(* ------------------------------------------------------------------ *)
(* [icandidates]: the same proposal rules over the interned form.

   Emission order mirrors [candidates] exactly — relations in sorted name
   order, attributes in schema order, target names in string-sorted order
   (the [*_sorted] arrays) — so the two functions return the SAME operator
   list on corresponding databases (property-tested). Every boxed string
   set becomes an id array; every [Strings.mem] becomes a binary search or
   a linear scan over a tiny array; every [Strings.inter] emptiness test
   becomes a sorted-array merge walk over cached [Irel.dstrs]/[vstrs]. *)

let fresh_name_by mem base =
  if not (mem base) then base
  else
    let rec go i =
      let candidate = Printf.sprintf "%s_%d" base i in
      if mem candidate then go (i + 1) else candidate
    in
    go 1

let icandidates config registry target (idb : Idb.t) =
  let str = Intern.string_of_id in
  let acc = ref [] in
  let emit op = acc := op :: !acc in
  let mem_db_rel s = Idb.mem idb (Intern.string_id s) in
  (* --- per-relation operators, relations in sorted name order --- *)
  Idb.iter
    (fun rel_id r ->
      let rel = str rel_id in
      let atts = Irel.atts r in
      let arity = Array.length atts in
      (* Target attributes missing from this relation, string-sorted. *)
      let missing_targets () =
        Array.of_list
          (List.filter
             (fun b -> not (Irel.mem_att r b))
             (Array.to_list target.tatts_sorted))
      in
      (* Attributes the target still wants in this relation (same-named
         target relation if present, else all target attributes). *)
      let wanted_mem =
        match Hashtbl.find_opt target.itrel_atts rel_id with
        | Some tr_atts -> fun a -> Array.exists (( = ) a) tr_atts
        | None -> fun a -> mem_sorted target.tatts_set a
      in
      (* ρ-att / ρ-rel *)
      if config.enable_rename then begin
        let missing = missing_targets () in
        let att_compatible j b =
          (not config.rename_value_check)
          ||
          let a_vals = Irel.dstrs r j in
          match Hashtbl.find_opt target.itatt_values b with
          | Some tv when Array.length tv > 0 ->
              Array.length a_vals = 0 || intersects a_vals tv
          | _ -> true (* no data illustrated: cannot rule the rename out *)
        in
        if Array.length missing > 0 then
          Array.iteri
            (fun j a ->
              if not (wanted_mem a) then
                Array.iter
                  (fun b ->
                    if att_compatible j b then
                      emit
                        (Fira.Op.RenameAtt
                           { rel; old_name = str a; new_name = str b }))
                  missing)
            atts;
        let rel_compatible n =
          (not config.rename_value_check)
          ||
          let r_vals = Irel.vstrs r in
          match Hashtbl.find_opt target.itrel_values n with
          | Some tv when Array.length tv > 0 ->
              Array.length r_vals = 0 || intersects r_vals tv
          | _ -> true
        in
        if not (mem_sorted target.trels_set rel_id) then
          Array.iter
            (fun n ->
              if (not (Idb.mem idb n)) && rel_compatible n then
                emit (Fira.Op.RenameRel { old_name = rel; new_name = str n }))
            (Array.of_list
               (List.filter
                  (fun n -> not (Idb.mem idb n))
                  (Array.to_list target.trels_sorted)))
      end;
      (* ↑ promote *)
      if config.enable_promote then
        Array.iteri
          (fun j a ->
            let vals = Irel.dstrs r j in
            let creates_target_att =
              Array.exists
                (fun v ->
                  mem_sorted target.tatts_set v && not (Irel.mem_att r v))
                vals
            in
            if creates_target_att then
              Array.iteri
                (fun jb b ->
                  let value_overlap =
                    Array.exists
                      (fun v -> mem_sorted target.tvalues_set v)
                      (Irel.dstrs r jb)
                  in
                  if value_overlap then
                    emit
                      (Fira.Op.Promote
                         { rel; name_col = str a; value_col = str b }))
                atts)
          atts;
      (* ↓ demote *)
      if config.enable_demote then begin
        let metadata_wanted =
          mem_sorted target.tvalues_set rel_id
          || Array.exists (fun a -> mem_sorted target.tvalues_set a) atts
        in
        let already_demoted =
          let rec go j =
            j < arity
            && (Array.exists (fun v -> Irel.mem_att r v) (Irel.dstrs r j)
               || go (j + 1))
          in
          go 0
        in
        if metadata_wanted && not already_demoted then begin
          let taken s =
            let id = Intern.string_id s in
            Array.exists (( = ) id) atts || mem_sorted target.tatts_set id
          in
          let att_att = fresh_name_by taken "ATT" in
          let rel_att =
            fresh_name_by (fun s -> taken s || String.equal s att_att) "REL"
          in
          emit (Fira.Op.Demote { rel; att_att; rel_att })
        end;
        match Hashtbl.find_opt target.itrel_atts rel_id with
        | Some tr_atts -> (
            match
              List.filter
                (fun a -> not (Irel.mem_att r a))
                (Array.to_list tr_atts)
            with
            | [ att_att; rel_att ] ->
                emit
                  (Fira.Op.Demote
                     { rel; att_att = str att_att; rel_att = str rel_att })
            | _ -> ())
        | None -> ()
      end;
      (* → dereference *)
      if config.enable_dereference then begin
        let missing = missing_targets () in
        if Array.length missing > 0 then
          Array.iteri
            (fun j a ->
              let points_at_columns =
                Array.exists (fun v -> Irel.mem_att r v) (Irel.dstrs r j)
              in
              if points_at_columns then
                Array.iter
                  (fun b ->
                    emit
                      (Fira.Op.Dereference
                         { rel; target = str b; pointer_col = str a }))
                  missing)
            atts
      end;
      (* ℘ partition *)
      if config.enable_partition then
        Array.iteri
          (fun j a ->
            let creates_target_rel =
              Array.exists
                (fun v -> mem_sorted target.trels_set v)
                (Irel.dstrs r j)
            in
            if creates_target_rel then
              emit (Fira.Op.Partition { rel; col = str a }))
          atts;
      let has_nulls = Irel.has_nulls r in
      (* π̄ drop *)
      if config.enable_drop then begin
        let propose_drops wanted =
          Array.iter
            (fun a ->
              if not (wanted a) then emit (Fira.Op.Drop { rel; col = str a }))
            atts
        in
        match config.goal with
        | Goal.Exact -> propose_drops wanted_mem
        | Goal.Superset | Goal.Schema ->
            if has_nulls then
              propose_drops (fun a -> mem_sorted target.tatts_set a)
      end;
      (* µ merge *)
      if config.enable_merge && has_nulls then
        Array.iteri
          (fun j a ->
            if Irel.cardinality r > Irel.dcount r j then
              emit (Fira.Op.Merge { rel; col = str a }))
          atts;
      (* λ apply *)
      if config.enable_apply then
        List.iter
          (fun f ->
            let fname = Fira.Semfun.name f in
            let output_helps oid =
              mem_sorted target.tatts_set oid || target.lambda_help f
            in
            match Fira.Semfun.signature f with
            | Some (inputs, output) ->
                let oid = Intern.string_id output in
                if
                  (not (Irel.mem_att r oid))
                  && output_helps oid
                  && List.for_all
                       (fun a -> Irel.mem_att r (Intern.string_id a))
                       inputs
                then
                  emit (Fira.Op.Apply { rel; func = fname; inputs; output })
            | None ->
                let outs =
                  List.filter
                    (fun b -> not (Irel.mem_att r b))
                    (Array.to_list target.tatts_sorted)
                in
                let input_tuples =
                  enumerate_inputs (Array.to_list atts) (Fira.Semfun.arity f)
                    config.max_lambda_inputs
                in
                List.iter
                  (fun output ->
                    List.iter
                      (fun inputs ->
                        emit
                          (Fira.Op.Apply
                             {
                               rel;
                               func = fname;
                               inputs = List.map str inputs;
                               output = str output;
                             }))
                      input_tuples)
                  outs)
          (Fira.Semfun.to_list registry);
      ())
    idb;
  (* --- × product over relation pairs --- *)
  if config.enable_product then begin
    let names = Array.of_list (Idb.names idb) in
    let n = Array.length names in
    for il = 0 to n - 1 do
      for ir = 0 to n - 1 do
        (* Name order in the entry array is string order, so [il < ir]
           is exactly the boxed [l < rt] string comparison. *)
        if il < ir then begin
          let l_id = names.(il) and rt_id = names.(ir) in
          let latts = Irel.atts (Idb.find idb l_id) in
          let ratts = Irel.atts (Idb.find idb rt_id) in
          let disjoint =
            not
              (Array.exists (fun a -> Array.exists (( = ) a) ratts) latts)
          in
          if disjoint then begin
            let absorbed tr_atts =
              Array.for_all (fun a -> Array.exists (( = ) a) tr_atts) latts
              && Array.for_all (fun a -> Array.exists (( = ) a) tr_atts) ratts
            in
            let fits_target =
              Array.exists (fun (_, tr_atts) -> absorbed tr_atts) target.itrels
            in
            if fits_target then begin
              let out =
                let candidate =
                  Array.fold_left
                    (fun found (tname, tr_atts) ->
                      match found with
                      | Some _ -> found
                      | None ->
                          if (not (Idb.mem idb tname)) && absorbed tr_atts
                          then Some tname
                          else None)
                    None target.itrels
                in
                match candidate with
                | Some tname -> str tname
                | None ->
                    fresh_name_by mem_db_rel (str l_id ^ "*" ^ str rt_id)
              in
              emit (Fira.Op.Product { left = str l_id; right = str rt_id; out })
            end
          end
        end
      done
    done
  end;
  List.rev !acc
  |> List.filter (fun op -> Fira.Eval.iapplicable registry op idb)

module Fp_tbl = Hashtbl.Make (Fingerprint)

let successors ?(telemetry = Telemetry.disabled) config registry target state =
  let idb = State.idb state in
  let ops =
    Telemetry.timed telemetry "moves.propose" (fun () ->
        icandidates config registry target idb)
  in
  (* Dedup on the 16-byte fingerprint — but never discard on the
     fingerprint alone: a fingerprint hit is confirmed by a canonical
     content comparison over the interned form, so an (astronomically
     unlikely, but once latent) collision between genuinely distinct
     successors keeps both instead of silently dropping one. Confirmed
     collisions are counted on [fingerprint.collision]. *)
  let seen : State.t Fp_tbl.t = Fp_tbl.create 32 in
  let built = ref 0 in
  let result =
    Telemetry.timed telemetry "moves.apply" @@ fun () ->
    List.filter_map
      (fun op ->
        match
          Fira.Eval.apply_interned_delta ~semantics:`Syntactic registry op idb
        with
        | exception Fira.Eval.Error _ -> None
        | idb', delta ->
            (* The successor's size follows from the parent's count and the
               delta — prune oversized states before building them. *)
            if
              State.total_cells state + Fira.Eval.idelta_cells delta
              > config.max_state_cells
            then None
            else begin
              let s' = State.of_isuccessor state delta idb' in
              incr built;
              if config.paranoid_fingerprints then begin
                (* Cross-check the whole interned path against the boxed
                   one: same resulting database (canonical keys) and same
                   incrementally-maintained fingerprint. *)
                Telemetry.count telemetry "fingerprint.verify" 1;
                let db = State.database state in
                match Fira.Eval.apply_syntactic_delta registry op db with
                | exception Fira.Eval.Error _ ->
                    Telemetry.count telemetry "fingerprint.verify.mismatch" 1
                | db', _ ->
                    if
                      (not
                         (String.equal
                            (Database.canonical_key db')
                            (State.key s')))
                      || not
                           (Fingerprint.equal
                              (Fingerprint.of_database db')
                              (State.fingerprint s'))
                    then
                      Telemetry.count telemetry "fingerprint.verify.mismatch" 1
              end;
              let fp = State.fingerprint s' in
              match Fp_tbl.find_opt seen fp with
              | None ->
                  Fp_tbl.add seen fp s';
                  Some (op, s')
              | Some _ ->
                  let twins = Fp_tbl.find_all seen fp in
                  if List.exists (fun s0 -> State.same_content s0 s') twins
                  then None (* true duplicate *)
                  else begin
                    Telemetry.count telemetry "fingerprint.collision" 1;
                    Fp_tbl.add seen fp s';
                    Some (op, s')
                  end
            end)
      ops
  in
  if !built > 0 then Telemetry.count telemetry "fingerprint.incremental" !built;
  result
