open Relational

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
}

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

(* Target names and values as interned ids. Names appear twice:
   string-sorted (for a deterministic emission order) and id-sorted (for
   O(log n) membership). *)
type target_info = {
  idb : Idb.t;
  trels_sorted : int array;
  trels_set : int array;
  tatts_sorted : int array;
  tatts_set : int array;
  tvalues_set : int array;
  att_values : (int, int array) Hashtbl.t;
      (* att id → id-sorted value strings illustrated under it *)
  rel_values : (int, int array) Hashtbl.t;  (* rel id → id-sorted values *)
  rels : (int * int array) array;
      (* (name id, att ids in schema order), name-string-sorted *)
  rel_atts : (int, int array) Hashtbl.t;  (* rel id → att ids, schema order *)
  lambda_help : Fira.Semfun.t -> bool;
      (* does some illustrated output of the function occur among the
         target's values? Memoized per function (mutex-guarded — candidate
         generation runs on several domains under parallel expansion). *)
}

let target_info db =
  let idb = Idb.of_database db in
  let by_id arr =
    let arr = Array.copy arr in
    Array.sort Int.compare arr;
    arr
  in
  let ids strings =
    Array.of_list
      (List.map Intern.string_id (List.sort_uniq String.compare strings))
  in
  let trels_sorted = Array.of_list (Idb.names idb) in
  let tatts_sorted = ids (Database.all_attributes db) in
  (* As [Database.all_values] lists them: each distinct value once, null
     included — the set the proposal rules were tuned on. *)
  let tvalues_set =
    by_id (ids (List.map Value.to_string (Database.all_values db)))
  in
  let rels =
    Array.of_list
      (List.map (fun name -> (name, Irel.atts (Idb.find idb name))) (Idb.names idb))
  in
  let rel_atts = Hashtbl.create 16 in
  let rel_values = Hashtbl.create 16 in
  let att_values = Hashtbl.create 16 in
  Idb.iter
    (fun name r ->
      Hashtbl.replace rel_atts name (Irel.atts r);
      Hashtbl.replace rel_values name (Irel.vstrs r);
      Array.iteri
        (fun j att ->
          let seen =
            Option.value ~default:[||] (Hashtbl.find_opt att_values att)
          in
          Hashtbl.replace att_values att
            (Array.of_list
               (List.sort_uniq Int.compare
                  (Array.to_list (Array.append seen (Irel.dstrs r j))))))
        (Irel.atts r))
    idb;
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
    idb;
    trels_sorted;
    trels_set = by_id trels_sorted;
    tatts_sorted;
    tatts_set = by_id tatts_sorted;
    tvalues_set;
    att_values;
    rel_values;
    rels;
    rel_atts;
    lambda_help;
  }

let target_idb t = t.idb

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

let fresh_name taken base =
  if not (taken base) then base
  else
    let rec go i =
      let candidate = Printf.sprintf "%s_%d" base i in
      if taken candidate then go (i + 1) else candidate
    in
    go 1

(* Proposal over the interned form: relations in name order, attributes
   in schema order, target names in string order. Membership and
   value-overlap tests are binary searches and merge walks over id-sorted
   arrays (the cached [Irel.dstrs]/[vstrs] and the target's sets). *)
let candidates config registry target (idb : Idb.t) =
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
        match Hashtbl.find_opt target.rel_atts rel_id with
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
          match Hashtbl.find_opt target.att_values b with
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
          match Hashtbl.find_opt target.rel_values n with
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
        let already_demoted () =
          let rec go j =
            j < arity
            && (Array.exists (fun v -> Irel.mem_att r v) (Irel.dstrs r j)
               || go (j + 1))
          in
          go 0
        in
        if metadata_wanted && not (already_demoted ()) then begin
          let taken s =
            let id = Intern.string_id s in
            Array.exists (( = ) id) atts || mem_sorted target.tatts_set id
          in
          let att_att = fresh_name taken "ATT" in
          let rel_att =
            fresh_name (fun s -> taken s || String.equal s att_att) "REL"
          in
          emit (Fira.Op.Demote { rel; att_att; rel_att })
        end;
        match Hashtbl.find_opt target.rel_atts rel_id with
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
           takes each pair once, left name first. *)
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
              Array.exists (fun (_, tr_atts) -> absorbed tr_atts) target.rels
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
                    None target.rels
                in
                match candidate with
                | Some tname -> str tname
                | None ->
                    fresh_name mem_db_rel (str l_id ^ "*" ^ str rt_id)
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
        candidates config registry target idb)
  in
  (* A candidate that changes nothing yields the parent itself ([None]),
     under the same cell bound and dedup as a built child (a parent over
     the bound prunes it). A built child is its delta ([Some]). *)
  let built = ref 0 and self = ref 0 in
  let self_child op =
    if State.total_cells state > config.max_state_cells then None
    else begin
      incr self;
      Some (op, None)
    end
  in
  let applied =
    Telemetry.timed telemetry "moves.apply" @@ fun () ->
    List.filter_map
      (fun op ->
        match op with
        | Fira.Op.Merge { rel; _ }
          when Irel.mu_identity (Idb.find idb (Intern.string_id rel)) ->
            (* certified: µ returns its input on every column *)
            self_child op
        | _ -> (
            (* [candidates] admitted [op] on this [idb]: skip the
               re-check. *)
            let idb', delta =
              Fira.Eval.apply_interned_unchecked ~semantics:`Syntactic
                registry op idb
            in
            match delta with
            | { Fira.Eval.iremoved = [ (n, r) ]; iadded = [ (n', r') ] }
              when n = n' && r == r' ->
                self_child op
            | _ ->
                (* The successor's size follows from the parent's count and
                   the delta — prune oversized states before building
                   them. *)
                if
                  State.total_cells state + Fira.Eval.idelta_cells delta
                  > config.max_state_cells
                then None
                else begin
                  incr built;
                  Some (op, Some (delta, idb'))
                end))
      ops
  in
  (* A built child's fingerprint is the parent's, updated by the delta's
     relation terms. *)
  let children =
    Telemetry.timed telemetry "state.fingerprint" @@ fun () ->
    List.map
      (function
        | op, None -> (op, state)
        | op, Some (delta, idb') -> (op, State.of_isuccessor state delta idb'))
      applied
  in
  (* Dedup on the 16-byte fingerprint — but never discard on the
     fingerprint alone: a fingerprint hit is confirmed by a canonical
     content comparison over the interned form, so an (astronomically
     unlikely, but once latent) collision between genuinely distinct
     successors keeps both instead of silently dropping one. Confirmed
     collisions are counted on [fingerprint.collision]. *)
  let seen : State.t Fp_tbl.t = Fp_tbl.create 32 in
  let result =
    Telemetry.timed telemetry "moves.dedup" @@ fun () ->
    List.filter
      (fun (_, s') ->
        let fp = State.fingerprint s' in
        let twins = Fp_tbl.find_all seen fp in
        (* a twin with the same content is a true duplicate *)
        (not (List.exists (fun s0 -> State.same_content s0 s') twins))
        && begin
             if twins <> [] then
               Telemetry.count telemetry "fingerprint.collision" 1;
             Fp_tbl.add seen fp s';
             true
           end)
      children
  in
  if !built > 0 then Telemetry.count telemetry "fingerprint.incremental" !built;
  if !self > 0 then Telemetry.count telemetry "successors.self" !self;
  result
