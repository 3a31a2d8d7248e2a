open Relational
module Algebra = Relational.Algebra

exception Error of string

let error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

module Boxed_check = Applicability.Make (struct
  type db = Database.t
  type rel = Relation.t
  type name = string

  let name s = s
  let string_of_name s = s
  let find_opt = Database.find_opt
  let mem = Database.mem
  let mem_att r a = Schema.mem (Relation.schema r) a
  let arity r = Schema.arity (Relation.schema r)
  let atts r = Array.of_list (Relation.attributes r)

  let group_names r col =
    List.map (fun (v, _) -> Value.to_string v) (Relation.partition r col)
end)

let explain_inapplicable = Boxed_check.explain_inapplicable

let applicable registry op db = explain_inapplicable registry op db = None

type delta = {
  removed : (string * Relation.t) list;
  added : (string * Relation.t) list;
}

let apply_with_delta ~semantics registry op db =
  (match explain_inapplicable registry op db with
  | Some reason -> error "fira: %s inapplicable: %s" (Op.to_string op) reason
  | None -> ());
  (* Replace relation [name] with [r'], recording the displaced version (if
     any) in [removed] so delta consumers see relation-granular changes. *)
  let replace name r' =
    let removed =
      match Database.find_opt db name with
      | Some old -> [ (name, old) ]
      | None -> []
    in
    (Database.add db name r', { removed; added = [ (name, r') ] })
  in
  match op with
  | Op.Promote { rel; name_col; value_col } ->
      replace rel (Relation.promote (Database.find db rel) ~name_col ~value_col)
  | Op.Demote { rel; att_att; rel_att } ->
      replace rel
        (Relation.demote (Database.find db rel) ~rel_name:rel ~att_att ~rel_att)
  | Op.Dereference { rel; target; pointer_col } ->
      replace rel
        (Relation.dereference (Database.find db rel) ~target ~pointer_col)
  | Op.Partition { rel; col } ->
      let r = Database.find db rel in
      let groups = Relation.partition r col in
      let named =
        List.map (fun (v, group) -> (Value.to_string v, group)) groups
      in
      let db = Database.remove db rel in
      let db =
        List.fold_left
          (fun db (name, group) -> Database.add db name group)
          db named
      in
      (db, { removed = [ (rel, r) ]; added = named })
  | Op.Product { left; right; out } ->
      replace out
        (Relation.product (Database.find db left) (Database.find db right))
  | Op.Drop { rel; col } ->
      replace rel (Relation.project_away (Database.find db rel) col)
  | Op.Merge { rel; col } ->
      replace rel (Relation.merge (Database.find db rel) col)
  | Op.RenameAtt { rel; old_name; new_name } ->
      replace rel
        (Relation.rename_att (Database.find db rel) ~old_name ~new_name)
  | Op.RenameRel { old_name; new_name } ->
      let r = Database.find db old_name in
      ( Database.rename_rel db ~old_name ~new_name,
        { removed = [ (old_name, r) ]; added = [ (new_name, r) ] } )
  | Op.Union { left; right; out } ->
      replace out
        (Relation.union (Database.find db left) (Database.find db right))
  | Op.Diff { left; right; out } ->
      replace out
        (Relation.diff (Database.find db left) (Database.find db right))
  | Op.Join { left; right; out } ->
      replace out
        (Algebra.natural_join (Database.find db left) (Database.find db right))
  | Op.Select { rel; pred } ->
      replace rel
        (Relation.select (Database.find db rel) (Algebra.eval_pred pred))
  | Op.Apply { rel; func; inputs; output } ->
      let f = Semfun.find_exn registry func in
      let eval_one ins =
        match semantics with
        | `Full -> Semfun.apply f ins
        | `Syntactic -> (
            match Semfun.apply_example f ins with
            | Some v -> v
            | None -> Value.Null)
      in
      replace rel
        (Relation.extend (Database.find db rel) output (fun schema row ->
             eval_one (List.map (fun a -> Row.get schema row a) inputs)))

(* ------------------------------------------------------------------ *)
(* Interned evaluation (the successor-generation hot path)             *)

type idelta = {
  iremoved : (int * Irel.t) list;
  iadded : (int * Irel.t) list;
}

let idelta_cells d =
  let sum rs = List.fold_left (fun n (_, r) -> n + Irel.cells r) 0 rs in
  sum d.iadded - sum d.iremoved

module Interned_check = Applicability.Make (struct
  type db = Idb.t
  type rel = Irel.t
  type name = int

  let name = Intern.string_id
  let string_of_name = Intern.string_of_id
  let find_opt = Idb.find_opt
  let mem = Idb.mem
  let mem_att = Irel.mem_att
  let arity = Irel.arity
  let atts = Irel.atts

  let group_names r col =
    List.map Intern.value_str_id (Irel.partition_keys r col)
end)

let iexplain_inapplicable = Interned_check.explain_inapplicable

let iapplicable registry op idb = iexplain_inapplicable registry op idb = None

let apply_interned_unchecked ~semantics registry op idb =
  let id = Intern.string_id in
  let replace name r' =
    let name = id name in
    let iremoved =
      match Idb.find_opt idb name with
      | Some old -> [ (name, old) ]
      | None -> []
    in
    (Idb.add idb name r', { iremoved; iadded = [ (name, r') ] })
  in
  let find name = Idb.find idb (id name) in
  let binary f left right out = replace out (f (find left) (find right)) in
  match op with
  | Op.Promote { rel; name_col; value_col } ->
      replace rel
        (Irel.promote (Idb.find idb (id rel)) ~name_col:(id name_col)
           ~value_col:(id value_col))
  | Op.Demote { rel; att_att; rel_att } ->
      replace rel
        (Irel.demote (Idb.find idb (id rel)) ~rel_name:(id rel)
           ~att_att:(id att_att) ~rel_att:(id rel_att))
  | Op.Dereference { rel; target; pointer_col } ->
      replace rel
        (Irel.dereference (Idb.find idb (id rel)) ~target:(id target)
           ~pointer_col:(id pointer_col))
  | Op.Partition { rel; col } ->
      let rel = id rel in
      let r = Idb.find idb rel in
      let groups = Irel.partition r (id col) in
      let named =
        List.map (fun (v, group) -> (Intern.value_str_id v, group)) groups
      in
      let idb = Idb.remove idb rel in
      let idb =
        List.fold_left
          (fun idb (name, group) -> Idb.add idb name group)
          idb named
      in
      (idb, { iremoved = [ (rel, r) ]; iadded = named })
  | Op.Product { left; right; out } ->
      replace out
        (Irel.product (Idb.find idb (id left)) (Idb.find idb (id right)))
  | Op.Drop { rel; col } ->
      replace rel (Irel.project_away (Idb.find idb (id rel)) (id col))
  | Op.Merge { rel; col } ->
      replace rel (Irel.merge (Idb.find idb (id rel)) (id col))
  | Op.RenameAtt { rel; old_name; new_name } ->
      replace rel
        (Irel.rename_att (Idb.find idb (id rel)) ~old_name:(id old_name)
           ~new_name:(id new_name))
  | Op.RenameRel { old_name; new_name } ->
      let old_name = id old_name and new_name = id new_name in
      let r = Idb.find idb old_name in
      ( Idb.rename_rel idb ~old_name ~new_name,
        { iremoved = [ (old_name, r) ]; iadded = [ (new_name, r) ] } )
  | Op.Apply { rel; func; inputs; output } ->
      let f = Semfun.find_exn registry func in
      let r = Idb.find idb (id rel) in
      let input_idxs =
        List.map (fun a -> Irel.index_of_opt r (id a) |> Option.get) inputs
      in
      let eval_one ins =
        match semantics with
        | `Full -> Semfun.apply f ins
        | `Syntactic -> (
            match Semfun.apply_example f ins with
            | Some v -> v
            | None -> Value.Null)
      in
      replace rel
        (Irel.extend r (id output) (fun row ->
             Intern.value_id
               (eval_one
                  (List.map
                     (fun i -> Intern.value_of_id row.(i))
                     input_idxs))))
  | Op.Union { left; right; out } -> binary Irel.union left right out
  | Op.Diff { left; right; out } -> binary Irel.diff left right out
  | Op.Join { left; right; out } -> binary Irel.join left right out
  | Op.Select { rel; pred } -> replace rel (Irel.select (find rel) pred)

let apply_interned_delta ~semantics registry op idb =
  (match iexplain_inapplicable registry op idb with
  | Some reason -> error "fira: %s inapplicable: %s" (Op.to_string op) reason
  | None -> ());
  apply_interned_unchecked ~semantics registry op idb

let apply_with ~semantics registry op db =
  fst (apply_with_delta ~semantics registry op db)

let apply registry op db = apply_with ~semantics:`Full registry op db

let apply_syntactic registry op db =
  apply_with ~semantics:`Syntactic registry op db

let apply_syntactic_delta registry op db =
  apply_with_delta ~semantics:`Syntactic registry op db
