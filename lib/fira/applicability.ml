module type SCHEMA_VIEW = sig
  type db
  type rel
  type name

  val name : string -> name
  val string_of_name : name -> string
  val find_opt : db -> name -> rel option
  val mem : db -> name -> bool
  val mem_att : rel -> name -> bool
  val arity : rel -> int
  val atts : rel -> name array
  val group_names : rel -> name -> name list
end

module Make (V : SCHEMA_VIEW) = struct
  (* Direct style with an exception for the first failed precondition:
     the applicable path allocates no closures. *)
  exception Inapplicable of string

  let fail fmt = Printf.ksprintf (fun reason -> raise (Inapplicable reason)) fmt

  let find db name =
    match V.find_opt db (V.name name) with
    | Some r -> r
    | None -> fail "no relation %S" name

  let has_col r name =
    if not (V.mem_att r (V.name name)) then fail "no column %S" name

  let no_col r name =
    if V.mem_att r (V.name name) then fail "column %S already present" name

  let absent db name =
    if V.mem db (V.name name) then fail "relation %S already exists" name

  let check registry op db =
    match op with
    | Op.Promote { rel; name_col; value_col } ->
        let r = find db rel in
        has_col r name_col;
        has_col r value_col
    | Op.Demote { rel; att_att; rel_att } ->
        let r = find db rel in
        if att_att = rel_att then fail "demote columns must differ";
        no_col r att_att;
        no_col r rel_att
    | Op.Dereference { rel; target; pointer_col } ->
        let r = find db rel in
        has_col r pointer_col;
        no_col r target
    | Op.Partition { rel; col } ->
        let r = find db rel in
        has_col r col;
        let groups = V.group_names r (V.name col) in
        (* Every group name must be usable and must not clash with a
           surviving relation. *)
        List.iter
          (fun group ->
            let name = V.string_of_name group in
            if name = "" then fail "empty group name";
            if V.mem db group && name <> rel then
              fail "relation %S already exists" name)
          groups;
        (* Each group needs a name of its own: two distinct values that
           print alike (Int 1 and String "1") would name one relation,
           and one group would be lost. *)
        let rec distinct = function
          | a :: (b :: _ as rest) ->
              if a = b then fail "duplicate group name %S" (V.string_of_name a);
              distinct rest
          | _ -> ()
        in
        distinct (List.sort compare groups)
    | Op.Product { left; right; out } ->
        let l = find db left in
        let r = find db right in
        absent db out;
        if Array.exists (V.mem_att r) (V.atts l) then
          fail "product operands share attributes"
    | Op.Drop { rel; col } ->
        let r = find db rel in
        has_col r col;
        if V.arity r <= 1 then fail "cannot drop the last column"
    | Op.Merge { rel; col } -> has_col (find db rel) col
    | Op.RenameAtt { rel; old_name; new_name } ->
        let r = find db rel in
        has_col r old_name;
        if old_name = new_name then fail "rename to same name";
        no_col r new_name
    | Op.RenameRel { old_name; new_name } ->
        ignore (find db old_name);
        if old_name = new_name then fail "rename to same name";
        absent db new_name
    | Op.Union { left; right; out } | Op.Diff { left; right; out } ->
        let l = find db left in
        let r = find db right in
        (* Schemas hold no duplicate names, so equal arity plus inclusion
           is set equality. *)
        if
          V.arity l <> V.arity r
          || not (Array.for_all (V.mem_att r) (V.atts l))
        then fail "operand schemas differ";
        (* ∪ − may overwrite an operand, but no other relation. *)
        if out <> left && out <> right then absent db out
    | Op.Join { left; right; out } ->
        ignore (find db left);
        ignore (find db right);
        if out <> left && out <> right then absent db out
    | Op.Select { rel; pred = _ } -> ignore (find db rel)
    | Op.Apply { rel; func; inputs; output } -> (
        let r = find db rel in
        match Semfun.find registry func with
        | None -> fail "unknown function %S" func
        | Some f ->
            if Semfun.arity f <> List.length inputs then
              fail "function %S has arity %d, got %d inputs" func
                (Semfun.arity f) (List.length inputs);
            List.iter (has_col r) inputs;
            no_col r output)

  let explain_inapplicable registry op db =
    match check registry op db with
    | () -> None
    | exception Inapplicable reason -> Some reason
end
