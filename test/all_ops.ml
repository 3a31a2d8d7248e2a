(* Exhaustive operator enumeration over a name universe, for the oracle
   properties: every instance of each operator constructor whose name
   parameters range over the given relation and attribute names, with no
   applicability filter. *)

let ( let* ) l f = List.concat_map f l

(* All ordered [n]-tuples over [xs]. *)
let rec tuples xs n =
  if n = 0 then [ [] ]
  else
    let* x = xs in
    List.map (fun tl -> x :: tl) (tuples xs (n - 1))

(* The instances of Table 1 plus λ (the search language ℒ); × may store its
   result under [outs] (default [rels]). *)
let core ?outs ~registry ~rels ~atts () =
  let outs = Option.value outs ~default:rels in
  let pairs = tuples atts 2 in
  List.concat
    [
      (let* rel = rels in
       let* p = pairs in
       match p with
       | [ a; b ] ->
           [
             Fira.Op.Promote { rel; name_col = a; value_col = b };
             Fira.Op.Demote { rel; att_att = a; rel_att = b };
             Fira.Op.Dereference { rel; target = a; pointer_col = b };
             Fira.Op.RenameAtt { rel; old_name = a; new_name = b };
           ]
       | _ -> assert false);
      (let* rel = rels in
       let* col = atts in
       [
         Fira.Op.Partition { rel; col };
         Fira.Op.Drop { rel; col };
         Fira.Op.Merge { rel; col };
       ]);
      (let* old_name = rels in
       let* new_name = rels in
       [ Fira.Op.RenameRel { old_name; new_name } ]);
      (let* left = rels in
       let* right = rels in
       let* out = outs in
       [ Fira.Op.Product { left; right; out } ]);
      (let* rel = rels in
       let* f = Fira.Semfun.to_list registry in
       let* inputs = tuples atts (Fira.Semfun.arity f) in
       let* output = atts in
       [ Fira.Op.Apply { rel; func = Fira.Semfun.name f; inputs; output } ]);
    ]

(* [core] plus the full-FIRA extensions ∪ − ⋈ σ, and λ calls naming an
   unregistered function or passing one input too many. *)
let all ~registry ~rels ~atts =
  let extensions =
    let* rel = rels in
    let first = match atts with a :: _ -> a | [] -> "x" in
    Fira.Op.Select { rel; pred = Relational.Algebra.True }
    :: Fira.Op.Apply
         { rel; func = "no_such_function"; inputs = [ first ]; output = first }
    :: (let* f = Fira.Semfun.to_list registry in
        [
          Fira.Op.Apply
            {
              rel;
              func = Fira.Semfun.name f;
              inputs = List.init (Fira.Semfun.arity f + 1) (fun _ -> first);
              output = first;
            };
        ])
    @
    let* right = rels in
    let* out = rels in
    [
      Fira.Op.Union { left = rel; right; out };
      Fira.Op.Diff { left = rel; right; out };
      Fira.Op.Join { left = rel; right; out };
    ]
  in
  core ~registry ~rels ~atts () @ extensions
