(* Successor generation as it was before self-loop children were
   recognized, kept as a test oracle: every candidate is applied, every
   child state is built from its parent and its delta, and children are
   deduplicated by fingerprint, confirmed by content. *)

module Fp_tbl = Hashtbl.Make (Relational.Fingerprint)

let successors config registry target state =
  let idb = Tupelo.State.idb state in
  let seen = Fp_tbl.create 32 in
  List.filter_map
    (fun op ->
      let idb', delta =
        Fira.Eval.apply_interned_unchecked ~semantics:`Syntactic registry op
          idb
      in
      if
        Tupelo.State.total_cells state + Fira.Eval.idelta_cells delta
        > config.Tupelo.Moves.max_state_cells
      then None
      else
        let s' = Tupelo.State.of_isuccessor state delta idb' in
        let fp = Tupelo.State.fingerprint s' in
        if
          List.exists
            (fun s0 -> Tupelo.State.same_content s0 s')
            (Fp_tbl.find_all seen fp)
        then None
        else begin
          Fp_tbl.add seen fp s';
          Some (op, s')
        end)
    (Tupelo.Moves.candidates config registry target idb)
