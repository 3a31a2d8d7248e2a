(* Interned columnar relations: the search hot path's view of a relation.

   Storage is one int array of value ids per column plus the attribute
   name ids, with per-column caches for the derived quantities successor
   generation keeps asking for: fingerprint element lanes, distinct value
   strings, distinct value counts. Relations are immutable; ℒ operators
   build fresh ones, sharing column records whenever the cell content of a
   column survives unchanged (rename_att, project_away's fast path), which
   is what lets the caches amortize across thousands of sibling states.

   Bit-identity contract: every operator here mirrors the corresponding
   Relation.* implementation step for step — same row production order,
   same List.sort_uniq canonicalization (under Intern.compare_values, which
   IS Value.compare), same first-seen scans — so converting the result with
   [to_relation] yields exactly the boxed operator's output, including
   which representative survives when distinct values compare equal
   (Int 1 vs Float 1.0). Property-tested in test/test_props.ml.

   The mutable cache fields follow the repo's benign-race convention
   (see lib/tupelo/state.ml): concurrent domains at worst recompute the
   same immutable value and both publish it. *)

type col = {
  att : int;  (* attribute name string id *)
  ids : int array;  (* value ids, one per row *)
  mutable lanes : (int64 array * int64 array) option;
      (* fingerprint cell lanes (a, b) per row, for THIS att *)
  mutable dstrs : int array option;
      (* distinct non-null value-string ids, sorted by id *)
  mutable dcount : int;  (* |column_distinct| (nulls included); -1 unknown *)
}

type t = {
  atts : int array;  (* attribute name ids, = col order *)
  cols : col array;
  nrows : int;
  mutable fp : (int * Fingerprint.t) option;  (* keyed by relation-name id *)
  mutable vstrs : int array option;
      (* distinct non-null value strings across all columns, sorted by id *)
  mutable nulls : int;  (* has null cells: -1 unknown / 0 / 1 *)
  mutable proj : (int array * int array array) option;
      (* containment cache: projection onto the given atts, rows sorted *)
  mutable mu_id : int;  (* µ is the identity on every column: -1 unknown / 0 / 1 *)
}

let null_id = Intern.null_value_id
let fresh_col att ids = { att; ids; lanes = None; dstrs = None; dcount = -1 }

(* A relation with every relation-level cache empty. *)
let fresh atts cols nrows =
  { atts; cols; nrows; fp = None; vstrs = None; nulls = -1; proj = None;
    mu_id = -1 }

let make atts rows =
  (* [rows] already canonical (sorted, deduplicated), one int array per
     row in relation row order. *)
  let nrows = List.length rows in
  let arity = Array.length atts in
  let cols =
    Array.map (fun att -> fresh_col att (Array.make nrows 0)) atts
  in
  List.iteri
    (fun i row ->
      for j = 0 to arity - 1 do
        (Array.unsafe_get cols j).ids.(i) <- row.(j)
      done)
    rows;
  fresh atts cols nrows

let arity t = Array.length t.atts
let cardinality t = t.nrows
let cells t = t.nrows * Array.length t.atts
let atts t = t.atts
let col_ids t j = t.cols.(j).ids

let row_of t i =
  Array.init (Array.length t.cols) (fun j -> t.cols.(j).ids.(i))

let to_rows t = List.init t.nrows (row_of t)

(* Same-arity lexicographic row order under Value.compare — exactly
   Row.compare within one relation (arities always agree there). *)
let compare_rows a b =
  let n = Array.length a in
  let rec go i =
    if i >= n then 0
    else
      let c = Intern.compare_values a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let canonicalize rows = List.sort_uniq compare_rows rows
let of_rows atts rows = make atts (canonicalize rows)

let index_of_opt t att =
  let n = Array.length t.atts in
  let rec go j = if j >= n then None else if t.atts.(j) = att then Some j else go (j + 1) in
  go 0

let index_of t att =
  match index_of_opt t att with
  | Some j -> j
  | None ->
      invalid_arg
        (Printf.sprintf "Irel: no attribute %S" (Intern.string_of_id att))

let mem_att t att = index_of_opt t att <> None

(* ------------------------------------------------------------------ *)
(* Conversions                                                         *)

let of_relation r =
  let atts =
    Array.of_list (List.map Intern.string_id (Relation.attributes r))
  in
  let rows =
    List.map
      (fun row -> Array.map Intern.value_id (Array.of_list (Row.to_list row)))
      (Relation.rows r)
  in
  (* Boxed rows are already canonical; keep their order bit for bit. *)
  make atts rows

let to_relation t =
  let schema =
    Schema.of_list (Array.to_list (Array.map Intern.string_of_id t.atts))
  in
  let rows =
    List.map
      (fun row ->
        Row.of_list (Array.to_list (Array.map Intern.value_of_id row)))
      (to_rows t)
  in
  (* Rows are canonical (sorted, deduplicated) by construction, so
     of_rows' sort_uniq is an order-preserving no-op. *)
  Relation.of_rows schema rows

(* ------------------------------------------------------------------ *)
(* Cached per-column derived data                                      *)

let column_distinct t j =
  List.sort_uniq Intern.compare_values (Array.to_list t.cols.(j).ids)

let dcount t j =
  let c = t.cols.(j) in
  if c.dcount >= 0 then c.dcount
  else begin
    let n = List.length (column_distinct t j) in
    c.dcount <- n;
    n
  end

let dstrs t j =
  let c = t.cols.(j) in
  match c.dstrs with
  | Some d -> d
  | None ->
      let d =
        Array.to_list c.ids
        |> List.filter_map (fun id ->
               if id = null_id then None else Some (Intern.value_str_id id))
        |> List.sort_uniq Int.compare |> Array.of_list
      in
      c.dstrs <- Some d;
      d

let vstrs t =
  match t.vstrs with
  | Some v -> v
  | None ->
      let v =
        Array.to_list
          (Array.concat
             (List.init (Array.length t.cols) (fun j -> dstrs t j)))
        |> List.sort_uniq Int.compare |> Array.of_list
      in
      t.vstrs <- Some v;
      v

let has_nulls t =
  if t.nulls >= 0 then t.nulls = 1
  else begin
    let n =
      Array.exists (fun c -> Array.exists (fun id -> id = null_id) c.ids) t.cols
    in
    t.nulls <- (if n then 1 else 0);
    n
  end

(* ------------------------------------------------------------------ *)
(* Fingerprint (bit-identical with Fingerprint.of_relation)            *)

let col_lanes t j =
  let c = t.cols.(j) in
  match c.lanes with
  | Some l -> l
  | None ->
      let n = Array.length c.ids in
      let la = Array.make n 0L and lb = Array.make n 0L in
      for i = 0 to n - 1 do
        (* The first lane is memoized per (attribute, value) pair in the
           intern pool; the second is one mix away. *)
        let ea = Intern.cell_lane_a c.att (Array.unsafe_get c.ids i) in
        la.(i) <- ea;
        lb.(i) <-
          Fingerprint.Hashing.mix64
            (Int64.logxor ea Fingerprint.Hashing.lane_salt)
      done;
      c.lanes <- Some (la, lb);
      (la, lb)

let fingerprint ~name t =
  match t.fp with
  | Some (n, fp) when n = name -> fp
  | _ ->
      let ra, rb = Intern.string_lanes name in
      let mix = Fingerprint.Hashing.mix64 in
      let salt = Fingerprint.Hashing.schema_salt in
      let sa = ref 0L and sb = ref 0L in
      Array.iter
        (fun att ->
          let aa, ab = Intern.string_lanes att in
          sa := Int64.add !sa aa;
          sb := Int64.add !sb ab)
        t.atts;
      (* Accumulate the two lane sums as raw int64s — one [make] at the
         end instead of a record per row. Addition order is irrelevant to
         the result (lane sums are commutative), so this is bit-identical
         with the boxed [Fingerprint.of_relation]. *)
      let acc_a = ref (mix (Int64.add (Int64.add !sa ra) salt))
      and acc_b = ref (mix (Int64.add (Int64.add !sb rb) salt)) in
      let arity = Array.length t.cols in
      let lanes = Array.init arity (fun j -> col_lanes t j) in
      for i = 0 to t.nrows - 1 do
        let sa = ref 0L and sb = ref 0L in
        for j = 0 to arity - 1 do
          let la, lb = Array.unsafe_get lanes j in
          sa := Int64.add !sa (Array.unsafe_get la i);
          sb := Int64.add !sb (Array.unsafe_get lb i)
        done;
        acc_a := Int64.add !acc_a (mix (Int64.add !sa ra));
        acc_b := Int64.add !acc_b (mix (Int64.add !sb rb))
      done;
      let fp = Fingerprint.Hashing.make !acc_a !acc_b in
      t.fp <- Some (name, fp);
      fp

(* ------------------------------------------------------------------ *)
(* ℒ operators, each mirroring its Relation counterpart                *)

(* Relation.usable_column_name: None for Null and String "" (only a
   String can render as the empty string); otherwise the printed form. *)
let usable_name id =
  if id = null_id then None
  else
    let s = Intern.value_str_id id in
    if s = Intern.empty_string_id then None else Some s

let promote r ~name_col ~value_col =
  let ni = index_of r name_col and vi = index_of r value_col in
  let nids = r.cols.(ni).ids and vids = r.cols.(vi).ids in
  (* Dynamically created column names in first-seen (row) order, and
     whether any tuple promotes into an EXISTING column (overwriting a
     base cell, which can break row order). *)
  let base_hit = ref false in
  let rev_new = ref [] in
  Array.iter
    (fun id ->
      match usable_name id with
      | Some name ->
          if mem_att r name then base_hit := true
          else if not (List.mem name !rev_new) then rev_new := name :: !rev_new
      | None -> ())
    nids;
  let new_names = List.rev !rev_new in
  if !base_hit then begin
    (* Rare general case: per-row rebuild, re-canonicalized — exactly the
       boxed implementation. *)
    let atts' = Array.append r.atts (Array.of_list new_names) in
    let base_arity = Array.length r.atts in
    let arity' = Array.length atts' in
    let index_of' name =
      let rec go j = if atts'.(j) = name then j else go (j + 1) in
      go 0
    in
    let rows' =
      List.map
        (fun row ->
          let cells =
            Array.init arity' (fun j ->
                if j < base_arity then row.(j) else null_id)
          in
          (match usable_name row.(ni) with
          | Some name -> cells.(index_of' name) <- row.(vi)
          | None -> ());
          cells)
        (to_rows r)
    in
    of_rows atts' rows'
  end
  else if new_names = [] then
    (* No usable names at all: the result is the input (the boxed path
       rebuilds an identical relation); share it. *)
    r
  else begin
    (* Hot path: only fresh columns are written. The base prefix of every
       row is untouched and pairwise distinct, so the rows stay strictly
       increasing — no re-canonicalization, and the base column records
       (with their caches) are shared as-is. *)
    let extra = Array.of_list new_names in
    let ecols =
      Array.map (fun name -> fresh_col name (Array.make r.nrows null_id)) extra
    in
    for i = 0 to r.nrows - 1 do
      match usable_name (Array.unsafe_get nids i) with
      | Some name ->
          let rec slot j = if extra.(j) = name then j else slot (j + 1) in
          (ecols.(slot 0)).ids.(i) <- vids.(i)
      | None -> ()
    done;
    fresh (Array.append r.atts extra) (Array.append r.cols ecols) r.nrows
  end

let product a b =
  (match Array.find_opt (fun att -> mem_att b att) a.atts with
  | Some att ->
      invalid_arg
        (Printf.sprintf "Irel: product operands share attribute %S"
           (Intern.string_of_id att))
  | None -> ());
  (* Pair rows in (left-major, right-minor) order: with both operands
     canonical the concatenated rows are strictly increasing already (the
     left part alone distinguishes pairs from different left rows), so the
     columns can be built directly — no row materialization, no re-sort. *)
  let atts' = Array.append a.atts b.atts in
  let n = a.nrows * b.nrows in
  let expand_left c =
    let ids = Array.make n 0 in
    for i = 0 to a.nrows - 1 do
      Array.fill ids (i * b.nrows) b.nrows c.ids.(i)
    done;
    fresh_col c.att ids
  in
  let expand_right c =
    let ids = Array.make n 0 in
    for i = 0 to a.nrows - 1 do
      Array.blit c.ids 0 ids (i * b.nrows) b.nrows
    done;
    fresh_col c.att ids
  in
  fresh atts'
    (Array.append (Array.map expand_left a.cols) (Array.map expand_right b.cols))
    n

let demote r ~rel_name ~att_att ~rel_att =
  if mem_att r att_att || mem_att r rel_att || att_att = rel_att then
    invalid_arg "Irel: demote column clashes";
  let meta_rows =
    Array.to_list
      (Array.map
         (fun a ->
           [| Intern.string_value_id a; Intern.string_value_id rel_name |])
         r.atts)
  in
  let meta = of_rows [| att_att; rel_att |] meta_rows in
  product r meta

let extend r att f =
  if mem_att r att then
    invalid_arg
      (Printf.sprintf "Irel: attribute %S already present"
         (Intern.string_of_id att));
  (* Appending a column to pairwise-distinct sorted rows keeps them
     strictly increasing: build just the new column and share the rest. *)
  let out = Array.init r.nrows (fun i -> f (row_of r i)) in
  fresh
    (Array.append r.atts [| att |])
    (Array.append r.cols [| fresh_col att out |])
    r.nrows

let dereference r ~target ~pointer_col =
  let pi = index_of r pointer_col in
  extend r target (fun row ->
      match usable_name row.(pi) with
      | Some name -> (
          (* Resolved against the pre-extension schema, as in the boxed
             implementation (extend's callback receives the old schema). *)
          match index_of_opt r name with
          | Some j -> row.(j)
          | None -> null_id)
      | None -> null_id)

let compatible a b =
  let n = Array.length a in
  let rec go i =
    if i >= n then true
    else
      let x = a.(i) and y = b.(i) in
      (x = null_id || y = null_id || Intern.equal_values x y) && go (i + 1)
  in
  go 0

let lub a b =
  Array.init (Array.length a) (fun i ->
      if a.(i) = null_id then b.(i) else a.(i))

(* The µ in-group greedy fixpoint: repeatedly find any compatible pair,
   replace it with its lub, until no pair merges. Input order matters to
   which fixpoint is reached (µ is not confluent on pathological groups),
   so callers must feed rows in the boxed [Relation.merge] order: the
   group's canonical rows, reversed. Factored out so the chunked bulk
   executor ([Migrate]) can run the exact same fixpoint on groups it
   reassembles across chunk boundaries. *)
let merge_group ~changed rows =
  let rec go rows =
    let rec extract_one seen = function
      | [] -> None
      | x :: rest -> (
          let rec pick before = function
            | [] -> None
            | y :: after when compatible x y ->
                Some (lub x y :: List.rev_append before after)
            | y :: after -> pick (y :: before) after
          in
          match pick [] rest with
          | Some rest' -> Some (List.rev_append seen rest')
          | None -> extract_one (x :: seen) rest)
    in
    match extract_one [] rows with
    | Some rows' ->
        changed := true;
        go rows'
    | None -> rows
  in
  go rows

let merge_rows rows = merge_group ~changed:(ref false) rows

(* The µ-identity certificate. Two rows µ merges are compatible: they
   agree (under Value.compare) wherever both are non-null, so in
   particular on every column without nulls. If no two rows agree on all
   the null-free columns, no pair is ever compatible, no group merges, and
   µ on any column returns its input. With no null-free column at all the
   projection is injective only on 0 or 1 rows. *)
let mu_identity t =
  if t.mu_id >= 0 then t.mu_id = 1
  else begin
    let keys =
      List.filter
        (fun c -> not (Array.mem null_id c.ids))
        (Array.to_list t.cols)
    in
    let cmp i1 i2 =
      let rec go = function
        | [] -> 0
        | c :: rest ->
            let d = Intern.compare_values c.ids.(i1) c.ids.(i2) in
            if d <> 0 then d else go rest
      in
      go keys
    in
    let injective =
      t.nrows <= 1
      || keys <> []
         &&
         let idx = Array.init t.nrows Fun.id in
         Array.stable_sort cmp idx;
         let rec distinct k =
           k >= t.nrows || (cmp idx.(k - 1) idx.(k) <> 0 && distinct (k + 1))
         in
         distinct 1
    in
    t.mu_id <- (if injective then 1 else 0);
    injective
  end

let merge_column r ai =
  let kids = r.cols.(ai).ids in
  let changed = ref false in
  let merge_group rows = merge_group ~changed rows in
  (* Group ROW INDICES by the cell's printed form — exactly
     Relation.merge's [Value.to_string] Hashtbl key (vstr id equality ⟺
     string equality). Consing indices reproduces the reversed in-group
     row order the boxed implementation feeds to [merge_group]. *)
  let groups = Hashtbl.create 16 in
  let order = ref [] in
  Array.iteri
    (fun i v ->
      let key = Intern.value_str_id v in
      match Hashtbl.find_opt groups key with
      | None ->
          order := key :: !order;
          Hashtbl.add groups key (ref [ i ])
      | Some l -> l := i :: !l)
    kids;
  (* Only multi-row groups can merge; singletons never materialize. *)
  let merged = Hashtbl.create 8 in
  List.iter
    (fun key ->
      match !(Hashtbl.find groups key) with
      | [] | [ _ ] -> ()
      | idxs -> Hashtbl.add merged key (merge_group (List.map (row_of r) idxs)))
    (List.rev !order);
  (* Identity merges (no pair of rows ever collapsed) are common — every
     µ candidate that the pruning rules over-approximate lands here. The
     result is then exactly the input: share it physically (which also
     lets successor dedup confirm duplicates with a pointer check). *)
  if not !changed then r
  else
    let rows' =
      List.concat_map
        (fun key ->
          match Hashtbl.find_opt merged key with
          | Some rows -> rows
          | None -> List.map (row_of r) !(Hashtbl.find groups key))
        (List.rev !order)
    in
    of_rows r.atts rows'

let merge r att =
  let ai = index_of r att in
  (* The certificate settles most µ candidates without grouping a row. *)
  if mu_identity r then r else merge_column r ai

let slice r ~off ~len =
  if off < 0 || len < 0 || off + len > r.nrows then
    invalid_arg "Irel.slice: bad range";
  (* A contiguous row range of a canonical relation is canonical: sorted
     distinct rows stay sorted and distinct. Columnar [Array.sub] per
     column — no row materialization. *)
  let cols =
    Array.map (fun c -> fresh_col c.att (Array.sub c.ids off len)) r.cols
  in
  fresh r.atts cols len

let filter_rows r mask kept =
  (* Filtered rows of a canonical relation stay canonical: no re-sort. *)
  let cols =
    Array.map
      (fun c ->
        let ids = Array.make kept 0 in
        let k = ref 0 in
        Array.iteri
          (fun i id ->
            if mask.(i) then begin
              ids.(!k) <- id;
              incr k
            end)
          c.ids;
        fresh_col c.att ids)
      r.cols
  in
  fresh r.atts cols kept

let filter_idx r pred =
  let mask = Array.init r.nrows pred in
  let kept = Array.fold_left (fun n b -> if b then n + 1 else n) 0 mask in
  if kept = r.nrows then r else filter_rows r mask kept

let take_idx r idxs =
  let n = Array.length idxs in
  for k = 0 to n - 1 do
    let i = idxs.(k) in
    if i < 0 || i >= r.nrows || (k > 0 && idxs.(k - 1) >= i) then
      invalid_arg "Irel.take_idx: indices must be strictly increasing and in range"
  done;
  (* A strictly-increasing gather of canonical rows is canonical. *)
  let cols =
    Array.map
      (fun c -> fresh_col c.att (Array.map (fun i -> c.ids.(i)) idxs))
      r.cols
  in
  fresh r.atts cols n

let extend_cols r atts cols =
  let n_new = Array.length atts in
  if Array.length cols <> n_new then
    invalid_arg "Irel.extend_cols: atts/cols length mismatch";
  Array.iter
    (fun a ->
      if mem_att r a then
        invalid_arg
          (Printf.sprintf "Irel.extend_cols: attribute %S already present"
             (Intern.string_of_id a)))
    atts;
  Array.iter
    (fun ids ->
      if Array.length ids <> r.nrows then
        invalid_arg "Irel.extend_cols: bad column length")
    cols;
  (* Same argument as [extend]: appending columns to pairwise-distinct
     sorted rows keeps them strictly increasing — no re-canonicalization. *)
  fresh
    (Array.append r.atts atts)
    (Array.append r.cols (Array.map2 fresh_col atts cols))
    r.nrows

let partition_keys r att =
  let seen = Hashtbl.create 16 in
  let firsts = ref [] in
  Array.iter
    (fun id ->
      if id <> null_id && not (Hashtbl.mem seen id) then begin
        Hashtbl.add seen id ();
        firsts := (id, ()) :: !firsts
      end)
    r.cols.(index_of r att).ids;
  List.map fst (Relation.classes Intern.compare_values (List.rev !firsts))

let partition r att =
  (* One hashing pass buckets row indices by exact value id, buckets in
     first-seen row order; [Relation.classes] then merges the buckets of
     Value.compare-equal ids (mixed numeric spellings only). *)
  let buckets = Hashtbl.create 16 in
  let order = ref [] in
  Array.iteri
    (fun i id ->
      if id <> null_id then
        match Hashtbl.find_opt buckets id with
        | Some l -> l := i :: !l
        | None ->
            Hashtbl.add buckets id (ref [ i ]);
            order := id :: !order)
    r.cols.(index_of r att).ids;
  List.rev_map (fun id -> (id, List.rev !(Hashtbl.find buckets id))) !order
  |> Relation.classes Intern.compare_values
  |> List.map (fun (v, idxs) ->
         let idxs =
           match idxs with
           | [ l ] -> l
           | ls -> List.sort Int.compare (List.concat ls)
         in
         (v, take_idx r (Array.of_list idxs)))

let project_away r att =
  let i = index_of r att in
  let drop arr =
    Array.init
      (Array.length arr - 1)
      (fun j -> if j < i then arr.(j) else arr.(j + 1))
  in
  let atts' = drop r.atts in
  (* Fast path: if the projected rows are still strictly increasing, the
     surviving columns (records and caches) can be shared as-is. *)
  let arity' = Array.length atts' in
  let cols' = drop r.cols in
  let still_sorted =
    let rec cmp_from i1 i2 j =
      if j >= arity' then 0
      else
        let c =
          Intern.compare_values cols'.(j).ids.(i1) cols'.(j).ids.(i2)
        in
        if c <> 0 then c else cmp_from i1 i2 (j + 1)
    in
    let rec go i =
      i >= r.nrows || (cmp_from (i - 1) i 0 < 0 && go (i + 1))
    in
    arity' > 0 && go 1
  in
  if still_sorted then
    fresh atts' cols' r.nrows
  else of_rows atts' (List.map drop (to_rows r))

let rename_att r ~old_name ~new_name =
  let i = index_of r old_name in
  if old_name <> new_name && mem_att r new_name then
    invalid_arg
      (Printf.sprintf "Irel: attribute %S already present"
         (Intern.string_of_id new_name));
  let atts' = Array.copy r.atts in
  atts'.(i) <- new_name;
  let cols' = Array.copy r.cols in
  let old = r.cols.(i) in
  (* Share the cell ids and the att-independent caches; the fingerprint
     lanes depend on the attribute name and are recomputed on demand. *)
  cols'.(i) <-
    {
      att = new_name;
      ids = old.ids;
      lanes = None;
      dstrs = old.dstrs;
      dcount = old.dcount;
    };
  (* Renaming changes no cell: the value and µ caches carry over. *)
  { (fresh atts' cols' r.nrows) with vstrs = r.vstrs; nulls = r.nulls;
    mu_id = r.mu_id }

(* ------------------------------------------------------------------ *)
(* Comparison, containment                                             *)

let sorted_atts t =
  List.sort Intern.compare_strings (Array.to_list t.atts)

let project_rows t atts_order =
  let idx = Array.of_list (List.map (index_of t) atts_order) in
  List.init t.nrows (fun i ->
      Array.map (fun j -> t.cols.(j).ids.(i)) idx)

(* Physically-shared representation: same attribute sequence and the same
   cell-id arrays (as produced by [rename_rel]-style sharing and the
   [project_away]/[rename_att] fast paths). Sound for both equality
   flavours — identical ids are identical cells. *)
let shared_rep a b =
  a.nrows = b.nrows
  && Array.length a.atts = Array.length b.atts
  && Array.for_all2 Int.equal a.atts b.atts
  && Array.for_all2 (fun ca cb -> ca.ids == cb.ids) a.cols b.cols

(* Relation.equal: schemas equal as attribute sets, and rows equal (under
   Value.compare) once both sides are projected onto the sorted attribute
   order. *)
let equal a b =
  a == b || shared_rep a b
  || a.nrows = b.nrows
     &&
     let sa = sorted_atts a and sb = sorted_atts b in
     List.equal Int.equal sa sb
     &&
     let norm t = List.sort compare_rows (project_rows t sa) in
     List.equal (fun x y -> compare_rows x y = 0) (norm a) (norm b)

(* Canonical-key equality: like [equal] but cells compared under the
   canonical type-tagged equivalence (so Int 1 ≠ Float 1.0 here). Used by
   the fingerprint-collision fallback in successor dedup. *)
let canonical_equal a b =
  a == b || shared_rep a b
  || a.nrows = b.nrows
     &&
     let sa = sorted_atts a and sb = sorted_atts b in
     List.equal Int.equal sa sb
     &&
     let norm t = List.sort compare_rows (project_rows t sa) in
     List.equal
       (fun x y ->
         let n = Array.length x in
         let rec go i =
           i >= n || (Intern.canonical_equal_values x.(i) y.(i) && go (i + 1))
         in
         go 0)
       (norm a) (norm b)

(* Relation.contains: small's schema is a subset of big's, and every small
   row occurs among big's rows projected onto small's attribute order. The
   sorted projection is cached on [big]: target relations are fixed per
   run and unchanged state relations are shared across states, so the goal
   check amortizes to a few binary searches. *)
let sorted_proj big small_atts =
  match big.proj with
  | Some (key, rows) when key = small_atts -> rows
  | _ ->
      let rows =
        Array.of_list
          (List.sort compare_rows
             (project_rows big (Array.to_list small_atts)))
      in
      big.proj <- Some (Array.copy small_atts, rows);
      rows

let proj_mem proj row =
  let lo = ref 0 and hi = ref (Array.length proj) in
  let found = ref false in
  while (not !found) && !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let c = compare_rows row proj.(mid) in
    if c = 0 then found := true
    else if c < 0 then hi := mid
    else lo := mid + 1
  done;
  !found

let contains big small =
  Array.for_all (fun att -> mem_att big att) small.atts
  &&
  let proj = sorted_proj big small.atts in
  let rec all i =
    i >= small.nrows || (proj_mem proj (row_of small i) && all (i + 1))
  in
  all 0

let count_contained big small =
  if not (Array.for_all (fun att -> mem_att big att) small.atts) then 0
  else begin
    let proj = sorted_proj big small.atts in
    let n = ref 0 in
    for i = 0 to small.nrows - 1 do
      if proj_mem proj (row_of small i) then incr n
    done;
    !n
  end
