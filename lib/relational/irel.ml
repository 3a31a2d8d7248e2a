(* Interned columnar relations: the search hot path's view of a relation.

   Storage is one int array of value ids per column plus the attribute
   name ids, with per-column caches for the derived quantities successor
   generation keeps asking for: fingerprint element lanes, the histogram
   of value strings, distinct value counts. Relations are immutable; ℒ
   operators build fresh ones, sharing column records whenever the cell
   content of a column survives unchanged (rename_att, project_away's fast
   path), which is what lets the caches amortize across thousands of
   sibling states.

   Bit-identity contract: every operator here mirrors the corresponding
   Relation.* implementation step for step — same row production order,
   same List.sort_uniq canonicalization (under Intern.compare_values, which
   IS Value.compare, and 0 only on equal ids), same first-seen scans — so
   converting the result with [to_relation] yields exactly the boxed
   operator's output. Property-tested in test/test_props.ml.

   The mutable cache fields follow the repo's benign-race convention
   (see lib/tupelo/state.ml): concurrent domains at worst recompute the
   same immutable value and both publish it. *)

type histogram = { strs : int array; counts : int array; sq : int }

type col = {
  att : int;  (* attribute name string id *)
  ids : int array;  (* value ids, one per row *)
  mutable lanes : Bytes.t option;
      (* fingerprint cell lanes for THIS att, unboxed: lane a of row i at
         byte 16i, lane b at 16i + 8 *)
  mutable hist : histogram option;  (* value-string histogram *)
  mutable dcount : int;  (* |column_distinct| (nulls included); -1 unknown *)
}

(* An open-addressing index of a relation's rows, keyed by an attribute
   order: [key] are the relation's columns in [order], and [slots], a
   power of two at most half full, holds row numbers (-1 empty), placed
   by a hash of the row's ids in key order and probed linearly. Equal
   ids are equal values, so a probe compares ids as ints: no Value
   order, no sort, no allocation. *)
type row_index = { order : int array; key : int array array; slots : int array }

type t = {
  atts : int array;  (* attribute name ids, = col order *)
  cols : col array;
  nrows : int;
  mutable fp : (int * Fingerprint.t) option;  (* keyed by relation-name id *)
  mutable vstrs : int array option;
      (* distinct non-null value strings across all columns, sorted by id *)
  mutable nulls : int;  (* has null cells: -1 unknown / 0 / 1 *)
  mutable index : row_index option;  (* membership cache, see [row_index] *)
  mutable mu_id : int;  (* µ is the identity on every column: -1 unknown / 0 / 1 *)
}

let null_id = Intern.null_value_id
let fresh_col att ids = { att; ids; lanes = None; hist = None; dcount = -1 }

(* A relation with every relation-level cache empty. *)
let fresh atts cols nrows =
  { atts; cols; nrows; fp = None; vstrs = None; nulls = -1; index = None;
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

(* [compare_rows] of rows [i] and [i'] of columns [cols], from column [j]. *)
let rec compare_col_rows cols i i' j =
  if j >= Array.length cols then 0
  else
    let col = Array.unsafe_get cols j in
    let c =
      Intern.compare_values (Array.unsafe_get col i) (Array.unsafe_get col i')
    in
    if c <> 0 then c else compare_col_rows cols i i' (j + 1)

(* The first [n] rows of [cols] increase strictly: they are canonical. *)
let rows_increasing cols n =
  let rec go i = i >= n || (compare_col_rows cols (i - 1) i 0 < 0 && go (i + 1)) in
  go 1

let of_rows atts rows = make atts (canonicalize rows)

(* The first [n] rows of [cols] as a relation, exactly [of_rows] of those
   rows. Rows that already increase strictly are shared as they are.
   Otherwise an index permutation is sorted in [compare_rows]' order,
   repeats are dropped and the columns gathered: compare-equal rows are
   id-identical, so it does not matter which of them is kept. *)
let of_cols atts cols n =
  let arity = Array.length atts in
  if Array.length cols <> arity || n < 0
     || Array.exists (fun col -> Array.length col < n) cols
  then invalid_arg "Irel.of_cols: bad columns";
  if rows_increasing cols n then
    let cut col = if Array.length col = n then col else Array.sub col 0 n in
    fresh atts (Array.map2 (fun att col -> fresh_col att (cut col)) atts cols) n
  else begin
    let perm = Array.init n Fun.id in
    Array.stable_sort (fun i i' -> compare_col_rows cols i i' 0) perm;
    let keep = Array.make n 0 and kept = ref 0 in
    Array.iter
      (fun i ->
        if !kept = 0 || compare_col_rows cols keep.(!kept - 1) i 0 <> 0 then begin
          keep.(!kept) <- i;
          incr kept
        end)
      perm;
    let keep = Array.sub keep 0 !kept in
    fresh atts
      (Array.map2
         (fun att col -> fresh_col att (Array.map (Array.get col) keep))
         atts cols)
      !kept
  end

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

(* One counting pass: sort the non-null cells' value-string ids, then
   run-length them in place into distinct ids and their counts. *)
let histogram t j =
  let c = t.cols.(j) in
  match c.hist with
  | Some h -> h
  | None ->
      let s = Array.make (Array.length c.ids) 0 and n = ref 0 in
      Array.iter
        (fun id ->
          if id <> null_id then begin
            s.(!n) <- Intern.value_str_id id;
            incr n
          end)
        c.ids;
      let s = Array.sub s 0 !n in
      Array.stable_sort Int.compare s;
      let counts = Array.make !n 0 and d = ref 0 in
      Array.iteri
        (fun i x ->
          if i = 0 || x <> s.(!d - 1) then begin
            s.(!d) <- x;
            incr d
          end;
          counts.(!d - 1) <- counts.(!d - 1) + 1)
        s;
      let counts = Array.sub counts 0 !d in
      let sq = Array.fold_left (fun acc k -> acc + (k * k)) 0 counts in
      let h = { strs = Array.sub s 0 !d; counts; sq } in
      c.hist <- Some h;
      h

let dstrs t j = (histogram t j).strs

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
(* Row index: membership and distinctness on ids                       *)

(* Top-level and closure-free, so that a probe allocates nothing. *)
let rec hash_ids cols i j h =
  if j >= Array.length cols then h
  else
    hash_ids cols i (j + 1)
      ((h * 0x9E3779B97F4A7C1) + Array.unsafe_get (Array.unsafe_get cols j) i)

let slot_of slots cols i =
  (hash_ids cols i 0 0 * 0x9E3779B97F4A7C1) lsr 17
  land (Array.length slots - 1)

(* Row [k] of [key] and row [i] of [cols] hold the same ids from column [j]. *)
let rec same_ids key k cols i j =
  j >= Array.length key
  || Array.unsafe_get (Array.unsafe_get key j) k
     = Array.unsafe_get (Array.unsafe_get cols j) i
     && same_ids key k cols i (j + 1)

(* The slot of [slots] (row numbers of [key]) holding a row with row
   [i] of [cols]'s ids, or the empty slot that ends its probe. *)
let rec probe slots key cols i s =
  let k = Array.unsafe_get slots s in
  if k < 0 || same_ids key k cols i 0 then s
  else probe slots key cols i ((s + 1) land (Array.length slots - 1))

(* Slots for [n] rows, at most half full. *)
let empty_slots n =
  let cap = ref 2 in
  while !cap < 2 * n do
    cap := 2 * !cap
  done;
  Array.make !cap (-1)

(* Places rows [k..n-1] of [key] in [slots]; [false] as soon as one holds
   the same ids as a row placed before it. *)
let rec place_rows slots key k n =
  k >= n
  ||
  let s = probe slots key key k (slot_of slots key k) in
  Array.unsafe_get slots s < 0
  && begin
       Array.unsafe_set slots s k;
       place_rows slots key (k + 1) n
     end

(* [r]'s row index keyed by [order], a permutation of (or, for the goal
   test, a subset of) [r]'s attributes in the order the probing side holds
   them. Cached on [r] for its last order: a goal target is indexed once
   per search. Canonical rows are distinct, so every row is placed. *)
let row_index r order =
  match r.index with
  | Some ix
    when ix.order == order
         || Array.length ix.order = Array.length order
            && Array.for_all2 Int.equal ix.order order ->
      ix
  | _ ->
      let key = Array.map (fun att -> r.cols.(index_of r att).ids) order in
      let slots = empty_slots r.nrows in
      ignore (place_rows slots key 0 r.nrows);
      let ix = { order; key; slots } in
      r.index <- Some ix;
      ix

(* The indexed row holding row [i] of [cols]'s ids ([cols] in
   [ix.order]), or -1. *)
let find ix cols i =
  let s = probe ix.slots ix.key cols i (slot_of ix.slots cols i) in
  Array.unsafe_get ix.slots s

(* The number of [small]'s rows that some row of [big] holds, projected
   onto [small]'s attributes (all of them [big]'s): [small] is indexed,
   [big]'s rows are streamed once and each hit is marked, until every
   row of [small] is. *)
let matched big small =
  let ix = row_index small small.atts in
  let cols =
    Array.map (fun att -> big.cols.(index_of big att).ids) small.atts
  in
  let seen = Bytes.make small.nrows '\000' in
  let n = ref 0 and i = ref 0 in
  while !n < small.nrows && !i < big.nrows do
    let k = find ix cols !i in
    if k >= 0 && Bytes.unsafe_get seen k = '\000' then begin
      Bytes.unsafe_set seen k '\001';
      incr n
    end;
    incr i
  done;
  !n

(* ------------------------------------------------------------------ *)
(* Fingerprint (bit-identical with Fingerprint.of_relation)            *)

let col_lanes t j =
  let c = t.cols.(j) in
  match c.lanes with
  | Some l -> l
  | None ->
      let n = Array.length c.ids in
      let l = Bytes.create (16 * n) in
      for i = 0 to n - 1 do
        Intern.cell_lanes c.att (Array.unsafe_get c.ids i) l (16 * i)
      done;
      c.lanes <- Some l;
      l

let fingerprint ~name t =
  match t.fp with
  | Some (n, fp) when n = name -> fp
  | _ ->
      let sa = ref 0L and sb = ref 0L in
      for j = 0 to Array.length t.atts - 1 do
        let aa, ab = Intern.string_lanes t.atts.(j) in
        sa := Int64.add !sa aa;
        sb := Int64.add !sb ab
      done;
      let fp =
        Fingerprint.Hashing.of_lanes ~rel:(Intern.string_lanes name)
          ~schema:(!sa, !sb)
          (Array.init (Array.length t.cols) (col_lanes t))
          t.nrows
      in
      t.fp <- Some (name, fp);
      fp

(* ------------------------------------------------------------------ *)
(* ℒ operators, each mirroring its Relation counterpart                *)

type map = { map : 'a 'b. ('a -> 'b) -> 'a list -> 'b list }

let sequential = { map = List.map }

(* Relation.usable_column_name: None for Null and String "" (only a
   String can render as the empty string); otherwise the printed form. *)
let usable_name id =
  if id = null_id then None
  else
    let s = Intern.value_str_id id in
    if s = Intern.empty_string_id then None else Some s

(* ↑ on one chunk, given [extra]: the fresh columns every chunk gains. *)
let promote_into extra r ni vi =
  let nids = r.cols.(ni).ids and vids = r.cols.(vi).ids in
  let base_arity = Array.length r.atts and n = r.nrows in
  let atts' = Array.append r.atts extra in
  let ids' =
    Array.init (Array.length atts') (fun j ->
        if j < base_arity then r.cols.(j).ids else Array.make n null_id)
  in
  (* Each row writes its value cell under the column its name cell names:
     a fresh column, or an existing one, overwritten for this row. A base
     column is copied on its first changed cell; the others keep their
     record, caches included. Cells are read from [r]'s own columns. *)
  let written = Array.make base_arity false in
  for i = 0 to n - 1 do
    match usable_name (Array.unsafe_get nids i) with
    | Some name ->
        let rec slot j = if atts'.(j) = name then j else slot (j + 1) in
        let j = slot 0 and v = vids.(i) in
        if j >= base_arity then ids'.(j).(i) <- v
        else if ids'.(j).(i) <> v then begin
          if not written.(j) then begin
            ids'.(j) <- Array.copy ids'.(j);
            written.(j) <- true
          end;
          ids'.(j).(i) <- v
        end
    | None -> ()
  done;
  let overwrote = Array.mem true written in
  if extra = [||] && not overwrote then r
  else if overwrote && not (rows_increasing ids' n) then
    (* the overwrite broke row order or made two rows equal *)
    of_cols atts' ids' n
  else
    (* still strictly increasing: appended columns cannot reorder
       distinct rows *)
    fresh atts'
      (Array.mapi
         (fun j ids ->
           if j < base_arity && not written.(j) then r.cols.(j)
           else fresh_col atts'.(j) ids)
         ids')
      n

let promote_chunks map chunks ~name_col ~value_col =
  match chunks with
  | [] -> []
  | c0 :: _ ->
      let ni = index_of c0 name_col and vi = index_of c0 value_col in
      (* Dynamically created column names: each chunk's in first-seen
         (row) order, then joined in chunk order, first occurrence kept. *)
      let add names name =
        if mem_att c0 name || List.mem name names then names else name :: names
      in
      let chunk_names c =
        Array.fold_left
          (fun names id ->
            match usable_name id with Some name -> add names name | None -> names)
          [] c.cols.(ni).ids
        |> List.rev
      in
      let extra =
        List.fold_left (List.fold_left add) [] (map.map chunk_names chunks)
        |> List.rev |> Array.of_list
      in
      map.map (fun c -> promote_into extra c ni vi) chunks

let promote r ~name_col ~value_col =
  List.hd (promote_chunks sequential [ r ] ~name_col ~value_col)

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
      (x = null_id || y = null_id || x = y) && go (i + 1)
  in
  go 0

let lub a b =
  Array.init (Array.length a) (fun i ->
      if a.(i) = null_id then b.(i) else a.(i))

(* The µ in-group greedy fixpoint: repeatedly find any compatible pair,
   replace it with its lub, until no pair merges. Input order matters to
   which fixpoint is reached (µ is not confluent on pathological groups),
   so rows come in the boxed [Relation.merge] order: the group's
   canonical rows, reversed. Only groups the µ kernel below finds in
   conflict get here. *)
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

(* The µ-identity certificate. Two rows µ merges are compatible: they
   hold the same ids wherever both are non-null, so in particular on every
   column without nulls. If no two rows agree on all the null-free
   columns, no pair is ever compatible, no group merges, and µ on any
   column returns its input. With no null-free column at all the
   projection is injective only on 0 or 1 rows. Distinctness needs
   equality only: the null-free columns' rows are placed in a row index,
   which fails on the first repeat. *)
let mu_identity t =
  if t.mu_id >= 0 then t.mu_id = 1
  else begin
    let rec has_null ids i =
      i >= 0 && (ids.(i) = null_id || has_null ids (i - 1))
    in
    let keys =
      Array.of_seq
        (Seq.filter_map
           (fun c -> if has_null c.ids (t.nrows - 1) then None else Some c.ids)
           (Array.to_seq t.cols))
    in
    let injective =
      t.nrows <= 1
      || Array.length keys > 0
         && place_rows (empty_slots t.nrows) keys 0 t.nrows
    in
    t.mu_id <- (if injective then 1 else 0);
    injective
  end

let concat atts chunks =
  let rec increasing = function
    | a :: (b :: _ as rest) ->
        compare_rows (row_of a (a.nrows - 1)) (row_of b 0) < 0
        && increasing rest
    | _ -> true
  in
  match List.filter (fun c -> c.nrows > 0) chunks with
  | [ c ] -> c
  | cs ->
      let cols =
        Array.mapi
          (fun j _ -> Array.concat (List.map (fun c -> c.cols.(j).ids) cs))
          atts
      and n = List.fold_left (fun n c -> n + c.nrows) 0 cs in
      (* Canonical chunks whose boundaries increase are canonical end to
         end: the concatenated columns are used as they are. Otherwise
         they are sorted and deduplicated as columns: no row is built. *)
      if increasing cs then fresh atts (Array.map2 fresh_col atts cols) n
      else of_cols atts cols n

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

(* The rows at strictly increasing indices [idxs]: a gather of canonical
   rows in order is canonical; one of every row is the input. *)
let take_idx r idxs =
  let n = Array.length idxs in
  if n = r.nrows then r
  else
    let cols =
      Array.map
        (fun c -> fresh_col c.att (Array.map (fun i -> c.ids.(i)) idxs))
        r.cols
    in
    fresh r.atts cols n

let filter_idx r pred =
  let idxs = Array.make r.nrows 0 and k = ref 0 in
  for i = 0 to r.nrows - 1 do
    if pred i then begin
      idxs.(!k) <- i;
      incr k
    end
  done;
  take_idx r (Array.sub idxs 0 !k)

(* ------------------------------------------------------------------ *)
(* µ: one kernel for a relation and for a relation held as chunks      *)

(* What the kernel learns about a relation held as chunks. A key held by
   two or more rows is a repeated key; repeated keys are numbered in the
   order they are first seen (chunk order, then row order). *)
type mu_plan = {
  reps : int array array;
      (* per chunk, per row: its repeated key's number, or -1 when no
         other row has its key *)
  lubs : int array array;
      (* per column, per repeated key: the lub of its rows' cells *)
  outs : int array list array;
      (* per repeated key: the fixpoint's rows if a column conflicts (two
         different non-null ids), else [] *)
  changed : bool;  (* some pair of rows merged *)
}

(* A repeated key's merged rows. *)
let mu_out p r =
  match p.outs.(r) with
  | [] -> [ Array.map (fun col -> col.(r)) p.lubs ]
  | rows -> rows

(* Rows are grouped by the key cell's printed form, exactly
   Relation.merge's [Value.to_string] Hashtbl key (vstr id equality ⟺
   string equality), through an int-keyed open-addressing table sized
   from the row count. The rows of each repeated key then fold column by
   column into its lub; a column conflicts when it holds two different
   non-null ids.

   Without a conflict the group's rows are pairwise compatible (equal ids
   are equal values), a merge of two of them is again compatible with the
   rest, and so every merge order of the greedy fixpoint ends in the same
   single row: the lub. With at most one non-null id per column the lub
   depends neither on the order rows are fed nor on duplicates. Only a
   conflicting group runs the fixpoint itself, on its deduplicated
   canonical rows reversed. *)
let mu_plan map chunks ai =
  let chunks = Array.of_list chunks in
  (* Each row's key, overwritten below by its group and then by its
     repeated-key number. *)
  let reps =
    Array.of_list
      (map.map
         (fun c -> Array.map Intern.value_str_id c.cols.(ai).ids)
         (Array.to_list chunks))
  in
  let n = Array.fold_left (fun n c -> n + c.nrows) 0 chunks in
  let cap = ref 8 in
  while !cap < 2 * n do
    cap := 2 * !cap
  done;
  let mask = !cap - 1 in
  (* A slot holds [key lsl 31 lor group], or -1; string ids and groups
     both stay far below 2^31. *)
  let tab = Array.make !cap (-1) in
  let groups = Array.make n 0 (* rows per group, then its number *) in
  let ngroups = ref 0 and nrep = ref 0 in
  Array.iter
    (fun ks ->
      for i = 0 to Array.length ks - 1 do
        let k = Array.unsafe_get ks i in
        let s = ref ((k * 0x9E3779B97F4A7C1) lsr 17 land mask) in
        while tab.(!s) >= 0 && tab.(!s) lsr 31 <> k do
          s := (!s + 1) land mask
        done;
        let g =
          if tab.(!s) >= 0 then tab.(!s) land 0x7FFF_FFFF
          else begin
            let g = !ngroups in
            incr ngroups;
            tab.(!s) <- (k lsl 31) lor g;
            g
          end
        in
        let c = groups.(g) + 1 in
        groups.(g) <- c;
        if c = 2 then incr nrep;
        Array.unsafe_set ks i g
      done)
    reps;
  if !nrep = 0 then None
  else begin
    let nrep = !nrep in
    let r = ref 0 in
    for g = 0 to !ngroups - 1 do
      if groups.(g) > 1 then begin
        groups.(g) <- !r;
        incr r
      end
      else groups.(g) <- -1
    done;
    Array.iter
      (fun ks ->
        Array.iteri (fun i g -> Array.unsafe_set ks i groups.(g)) ks)
      reps;
    let arity = Array.length chunks.(0).cols in
    let lubs = Array.init arity (fun _ -> Array.make nrep null_id) in
    (* Columns fold independently; each reports its conflicting keys. *)
    let conflicted =
      map.map
        (fun j ->
          let lub = lubs.(j) and bad = ref [] in
          Array.iteri
            (fun ci c ->
              let ks = reps.(ci) and src = c.cols.(j).ids in
              for i = 0 to c.nrows - 1 do
                let r = Array.unsafe_get ks i in
                let y = Array.unsafe_get src i in
                if r >= 0 && y <> null_id then begin
                  let x = Array.unsafe_get lub r in
                  if x = null_id then Array.unsafe_set lub r y
                  else if x <> y then bad := r :: !bad
                end
              done)
            chunks;
          !bad)
        (List.init arity Fun.id)
    in
    let conflict = Bytes.make nrep '\000' in
    List.iter (List.iter (fun r -> Bytes.set conflict r '\001')) conflicted;
    let outs = Array.make nrep [] in
    if List.exists (( <> ) []) conflicted then
      Array.iteri
        (fun ci c ->
          let ks = reps.(ci) in
          for i = 0 to c.nrows - 1 do
            let r = ks.(i) in
            if r >= 0 && Bytes.get conflict r <> '\000' then
              outs.(r) <- row_of c i :: outs.(r)
          done)
        chunks;
    let changed = ref false in
    for r = 0 to nrep - 1 do
      if outs.(r) = [] then changed := true
      else
        outs.(r) <-
          merge_group ~changed
            (List.rev (List.sort_uniq compare_rows outs.(r)))
    done;
    Some { reps; lubs; outs; changed = !changed }
  end

let merge r att =
  let ai = index_of r att in
  (* The certificate settles most µ candidates without grouping a row. *)
  if mu_identity r then r
  else
    match mu_plan sequential [ r ] ai with
    | Some p when p.changed ->
        (* The unique-key rows and each repeated key's merged rows. *)
        let reps = p.reps.(0) in
        let rows = ref [] in
        for i = 0 to r.nrows - 1 do
          if reps.(i) < 0 then rows := row_of r i :: !rows
        done;
        for k = 0 to Array.length p.outs - 1 do
          rows := List.rev_append (mu_out p k) !rows
        done;
        of_rows r.atts !rows
    | _ ->
        (* Identity merges (no pair of rows ever collapsed) are common —
           every µ candidate that the pruning rules over-approximate
           lands here. The result is then exactly the input: share it
           physically (which also lets successor dedup confirm duplicates
           with a pointer check). *)
        r

let merge_chunks map ~chunk_rows chunks att =
  match chunks with
  | [] -> []
  | c0 :: _ -> (
      match mu_plan map chunks (index_of c0 att) with
      | None -> chunks
      | Some p ->
          let kept =
            map.map
              (fun (c, ks) ->
                if Array.exists (fun k -> k < 0) ks then
                  [ filter_idx c (fun i -> ks.(i) < 0) ]
                else [])
              (List.combine chunks (Array.to_list p.reps))
          in
          (* The merged rows in repeated-key order as columns — the lubs
             themselves when no key conflicts — cut chunk_rows at a
             time. *)
          let merged =
            if Array.for_all (( = ) []) p.outs then p.lubs
            else
              let rows =
                Array.of_list
                  (List.concat (List.init (Array.length p.outs) (mu_out p)))
              in
              Array.init (Array.length p.lubs) (fun j ->
                  Array.map (fun row -> row.(j)) rows)
          in
          let n = Array.length merged.(0) in
          List.concat kept
          @ map.map
              (fun lo ->
                let len = min chunk_rows (n - lo) in
                of_cols c0.atts
                  (Array.map (fun col -> Array.sub col lo len) merged)
                  len)
              (List.init ((n + chunk_rows - 1) / chunk_rows) (fun k ->
                   k * chunk_rows)))

(* Each distinct non-null id of column [att] with the indices of its
   rows, ascending, in first-seen order: one bucket per value. *)
let buckets r att =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  Array.iteri
    (fun i id ->
      if id <> null_id then
        match Hashtbl.find_opt tbl id with
        | Some l -> l := i :: !l
        | None ->
            Hashtbl.add tbl id (ref [ i ]);
            order := id :: !order)
    r.cols.(index_of r att).ids;
  (List.sort Intern.compare_values !order, tbl)

let partition_keys r att = fst (buckets r att)

let partition r att =
  let keys, tbl = buckets r att in
  List.map
    (fun id ->
      (id, take_idx r (Array.of_list (List.rev !(Hashtbl.find tbl id)))))
    keys

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
  let cols' = drop r.cols in
  let ids' = Array.map (fun c -> c.ids) cols' in
  if rows_increasing ids' r.nrows then fresh atts' cols' r.nrows
  else of_cols atts' ids' r.nrows

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
      hist = old.hist;
      dcount = old.dcount;
    };
  (* Renaming changes no cell: the value and µ caches carry over. *)
  { (fresh atts' cols' r.nrows) with vstrs = r.vstrs; nulls = r.nulls;
    mu_id = r.mu_id }

(* ------------------------------------------------------------------ *)
(* Comparison, containment                                             *)

(* Same attribute array and the same value id in every cell: the two are
   one relation. Columns shared
   physically ([rename_rel]-style sharing, the [project_away]/[rename_att]
   fast paths) cost nothing, and a duplicate built afresh (µ on two
   columns giving one relation) costs a scan. [false] claims nothing: the
   same rows may sit under another attribute order. *)
let same_cells a b =
  let rec cells x y i =
    i < 0 || (Array.unsafe_get x i = Array.unsafe_get y i && cells x y (i - 1))
  in
  a.nrows = b.nrows
  && Array.length a.atts = Array.length b.atts
  && Array.for_all2 Int.equal a.atts b.atts
  && Array.for_all2
       (fun ca cb -> ca.ids == cb.ids || cells ca.ids cb.ids (a.nrows - 1))
       a.cols b.cols

(* Relation.equal: schemas equal as attribute sets, and the same rows
   once both are projected onto one attribute order. Used by the
   fingerprint-collision fallback in successor dedup, where nearly every
   call confirms a true duplicate in the same column layout: that is
   settled in place. Otherwise canonical rows are distinct, so with equal
   row counts [a] holds [b]'s rows exactly when the two are equal; [b] is
   indexed, which under the Exact goal mode is the target. *)
let equal a b =
  a == b || same_cells a b
  || a.nrows = b.nrows
     && Array.length a.atts = Array.length b.atts
     && Array.for_all (mem_att a) b.atts
     && matched a b = b.nrows

(* Relation.contains: small's schema is a subset of big's, and every small
   row occurs among big's rows projected onto small's attribute order.
   The index is cached on [small]: the goal target is fixed per run, so
   each goal test streams the state relation's rows once. *)
let contains big small =
  Array.for_all (mem_att big) small.atts
  && small.nrows <= big.nrows
  && matched big small = small.nrows

let count_contained big small =
  if Array.for_all (mem_att big) small.atts then matched big small else 0

(* ------------------------------------------------------------------ *)
(* ∪ − ⋈ σ                                                             *)

let align atts r =
  if atts = r.atts then r
  else
    of_cols atts (Array.map (fun att -> r.cols.(index_of r att).ids) atts) r.nrows

let union a b = concat a.atts [ a; align a.atts b ]

let diff_chunks map chunks b =
  match chunks with
  | [] -> []
  | c0 :: _ ->
      (* Built (and cached on [b]) before the map, so no two domains write
         [b]'s index cache at once. *)
      let ix = row_index b c0.atts in
      map.map
        (fun c ->
          let cols = Array.map (fun col -> col.ids) c.cols in
          filter_idx c (fun i -> find ix cols i < 0))
        chunks

let diff a b = List.hd (diff_chunks sequential [ a ] b)

let join a b =
  match List.filter (mem_att b) (Array.to_list a.atts) with
  | [] -> product a b
  | shared ->
      let only =
        Array.of_list
          (List.filter (fun att -> not (mem_att a att)) (Array.to_list b.atts))
      in
      let key t =
        let idx = Array.of_list (List.map (index_of t) shared) in
        fun i -> Array.map (fun j -> t.cols.(j).ids.(i)) idx
      in
      (* Equal ids are Value.equal values, nulls included. *)
      let bkey = key b and akey = key a in
      let rows = Hashtbl.create b.nrows in
      for i' = 0 to b.nrows - 1 do
        Hashtbl.add rows (bkey i') i'
      done;
      let pairs =
        Array.of_list
          (List.concat
             (List.init a.nrows (fun i ->
                  List.map (fun i' -> (i, i')) (Hashtbl.find_all rows (akey i)))))
      in
      let gather t pick j = Array.map (fun p -> t.cols.(j).ids.(pick p)) pairs in
      of_cols
        (Array.append a.atts only)
        (Array.append
           (Array.init (Array.length a.atts) (gather a fst))
           (Array.map (fun att -> gather b snd (index_of b att)) only))
        (Array.length pairs)

(* Algebra.eval_pred compiled against [atts], evaluated on a row's ids.
   An absent attribute reads as null: both make a comparison false. *)
let compile_pred atts pred =
  let operand = function
    | Algebra.Const v ->
        let id = Intern.value_id v in
        fun _ _ -> id
    | Algebra.Att a -> (
        match Array.find_index (( = ) (Intern.string_id a)) atts with
        | Some j -> fun r i -> r.cols.(j).ids.(i)
        | None -> fun _ _ -> null_id)
  in
  let rec compile = function
    | Algebra.True -> fun _ _ -> true
    | Algebra.False -> fun _ _ -> false
    | Algebra.Not p ->
        let p = compile p in
        fun r i -> not (p r i)
    | Algebra.And (p, q) ->
        let p = compile p and q = compile q in
        fun r i -> p r i && q r i
    | Algebra.Or (p, q) ->
        let p = compile p and q = compile q in
        fun r i -> p r i || q r i
    | Algebra.Cmp (cmp, x, y) ->
        let x = operand x and y = operand y in
        fun r i ->
          let a = x r i and b = y r i in
          a <> null_id && b <> null_id
          &&
          let c = Intern.compare_values a b in
          (match cmp with
          | Eq -> c = 0 | Neq -> c <> 0 | Lt -> c < 0
          | Leq -> c <= 0 | Gt -> c > 0 | Geq -> c >= 0)
    | Algebra.In (x, vs) ->
        let x = operand x and ids = List.map Intern.value_id vs in
        fun r i ->
          let a = x r i in
          a <> null_id && List.mem a ids
  in
  compile pred

let select_chunks map chunks pred =
  match chunks with
  | [] -> []
  | c0 :: _ ->
      let holds = compile_pred c0.atts pred in
      map.map (fun c -> filter_idx c (holds c)) chunks

let select r pred = List.hd (select_chunks sequential [ r ] pred)
