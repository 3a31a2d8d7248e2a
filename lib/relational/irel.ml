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
let fresh_col att ids = { att; ids; lanes = None; hist = None; dcount = -1 }

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
(* Fingerprint (bit-identical with Fingerprint.of_relation)            *)

let col_lanes t j =
  let c = t.cols.(j) in
  match c.lanes with
  | Some l -> l
  | None ->
      let n = Array.length c.ids in
      let l = Bytes.create (16 * n) in
      for i = 0 to n - 1 do
        (* The second lane is one mix away from the first. *)
        let ea = Intern.cell_lane_a c.att (Array.unsafe_get c.ids i) in
        Bytes.set_int64_ne l (16 * i) ea;
        Bytes.set_int64_ne l ((16 * i) + 8)
          (Fingerprint.Hashing.mix64
             (Int64.logxor ea Fingerprint.Hashing.lane_salt))
      done;
      c.lanes <- Some l;
      l

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
          let l = Array.unsafe_get lanes j in
          sa := Int64.add !sa (Bytes.get_int64_ne l (16 * i));
          sb := Int64.add !sb (Bytes.get_int64_ne l ((16 * i) + 8))
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
  (* Dynamically created column names, in first-seen (row) order. *)
  let rev_new = ref [] in
  Array.iter
    (fun id ->
      match usable_name id with
      | Some name when not (mem_att r name || List.mem name !rev_new) ->
          rev_new := name :: !rev_new
      | _ -> ())
    nids;
  let extra = Array.of_list (List.rev !rev_new) in
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

let concat atts chunks =
  let rec increasing = function
    | a :: (b :: _ as rest) ->
        compare_rows (row_of a (a.nrows - 1)) (row_of b 0) < 0
        && increasing rest
    | _ -> true
  in
  match List.filter (fun c -> c.nrows > 0) chunks with
  | [] -> of_rows atts []
  | [ c ] -> c
  | cs when increasing cs ->
      (* Canonical chunks whose boundaries increase are canonical end to
         end: the columns concatenate without building a row. *)
      fresh atts
        (Array.mapi
           (fun j att ->
             fresh_col att (Array.concat (List.map (fun c -> c.cols.(j).ids) cs)))
           atts)
        (List.fold_left (fun n c -> n + c.nrows) 0 cs)
  | cs -> of_rows atts (List.concat_map to_rows cs)

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

(* ------------------------------------------------------------------ *)
(* µ: one kernel for a relation and for a relation held as chunks      *)

type map = { map : 'a 'b. ('a -> 'b) -> 'a list -> 'b list }

let sequential = { map = List.map }

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

let take_idx r idxs =
  let n = Array.length idxs in
  for k = 0 to n - 1 do
    let i = idxs.(k) in
    if i < 0 || i >= r.nrows || (k > 0 && idxs.(k - 1) >= i) then
      invalid_arg "Irel.take_idx: indices must be strictly increasing and in range"
  done;
  (* A strictly-increasing gather of canonical rows is canonical; one of
     every row is the input. *)
  if n = r.nrows then r
  else
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

let sorted_atts t =
  List.sort Intern.compare_strings (Array.to_list t.atts)

let project_rows t atts_order =
  let idx = Array.of_list (List.map (index_of t) atts_order) in
  List.init t.nrows (fun i ->
      Array.map (fun j -> t.cols.(j).ids.(i)) idx)

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

(* Relation.equal: schemas equal as attribute sets, and rows equal (id
   for id) once both sides are projected onto the sorted attribute order.
   Used by the fingerprint-collision fallback in successor dedup, where
   nearly every call confirms a true duplicate in the same column layout:
   that is settled in place, anything else by the sorted projections. *)
let equal a b =
  a == b || same_cells a b
  || a.nrows = b.nrows
     &&
     let sa = sorted_atts a and sb = sorted_atts b in
     List.equal Int.equal sa sb
     &&
     let norm t = List.sort compare_rows (project_rows t sa) in
     List.equal (fun x y -> compare_rows x y = 0) (norm a) (norm b)


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
