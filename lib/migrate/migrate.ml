(* Bulk migration: chunked, multi-domain execution of ℒ programs.

   A relation is a list of bounded-size columnar chunks (Irel.t), each
   internally canonical (sorted, deduplicated rows) but with duplicates
   permitted ACROSS chunks — global set semantics are restored once, at
   Cdb.to_idb. That one relaxation is what makes the operator plans
   embarrassingly parallel: per-row operators (ρ ↓ → λ π̄ σ) map over
   chunks independently, and only the genuinely global operators pay a
   merge step. Every operator that is not per-row runs the Irel kernel
   the sequential Fira.Eval runs, over the chunk list:

   - ↑ (promote): Irel.promote_chunks. A global pass unions the usable
     new column names in first-seen order across chunks, then every
     chunk is written against that combined schema, copy-on-write — a
     chunk that never sees name "x" still gains the all-null column "x".
   - µ (merge): Irel.merge_chunks, the kernel the sequential Irel.merge
     runs too. Rows are grouped across chunks by the key cell's printed
     form (the boxed Relation.merge group key). A repeated key's rows
     fold column by column into one lub row, which is exactly where the
     greedy fixpoint ends when each column holds at most one non-null
     id; only a group with a conflicting column is deduplicated into
     canonical order and fed REVERSED to the fixpoint itself — µ's
     fixpoint is order-dependent, so replicating the boxed feeding order
     is what keeps chunked ≡ sequential. Unique-key rows stay in their
     chunks; if no key repeats the chunks are shared as they are.
   - ℘ (partition): per-chunk partitions are regrouped by key value id;
     a key's chunk-groups simply become the chunks of the output
     relation.
   - − (diff): Irel.diff_chunks. The right side's rows are indexed on
     their ids once, before the pool map; left chunks filter against the
     index, in parallel.
   - ∪ (union): chunk-list concatenation, right chunks aligned to the
     left column order (Irel.align); Cdb.to_idb's Irel.concat then does
     what Irel.union does after its alignment.
   - ⋈ (join, never emitted by discovery): coalesce and run Irel.join.
   - σ (select): Irel.select_chunks compiles the predicate once.

   Ingest is columnar too: the CSV tokenizer's field slices go straight
   into the current chunk's id columns, through a cell → id memo that
   lives for one ingest, and each full chunk is canonicalized by
   Irel.of_cols. A cell the memo misses is guessed and interned there
   and then, in row-major order, so value ids are issued as they would
   be without the memo. *)

open Relational
module Op = Fira.Op
module Semfun = Fira.Semfun
module Pool = Search.Pool

exception Error of string
exception Cancelled

let error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

let att_index atts att =
  let n = Array.length atts in
  let rec go j =
    if j >= n then invalid_arg "Migrate: missing attribute"
    else if atts.(j) = att then j
    else go (j + 1)
  in
  go 0

module Cdb = struct
  type crel = { catts : int array; cchunks : Irel.t list }
  (* Invariants: [cchunks] is non-empty; every chunk's attribute array is
     content-equal to [catts]; all chunks but a lone empty one carry rows. *)

  type t = (int * crel) list (* name-sorted, mirroring Idb's binding order *)

  let empty = []
  let names t = List.map fst t
  let mem t name = List.mem_assoc name t
  let find_opt t name = List.assoc_opt name t
  let chunks t name = (List.assoc name t).cchunks
  let crel_rows r = List.fold_left (fun n c -> n + Irel.cardinality c) 0 r.cchunks
  let rows t = List.fold_left (fun n (_, r) -> n + crel_rows r) 0 t

  let cells t =
    List.fold_left (fun n (_, r) -> n + (crel_rows r * Array.length r.catts)) 0 t

  let chunk_count t =
    List.fold_left (fun n (_, r) -> n + List.length r.cchunks) 0 t

  let rec add t name r =
    match t with
    | [] -> [ (name, r) ]
    | (n, r0) :: rest ->
        let c = Intern.compare_strings name n in
        if c < 0 then (name, r) :: t
        else if c = 0 then (name, r) :: rest
        else (n, r0) :: add rest name r

  let remove t name = List.filter (fun (n, _) -> n <> name) t

  let split_chunk ~chunk_rows c =
    let n = Irel.cardinality c in
    if n <= chunk_rows then [ c ]
    else
      List.init
        ((n + chunk_rows - 1) / chunk_rows)
        (fun k ->
          let off = k * chunk_rows in
          Irel.slice c ~off ~len:(min chunk_rows (n - off)))

  (* Drop empty chunks; a rowless relation keeps exactly one empty chunk
     so its schema stays represented. *)
  let crel catts cchunks =
    match List.filter (fun c -> Irel.cardinality c > 0) cchunks with
    | [] -> { catts; cchunks = [ Irel.of_rows catts [] ] }
    | cchunks -> { catts; cchunks }

  let of_idb ~chunk_rows idb =
    if chunk_rows < 1 then invalid_arg "Migrate: chunk_rows must be >= 1";
    Idb.fold
      (fun name r acc -> add acc name (crel (Irel.atts r) (split_chunk ~chunk_rows r)))
      idb empty

  let of_database ~chunk_rows db = of_idb ~chunk_rows (Idb.of_database db)

  let coalesce r = Irel.concat r.catts r.cchunks

  let to_idb t =
    List.fold_left (fun idb (name, r) -> Idb.add idb name (coalesce r)) Idb.empty t

  let to_database t = Idb.to_database (to_idb t)
end

type config = {
  chunk_rows : int;
  jobs : int;
  semantics : [ `Full | `Syntactic ];
  telemetry : Telemetry.t;
  stop : unit -> bool;
}

let config ?(chunk_rows = 65536) ?jobs ?(semantics = `Full)
    ?(telemetry = Telemetry.disabled) ?(stop = fun () -> false) () =
  let jobs = match jobs with Some j -> j | None -> Pool.default_domains () in
  if chunk_rows < 1 then invalid_arg "Migrate.config: chunk_rows must be >= 1";
  if jobs < 1 then invalid_arg "Migrate.config: jobs must be >= 1";
  { chunk_rows; jobs; semantics; telemetry; stop }

module Chunked_check = Fira.Applicability.Make (struct
  type db = Cdb.t
  type rel = Cdb.crel
  type name = int

  let name = Intern.string_id
  let string_of_name = Intern.string_of_id
  let find_opt = Cdb.find_opt
  let mem = Cdb.mem
  let mem_att r a = Array.mem a r.Cdb.catts
  let arity r = Array.length r.Cdb.catts
  let atts r = r.Cdb.catts

  let group_names r col =
    List.concat_map (fun c -> Irel.partition_keys c col) r.Cdb.cchunks
    |> List.sort_uniq Intern.compare_values
    |> List.map Intern.value_str_id
end)

let cexplain_inapplicable = Chunked_check.explain_inapplicable

let apply_op cfg registry pool op cdb =
  (match cexplain_inapplicable registry op cdb with
  | Some reason -> error "migrate: %s inapplicable: %s" (Op.to_string op) reason
  | None -> ());
  let chunk_rows = cfg.chunk_rows in
  let id = Intern.string_id in
  let pmap f xs = Pool.map_list pool f xs in
  let find name = List.assoc (id name) cdb in
  let replace name r' = Cdb.add cdb (id name) r' in
  let map = { Irel.map = pmap } in
  let rechunk catts chunks =
    Cdb.crel catts (List.concat_map (Cdb.split_chunk ~chunk_rows) chunks)
  in
  (* A chunk-list kernel on one relation, schema from the first result
     chunk (chunk lists are never empty). *)
  let chunked name f =
    let chunks = f (find name).Cdb.cchunks in
    replace name (rechunk (Irel.atts (List.hd chunks)) chunks)
  in
  (* Per-chunk operator: map chunks in parallel. *)
  let mapped name f = chunked name (pmap f) in
  match op with
  | Op.Promote { rel; name_col; value_col } ->
      (* Irel.promote's kernel: every chunk gains the same fresh columns,
         and an overwrite copies only the columns it writes. *)
      let name_col = id name_col and value_col = id value_col in
      chunked rel (fun chunks ->
          Irel.promote_chunks map chunks ~name_col ~value_col)
  | Op.Demote { rel; att_att; rel_att } ->
      let rel_name = id rel and att_att = id att_att and rel_att = id rel_att in
      mapped rel (fun c -> Irel.demote c ~rel_name ~att_att ~rel_att)
  | Op.Dereference { rel; target; pointer_col } ->
      let target = id target and pointer_col = id pointer_col in
      mapped rel (fun c -> Irel.dereference c ~target ~pointer_col)
  | Op.Drop { rel; col } ->
      let col = id col in
      mapped rel (fun c -> Irel.project_away c col)
  | Op.RenameAtt { rel; old_name; new_name } ->
      let old_name = id old_name and new_name = id new_name in
      mapped rel (fun c -> Irel.rename_att c ~old_name ~new_name)
  | Op.RenameRel { old_name; new_name } ->
      let r = find old_name in
      Cdb.add (Cdb.remove cdb (id old_name)) (id new_name) r
  | Op.Merge { rel; col } ->
      (* One µ kernel with the sequential path (Irel.merge): keys are
         grouped across chunks, a repeated key folds into its lub row,
         and only a conflicting group runs the greedy fixpoint. *)
      let col = id col in
      chunked rel (fun chunks -> Irel.merge_chunks map ~chunk_rows chunks col)
  | Op.Partition { rel; col } ->
      (* Each chunk's groups, regrouped by key in chunk order; a key's
         chunk-groups become the chunks of its output relation. Keys are
         added in Value.compare order, as the sequential evaluators do. *)
      let r = find rel in
      let parts = pmap (fun c -> Irel.partition c (id col)) r.Cdb.cchunks in
      let groups = Hashtbl.create 16 in
      List.iter
        (List.iter (fun (v, g) ->
             let gs = Option.value ~default:[] (Hashtbl.find_opt groups v) in
             Hashtbl.replace groups v (g :: gs)))
        (List.rev parts);
      List.fold_left
        (fun cdb v ->
          Cdb.add cdb (Intern.value_str_id v)
            (Cdb.crel r.Cdb.catts (Hashtbl.find groups v)))
        (Cdb.remove cdb (id rel))
        (List.sort_uniq Intern.compare_values
           (List.concat_map (List.map fst) parts))
  | Op.Product { left; right; out } ->
      let l = find left and rt = find right in
      let catts' = Array.append l.Cdb.catts rt.Cdb.catts in
      let pairs =
        List.concat_map
          (fun ca -> List.map (fun cb -> (ca, cb)) rt.Cdb.cchunks)
          l.Cdb.cchunks
      in
      let chunks = pmap (fun (a, b) -> Irel.product a b) pairs in
      replace out (rechunk catts' chunks)
  | Op.Union { left; right; out } ->
      (* Irel.union's path: the right chunks aligned to the left's
         attribute order; Cdb.to_idb's Irel.concat finishes it. *)
      let l = find left and rt = find right in
      replace out
        (Cdb.crel l.Cdb.catts
           (l.Cdb.cchunks @ pmap (Irel.align l.Cdb.catts) rt.Cdb.cchunks))
  | Op.Diff { left; right; out } ->
      let l = find left in
      replace out
        (Cdb.crel l.Cdb.catts
           (Irel.diff_chunks map l.Cdb.cchunks (Cdb.coalesce (find right))))
  | Op.Join { left; right; out } ->
      let j = Irel.join (Cdb.coalesce (find left)) (Cdb.coalesce (find right)) in
      replace out (rechunk (Irel.atts j) [ j ])
  | Op.Select { rel; pred } ->
      chunked rel (fun chunks -> Irel.select_chunks map chunks pred)
  | Op.Apply { rel; func; inputs; output } ->
      let f = Semfun.find_exn registry func in
      let r = find rel in
      let input_idxs = List.map (fun a -> att_index r.Cdb.catts (id a)) inputs in
      let out_id = id output in
      let eval_one ins =
        match cfg.semantics with
        | `Full -> Semfun.apply f ins
        | `Syntactic -> (
            match Semfun.apply_example f ins with Some v -> v | None -> Value.Null)
      in
      mapped rel (fun c ->
          Irel.extend c out_id (fun row ->
              Intern.value_id
                (eval_one
                   (List.map (fun i -> Intern.value_of_id row.(i)) input_idxs))))

type stats = {
  rows_in : int;
  rows_out : int;
  row_visits : int;
  chunks_in : int;
  chunks_out : int;
  ops : int;
  elapsed_s : float;
}

let op_input_sizes cdb op =
  let one name =
    match Cdb.find_opt cdb (Intern.string_id name) with
    | None -> (0, 0)
    | Some r -> (Cdb.crel_rows r, List.length r.Cdb.cchunks)
  in
  match op with
  | Op.Product { left; right; _ }
  | Op.Union { left; right; _ }
  | Op.Diff { left; right; _ }
  | Op.Join { left; right; _ } ->
      let ra, ca = one left and rb, cb = one right in
      (ra + rb, ca + cb)
  | op -> ( match Op.rel_of op with Some rel -> one rel | None -> (0, 0))

let run ?(registry = Semfun.empty_registry) cfg expr cdb =
  let t0 = Unix.gettimeofday () in
  let tel = cfg.telemetry in
  let rows_in = Cdb.rows cdb and chunks_in = Cdb.chunk_count cdb in
  let row_visits = ref 0 and nops = ref 0 in
  let out =
    Telemetry.span tel "migrate" (fun () ->
        Pool.with_pool ~telemetry:tel ~domains:cfg.jobs (fun pool ->
            List.fold_left
              (fun cdb op ->
                if cfg.stop () then raise Cancelled;
                let in_rows, in_chunks = op_input_sizes cdb op in
                Telemetry.count tel "migrate.rows" in_rows;
                Telemetry.count tel "migrate.chunk" in_chunks;
                row_visits := !row_visits + in_rows;
                incr nops;
                Telemetry.timed tel
                  ("migrate.op." ^ Op.kind_name op)
                  (fun () -> apply_op cfg registry pool op cdb))
              cdb (Fira.Expr.ops expr)))
  in
  ( out,
    {
      rows_in;
      rows_out = Cdb.rows out;
      row_visits = !row_visits;
      chunks_in;
      chunks_out = Cdb.chunk_count out;
      ops = !nops;
      elapsed_s = Unix.gettimeofday () -. t0;
    } )

let run_idb ?registry cfg expr idb =
  let t0 = Unix.gettimeofday () in
  let cdb = Cdb.of_idb ~chunk_rows:cfg.chunk_rows idb in
  let out, stats = run ?registry cfg expr cdb in
  let idb' = Cdb.to_idb out in
  (idb', { stats with elapsed_s = Unix.gettimeofday () -. t0 })

(* ------------------------------------------------------------------ *)
(* Streaming CSV                                                       *)

(* Cell bytes → value id, for one ingest: an open-addressing table of
   [tag lsl 31 lor id] slots (-1 empty), kept at most half full, where the
   tag is 31 bits of the bytes' hash. It holds no key strings: a slot
   matches only when the bytes equal the id's printed form, and a cell is
   entered only when its bytes are that printed form ("950", "abc"; not
   "007", "1e3" or "NULL"), so a hit is the id the cell guesses to. *)
type cell_memo = { mutable slots : int array; mutable used : int }

let rec cell_hash s i stop h =
  if i >= stop then h lsr 32 land 0x7FFF_FFFF
  else
    cell_hash s (i + 1) stop
      ((h lxor Char.code (String.unsafe_get s i)) * 0x100000001b3)

let cell_slot slots tag =
  (tag * 0x9E3779B97F4A7C1) lsr 17 land (Array.length slots - 1)

let rec same_bytes s off len p i =
  i >= len
  || String.unsafe_get s (off + i) = String.unsafe_get p i
     && same_bytes s off len p (i + 1)

let printed_is s off len id =
  let p = Intern.string_of_id (Intern.value_str_id id) in
  String.length p = len && same_bytes s off len p 0

let rec cell_probe m s off len tag i =
  let x = Array.unsafe_get m.slots i in
  if x < 0 then -1
  else if x lsr 31 = tag && printed_is s off len (x land 0x7FFF_FFFF) then
    x land 0x7FFF_FFFF
  else cell_probe m s off len tag ((i + 1) land (Array.length m.slots - 1))

let rec place slots x i =
  if slots.(i) < 0 then slots.(i) <- x
  else place slots x ((i + 1) land (Array.length slots - 1))

let cell_place slots x = place slots x (cell_slot slots (x lsr 31))

(* A miss guesses and interns exactly as Csv.parse_relation's cells do,
   so ids are issued in the same order as without the memo. *)
let cell_id m s off len =
  if len = 0 then Intern.null_value_id
  else
    let tag = cell_hash s off (off + len) 0x811c9dc5 in
    let id = cell_probe m s off len tag (cell_slot m.slots tag) in
    if id >= 0 then id
    else begin
      let id = Intern.value_id (Value.of_string_guess (String.sub s off len)) in
      if printed_is s off len id then begin
        if 2 * (m.used + 1) > Array.length m.slots then begin
          let bigger = Array.make (2 * Array.length m.slots) (-1) in
          Array.iter (fun x -> if x >= 0 then cell_place bigger x) m.slots;
          m.slots <- bigger
        end;
        cell_place m.slots ((tag lsl 31) lor id);
        m.used <- m.used + 1
      end;
      id
    end

let ingest_channel cfg cdb ~name ic =
  if Cdb.mem cdb (Intern.string_id name) then
    error "migrate: relation %S: duplicate relation name" name;
  let tel = cfg.telemetry in
  let memo = { slots = Array.make 1024 (-1); used = 0 } in
  let header = ref [] and atts = ref [||] and have_header = ref false in
  (* The current chunk: [n] rows written into [cols], which hold [cap]
     rows and double up to chunk_rows; [col] is the next field's column.
     Every cell starts null, so a short row is already padded. *)
  let cols = ref [||] and cap = ref 0 and n = ref 0 and col = ref 0 in
  let chunks = ref [] in
  let flush () =
    if !n > 0 then begin
      if cfg.stop () then raise Cancelled;
      Telemetry.count tel "migrate.ingest.rows" !n;
      chunks := Irel.of_cols !atts !cols !n :: !chunks;
      n := 0
    end
  in
  (* Room for row [n]; a new chunk gets fresh columns, as a chunk may
     share them. *)
  let room () =
    if !n = 0 then begin
      if !cap = 0 then cap := min cfg.chunk_rows 256;
      cols := Array.map (fun _ -> Array.make !cap Intern.null_value_id) !atts
    end
    else if !n = !cap then begin
      cap := min cfg.chunk_rows (2 * !cap);
      cols :=
        Array.map
          (fun c ->
            let c' = Array.make !cap Intern.null_value_id in
            Array.blit c 0 c' 0 !n;
            c')
          !cols
    end
  in
  let on_field s off len =
    if not !have_header then header := String.sub s off len :: !header
    else begin
      let j = !col in
      if j = 0 then room ();
      (* A long row's extra cells are dropped, as Csv.parse_relation
         drops them. *)
      if j < Array.length !atts then
        Array.unsafe_set (Array.unsafe_get !cols j) !n (cell_id memo s off len);
      col := j + 1
    end
  in
  let on_row_end () =
    if not !have_header then begin
      let seen = Hashtbl.create 16 in
      let ids =
        List.map
          (fun a ->
            if a = "" then
              error "migrate: relation %S: empty attribute name" name;
            let s = Intern.string_id a in
            if Hashtbl.mem seen s then
              error "migrate: relation %S: duplicate attribute %S" name a;
            Hashtbl.add seen s ();
            s)
          (List.rev !header)
      in
      atts := Array.of_list ids;
      have_header := true
    end
    else begin
      col := 0;
      incr n;
      if !n >= cfg.chunk_rows then flush ()
    end
  in
  let st = Csv.Stream.create_fields ~on_field ~on_row_end () in
  let buf = Bytes.create 65536 in
  let rec loop () =
    let k = input ic buf 0 (Bytes.length buf) in
    if k > 0 then begin
      Csv.Stream.feed st (Bytes.unsafe_to_string buf) ~len:k;
      loop ()
    end
  in
  loop ();
  Csv.Stream.finish st;
  flush ();
  if not !have_header then error "migrate: relation %S: empty document" name;
  Cdb.add cdb (Intern.string_id name) (Cdb.crel !atts (List.rev !chunks))

let emit_channel cfg oc r =
  let buf = Buffer.create 65536 in
  let atts = Irel.atts r in
  let arity = Array.length atts in
  Csv.add_row buf (List.map Intern.string_of_id (Array.to_list atts));
  let cols = Array.init arity (Irel.col_ids r) in
  let n = Irel.cardinality r in
  for i = 0 to n - 1 do
    Csv.add_row buf
      (List.init arity (fun j ->
           Intern.string_of_id (Intern.value_str_id cols.(j).(i))));
    if Buffer.length buf >= 61440 then begin
      Buffer.output_buffer oc buf;
      Buffer.clear buf
    end
  done;
  Buffer.output_buffer oc buf;
  Telemetry.count cfg.telemetry "migrate.emit.rows" n
