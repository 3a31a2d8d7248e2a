(* µ as it was computed before the columnar kernel, kept as a test
   oracle: the sequential [Irel.merge] grouped rows in a Hashtbl of
   row-index lists, and the chunked executor tallied keys per chunk,
   split kept from contested rows, regrouped the contested rows in a
   Hashtbl and ran the greedy pairwise fixpoint on every group.

   [chunked ~order:`Hash] emits the merged groups in that Hashtbl's
   iteration order, as the old executor did; [~order:`First_seen] emits
   them in the order their key is first seen, and is otherwise the same
   code; the two differ only in chunk layout. *)

open Relational

let null_id = Intern.null_value_id

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

let att_index r att =
  let atts = Irel.atts r in
  let rec go j = if atts.(j) = att then j else go (j + 1) in
  go 0

let merge_column r ai =
  let kids = Irel.col_ids r ai in
  let changed = ref false in
  let merge_group rows = merge_group ~changed rows in
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
  let merged = Hashtbl.create 8 in
  List.iter
    (fun key ->
      match !(Hashtbl.find groups key) with
      | [] | [ _ ] -> ()
      | idxs ->
          Hashtbl.add merged key (merge_group (List.map (Irel.row_of r) idxs)))
    (List.rev !order);
  if not !changed then r
  else
    let rows' =
      List.concat_map
        (fun key ->
          match Hashtbl.find_opt merged key with
          | Some rows -> rows
          | None -> List.map (Irel.row_of r) !(Hashtbl.find groups key))
        (List.rev !order)
    in
    Irel.of_rows (Irel.atts r) rows'

let merge r att =
  if Irel.mu_identity r then r else merge_column r (att_index r att)

let chunk_list n xs =
  let rec take k acc rest =
    if k = 0 then (List.rev acc, rest)
    else
      match rest with
      | [] -> (List.rev acc, [])
      | x :: tl -> take (k - 1) (x :: acc) tl
  in
  let rec go xs =
    match xs with
    | [] -> []
    | _ ->
        let batch, rest = take n [] xs in
        batch :: go rest
  in
  go xs

(* The chunks the old executor produced for µ on [att] over [chunks]
   (non-empty, with the same attributes). *)
let chunked ~order ~chunk_rows chunks att =
  let catts = Irel.atts (List.hd chunks) in
  let ki = att_index (List.hd chunks) att in
  let tallies =
    List.map
      (fun c ->
        let t = Hashtbl.create 256 in
        Array.iter
          (fun kid ->
            let key = Intern.value_str_id kid in
            match Hashtbl.find_opt t key with
            | Some n -> Hashtbl.replace t key (n + 1)
            | None -> Hashtbl.add t key 1)
          (Irel.col_ids c ki);
        t)
      chunks
  in
  let counts = Hashtbl.create 16 in
  List.iter
    (fun t ->
      Hashtbl.iter
        (fun k n ->
          match Hashtbl.find_opt counts k with
          | Some m -> Hashtbl.replace counts k (m + n)
          | None -> Hashtbl.add counts k n)
        t)
    tallies;
  let contested k =
    match Hashtbl.find_opt counts k with Some n -> n > 1 | None -> false
  in
  if not (Hashtbl.fold (fun _ n acc -> acc || n > 1) counts false) then chunks
  else begin
    let splits =
      List.map
        (fun c ->
          let keys = Array.map Intern.value_str_id (Irel.col_ids c ki) in
          let flags = Array.map contested keys in
          let kept = Irel.filter_idx c (fun i -> not flags.(i)) in
          let rows = ref [] in
          Array.iteri
            (fun i f -> if f then rows := (keys.(i), Irel.row_of c i) :: !rows)
            flags;
          (kept, !rows))
        chunks
    in
    let groups : (int, int array list ref) Hashtbl.t = Hashtbl.create 1024 in
    List.iter
      (fun (_, rows) ->
        List.iter
          (fun (key, row) ->
            match Hashtbl.find_opt groups key with
            | Some l -> l := row :: !l
            | None -> Hashtbl.add groups key (ref [ row ]))
          rows)
      splits;
    let glist =
      match order with
      | `Hash -> Hashtbl.fold (fun _ l acc -> !l :: acc) groups []
      | `First_seen ->
          let seen = Hashtbl.create 16 in
          List.concat_map
            (fun c ->
              Array.to_list (Irel.col_ids c ki)
              |> List.filter_map (fun kid ->
                     let key = Intern.value_str_id kid in
                     if contested key && not (Hashtbl.mem seen key) then begin
                       Hashtbl.add seen key ();
                       Some !(Hashtbl.find groups key)
                     end
                     else None))
            chunks
    in
    let merged =
      List.concat_map
        (fun rows ->
          match List.sort_uniq Irel.compare_rows rows with
          | [ row ] -> [ row ]
          | sorted -> merge_rows (List.rev sorted))
        glist
    in
    let merged_chunks =
      List.map (Irel.of_rows catts) (chunk_list chunk_rows merged)
    in
    List.filter
      (fun c -> Irel.cardinality c > 0)
      (List.map fst splits @ merged_chunks)
  end

(* Cdb.to_idb of one relation's chunks. *)
let coalesce atts = function
  | [] -> Irel.of_rows atts []
  | [ c ] -> c
  | cs -> Irel.of_rows atts (List.concat_map Irel.to_rows cs)

(* Same attributes and the same rows, id for id. *)
let same_ids a b = Irel.atts a = Irel.atts b && Irel.to_rows a = Irel.to_rows b

(* Chunked µ through the executor: the chunks bound as C0, C1, ...,
   joined by ∪ (which concatenates chunk lists, so each Ci stays one
   chunk and rows may repeat across chunks), then merge[att], then
   to_idb. Each chunk must have at most [chunk_rows] rows. *)
let migrate ~chunk_rows ~jobs chunks att =
  let names = List.mapi (fun i _ -> Printf.sprintf "C%d" i) chunks in
  let idb =
    List.fold_left2
      (fun idb n c -> Idb.add idb (Intern.string_id n) c)
      Idb.empty names chunks
  in
  let program =
    Fira.Expr.of_ops
      (List.map
         (fun n -> Fira.Op.Union { left = "C0"; right = n; out = "C0" })
         (List.tl names)
      @ [ Fira.Op.Merge { rel = "C0"; col = Intern.string_of_id att } ])
  in
  let out, _ =
    Migrate.run_idb (Migrate.config ~chunk_rows ~jobs ()) program idb
  in
  Idb.find out (Intern.string_id "C0")
