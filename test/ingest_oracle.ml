(* CSV ingest as it was before the columnar one, kept as a test oracle:
   rows came from Csv.fold_channel as string lists, each cell was copied,
   guessed and interned, and each full chunk was a list of row arrays
   canonicalized by Irel.of_rows. The columnar ingest must give the same
   chunks id for id, and fail with the same exception and message. *)

open Relational

let error fmt = Format.kasprintf (fun s -> raise (Migrate.Error s)) fmt

(* [ingest ~chunk_rows ~name ic]: the attribute ids and the chunks the
   former ingest bound to [name] (a lone empty chunk for a rowless
   relation). *)
let ingest ~chunk_rows ~name ic =
  let atts = ref [||] in
  let width = ref 0 in
  let have_header = ref false in
  let pending = ref [] in
  let npending = ref 0 in
  let chunks = ref [] in
  let flush () =
    if !npending > 0 then begin
      chunks := Irel.of_rows !atts (List.rev !pending) :: !chunks;
      pending := [];
      npending := 0
    end
  in
  Csv.fold_channel
    (fun () fields ->
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
            fields
        in
        atts := Array.of_list ids;
        width := Array.length !atts;
        have_header := true
      end
      else begin
        let row = Array.make !width Intern.null_value_id in
        List.iteri
          (fun i s ->
            if i < !width then
              row.(i) <- Intern.value_id (Value.of_string_guess s))
          fields;
        pending := row :: !pending;
        incr npending;
        if !npending >= chunk_rows then flush ()
      end)
    () ic;
  flush ();
  if not !have_header then error "migrate: relation %S: empty document" name;
  match List.rev !chunks with
  | [] -> (!atts, [ Irel.of_rows !atts [] ])
  | cs -> (!atts, cs)

(* Same attributes and chunk count, and per chunk the same attributes,
   cardinality and column arrays. *)
let same_chunks (atts, cs) (atts', cs') =
  atts = atts'
  && List.length cs = List.length cs'
  && List.for_all2
       (fun c c' ->
         Irel.atts c = Irel.atts c'
         && Irel.cardinality c = Irel.cardinality c'
         && List.for_all
              (fun j -> Irel.col_ids c j = Irel.col_ids c' j)
              (List.init (Irel.arity c) Fun.id))
       cs cs'
