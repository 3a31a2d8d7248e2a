(* Two-lane 128-bit multiset fingerprints over database contents.

   Lane construction: every element (cell, attribute, relation name) is
   hashed with FNV-1a 64 and finalized with the splitmix64 mixer; lane b
   re-mixes lane a's element hash xored with an independent salt, so the
   lanes behave as two independent hash functions. Terms are combined with
   Int64 addition, which wraps mod 2^64 and is invertible — the basis for
   O(Δ) incremental maintenance. *)

type t = { a : int64; b : int64 }

let zero = { a = 0L; b = 0L }
let equal x y = Int64.equal x.a y.a && Int64.equal x.b y.b

let compare x y =
  let c = Int64.compare x.a y.a in
  if c <> 0 then c else Int64.compare x.b y.b

let hash x =
  Int64.to_int (Int64.logxor x.a (Int64.shift_right_logical x.b 17))
  land max_int

let to_hex x = Printf.sprintf "%016Lx%016Lx" x.a x.b

let of_hex s =
  if String.length s <> 32 then None
  else
    let is_hex c =
      (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
    in
    if not (String.for_all is_hex s) then None
    else
      (* Int64.of_string on "0x…" parses the full unsigned range. *)
      Some
        {
          a = Int64.of_string ("0x" ^ String.sub s 0 16);
          b = Int64.of_string ("0x" ^ String.sub s 16 16);
        }
let combine x y = { a = Int64.add x.a y.a; b = Int64.add x.b y.b }
let remove x y = { a = Int64.sub x.a y.a; b = Int64.sub x.b y.b }

(* Salts: arbitrary odd 64-bit constants. [lane_salt] separates the two
   lanes; [schema_salt] separates schema terms from row terms so that e.g. a
   relation's schema term cannot cancel against a row term. *)
let lane_salt = 0x9e3779b97f4a7c15L
let schema_salt = 0x2545f4914f6cdd1dL

(* splitmix64 finalizer. *)
let[@inline] mix64 z =
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 30))
      0xbf58476d1ce4e5b9L
  in
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94d049bb133111ebL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

(* The FNV-1a state is folded byte-by-byte, so a hash over several
   components is just the fold continued from the previous component's
   state — no intermediate strings are ever built on the hot path. The
   folds are plain loops over an unboxed accumulator. *)
let[@inline] fnv_byte h b = Int64.mul (Int64.logxor h (Int64.of_int b)) fnv_prime
let[@inline] fnv_char h c = fnv_byte h (Char.code c)

let[@inline] fnv_sub h s off len =
  let h = ref h in
  for i = off to off + len - 1 do
    h := fnv_char !h (String.unsafe_get s i)
  done;
  !h

let fnv_string h s = fnv_sub h s 0 (String.length s)

(* The eight little-endian bytes of [Int64.of_int n]. *)
let[@inline] fnv_int h n =
  let h = ref h in
  for k = 0 to 7 do
    h := fnv_byte !h ((n asr (8 * k)) land 0xff)
  done;
  !h

let fnv1a64 s = fnv_string fnv_offset s

(* Cell payload: a type tag byte followed by a value encoding that induces
   exactly [canonical_key]'s equivalence, which is value identity — ints
   and bools hash their bits (bijective with their printed form), floats
   their lossless printed form, and strings their bytes. *)
let[@inline] value_fnv_printed h v printed =
  match (v : Value.t) with
  | Null -> fnv_char h 'N'
  | Bool b -> fnv_char (fnv_char h 'B') (if b then '\x01' else '\x00')
  | Int n -> fnv_int (fnv_char h 'I') n
  | Float _ -> fnv_sub (fnv_char h 'F') printed 0 (String.length printed)
  | String s -> fnv_sub (fnv_char h 'S') s 0 (String.length s)

let value_fnv h v =
  value_fnv_printed h v (match v with Float _ -> Value.to_string v | _ -> "")

(* [value_fnv h (Value.of_string_guess (String.sub s off len))]: the
   same tags and bytes, without the value. *)
let[@inline] cell_fnv h s off len =
  match Value.guess s off len with
  | G_null -> fnv_char h 'N'
  | G_bool b -> fnv_char (fnv_char h 'B') (if b then '\x01' else '\x00')
  | G_int n -> fnv_int (fnv_char h 'I') n
  | G_float f -> fnv_string (fnv_char h 'F') (Value.to_string (Float f))
  | G_string -> fnv_sub (fnv_char h 'S') s off len

(* Element hash: both lanes from one FNV pass. *)
let[@inline] lanes h =
  let e = mix64 h in
  (e, mix64 (Int64.logxor e lane_salt))

let elem s = lanes (fnv1a64 s)
let rel_elem rel = elem rel

(* Cell encoding binds the value to its attribute name, mirroring
   canonical_key's attribute-tagged cells. The '\x1f' separator follows the
   same reserved-byte convention canonical_key uses for '\x01'..'\x05'. *)
let cell_elem att v = lanes (value_fnv (fnv_char (fnv1a64 att) '\x1f') v)

let of_row ~rel schema row =
  let ra, rb = rel_elem rel in
  let atts = Schema.attributes schema in
  let sa = ref 0L and sb = ref 0L in
  List.iteri
    (fun i att ->
      let ca, cb = cell_elem att (Row.cell row i) in
      sa := Int64.add !sa ca;
      sb := Int64.add !sb cb)
    atts;
  { a = mix64 (Int64.add !sa ra); b = mix64 (Int64.add !sb rb) }

let of_schema ~rel schema =
  let ra, rb = rel_elem rel in
  let sa = ref 0L and sb = ref 0L in
  List.iter
    (fun att ->
      let aa, ab = elem att in
      sa := Int64.add !sa aa;
      sb := Int64.add !sb ab)
    (Schema.attributes schema);
  {
    a = mix64 (Int64.add (Int64.add !sa ra) schema_salt);
    b = mix64 (Int64.add (Int64.add !sb rb) schema_salt);
  }

(* The per-relation bulk path reuses the FNV state of ["att" '\x1f'] for
   every row of a column instead of rehashing the attribute name per cell,
   and walks rows with an index loop — the only allocations left are the
   float printer's. *)
let of_relation ~rel r =
  let schema = Relation.schema r in
  let acc = ref (of_schema ~rel schema) in
  let ra, rb = rel_elem rel in
  let prefixes =
    Array.of_list
      (List.map
         (fun att -> fnv_char (fnv1a64 att) '\x1f')
         (Schema.attributes schema))
  in
  let arity = Array.length prefixes in
  Relation.iter
    (fun row ->
      let sa = ref 0L and sb = ref 0L in
      for i = 0 to arity - 1 do
        let ea = mix64 (value_fnv prefixes.(i) (Row.cell row i)) in
        let eb = mix64 (Int64.logxor ea lane_salt) in
        sa := Int64.add !sa ea;
        sb := Int64.add !sb eb
      done;
      acc :=
        combine !acc
          { a = mix64 (Int64.add !sa ra); b = mix64 (Int64.add !sb rb) })
    r;
  !acc

let of_database db =
  Database.fold (fun name r acc -> combine acc (of_relation ~rel:name r)) db zero

(* --- streamed relation terms, straight from CSV bytes --- *)

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

(* An open-addressing set of 128-bit row terms, kept unboxed: slot [i]
   holds lane a at byte [16 i] and lane b at [16 i + 8]; [used] marks
   the occupied slots. *)
module Termset = struct
  type t = {
    mutable slots : Bytes.t;
    mutable used : Bytes.t;
    mutable count : int;
  }

  let create n =
    { slots = Bytes.create (16 * n); used = Bytes.make n '\000'; count = 0 }

  let rec insert t a b =
    let n = Bytes.length t.used in
    if 2 * (t.count + 1) > n then begin
      let slots = t.slots and used = t.used in
      t.slots <- Bytes.create (32 * n);
      t.used <- Bytes.make (2 * n) '\000';
      t.count <- 0;
      for i = 0 to n - 1 do
        if Bytes.unsafe_get used i <> '\000' then
          ignore (insert t (get64 slots (16 * i)) (get64 slots ((16 * i) + 8)))
      done;
      insert t a b
    end
    else
      let rec probe i =
        if Bytes.unsafe_get t.used i = '\000' then begin
          Bytes.unsafe_set t.used i '\001';
          set64 t.slots (16 * i) a;
          set64 t.slots ((16 * i) + 8) b;
          t.count <- t.count + 1;
          true
        end
        else if
          Int64.equal (get64 t.slots (16 * i)) a
          && Int64.equal (get64 t.slots ((16 * i) + 8)) b
        then false
        else probe ((i + 1) land (n - 1))
      in
      probe (Int64.to_int a land (n - 1))
end

type csv_term = { term : t; schema_term : t }

(* Rows are a set: a row counts once however often it is listed. Two
   cells hash alike exactly when they are one value, so deduplicating by
   term is exact (up to hash collisions). *)
let of_csv ?max_bytes ~rel doc =
  let ra, rb = rel_elem rel in
  (* lanes of the current row's cell sum, then of the distinct rows' sum *)
  let acc = Bytes.make 32 '\000' in
  let prefixes = ref [||] and schema_term = ref zero in
  let rows = Termset.create 32 in
  match
    Csv.iter_relation ?max_bytes doc
      ~on_header:(fun schema ->
        prefixes :=
          Array.of_list
            (List.map
               (fun att -> fnv_char (fnv1a64 att) '\x1f')
               (Schema.attributes schema));
        schema_term := of_schema ~rel schema)
      ~on_cell:(fun i s off len ->
        let prefix = Array.unsafe_get !prefixes i in
        let ea = mix64 (cell_fnv prefix s off len) in
        let eb = mix64 (Int64.logxor ea lane_salt) in
        set64 acc 0 (Int64.add (get64 acc 0) ea);
        set64 acc 8 (Int64.add (get64 acc 8) eb))
      ~on_row:(fun () ->
        let a = mix64 (Int64.add (get64 acc 0) ra) in
        let b = mix64 (Int64.add (get64 acc 8) rb) in
        set64 acc 0 0L;
        set64 acc 8 0L;
        if Termset.insert rows a b then begin
          set64 acc 16 (Int64.add (get64 acc 16) a);
          set64 acc 24 (Int64.add (get64 acc 24) b)
        end)
  with
  | () ->
      {
        term = combine !schema_term { a = get64 acc 16; b = get64 acc 24 };
        schema_term = !schema_term;
      }

(* The interned columnar representation (Intern/Irel) recomputes these
   exact terms over cached per-column lane arrays; it must stay
   bit-identical with the boxed path, so the primitives are shared rather
   than duplicated. *)
module Hashing = struct
  let fnv1a64 = fnv1a64
  let fnv_char = fnv_char
  let value_fnv = value_fnv
  let lanes = lanes

  (* Both lanes of the cell [v] under the attribute prefix [prefix],
     written at [b.[off]] and [b.[off + 8]]: [cell_elem] with the prefix
     and the float's printed form given. The FNV fold and both mixes are
     inlined here, so no int64 is boxed per cell. *)
  let cell_lanes prefix v printed b off =
    let ea = mix64 (value_fnv_printed prefix v printed) in
    set64 b off ea;
    set64 b (off + 8) (mix64 (Int64.logxor ea lane_salt))

  (* [of_schema] plus [of_row] of every row, from the rows' cell lanes:
     [cols.(j)] holds column [j]'s lanes as [cell_lanes] writes them, row
     [i] at byte [16 i]. The row loop keeps its sums unboxed. *)
  let of_lanes ~rel:(ra, rb) ~schema:(sa, sb) cols nrows =
    let acc_a = ref (mix64 (Int64.add (Int64.add sa ra) schema_salt))
    and acc_b = ref (mix64 (Int64.add (Int64.add sb rb) schema_salt)) in
    for i = 0 to nrows - 1 do
      let sa = ref 0L and sb = ref 0L in
      for j = 0 to Array.length cols - 1 do
        let l = Array.unsafe_get cols j in
        sa := Int64.add !sa (get64 l (16 * i));
        sb := Int64.add !sb (get64 l ((16 * i) + 8))
      done;
      acc_a := Int64.add !acc_a (mix64 (Int64.add !sa ra));
      acc_b := Int64.add !acc_b (mix64 (Int64.add !sb rb))
    done;
    { a = !acc_a; b = !acc_b }
end
