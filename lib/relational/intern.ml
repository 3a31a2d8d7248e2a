(* Global hash-consing pools for strings and values.

   The search hot path (Irel/Idb, Moves, Heuristics) works over dense int
   ids instead of boxed strings and values: id equality is string (resp.
   [Value.equal]) equality, and every per-string derived quantity the
   fingerprint needs — the attribute cell prefix, the element lanes — is
   computed once at interning time and then read with plain array loads.

   Domain safety. Inserts take a global mutex; lookups, by id or by key,
   take none. A pool is an entry array plus an open-addressing index, a
   power-of-two [int array] of ids (-1 = empty) probed linearly and kept
   at most half full. Both sit in [Atomic]s and grow by copy, the bigger
   array fully written before the swap, so a reader holding an issued id
   finds its entry. Ids reach other domains only through synchronized
   channels (the search work queues) or caches derived from visible ids,
   so entry reads by id are ordered after the interning writes.

   A key lookup races with inserts. An insert writes the entry, then its
   slot, and a slot only goes from -1 to an id, but a racy slot read
   orders nothing: it may see a stale -1, or an id whose entry it cannot
   see yet. The probe accepts an id only if it is in range of the entry
   array it loaded, its entry is not the dummy (by physical identity: the
   dummy's key "" would match ""), and the entry holds the key. Anything
   else is a miss, and a miss probes again under the mutex. A race can
   cost a lock, never a wrong id.

   The pools are process-global and append-only: they grow for the life of
   the process (see DESIGN.md, "Interned hot path" — a deliberate trade-off
   for the long-running discovery server, where the value universe is the
   union of all admitted instances). *)

type str_entry = {
  str : string;
  prefix : int64;  (* FNV state of [str '\x1f'] — the cell hash prefix *)
  ea : int64;
  eb : int64;  (* Fingerprint element lanes of [str] *)
  mutable as_value : int;
      (* id of [Value.String str], -1 until interned; benign-race cache *)
}

type val_entry = {
  value : Value.t;
  vstr : int;  (* string id of [Value.to_string value] *)
  null : bool;
}

let mutex = Mutex.create ()

let dummy_str =
  {
    str = "";
    prefix = 0L;
    ea = 0L;
    eb = 0L;
    as_value = -1;
  }

let dummy_val = { value = Value.Null; vstr = 0; null = true }

(* One pool: an entry per id, ids dense in first-intern order, and the
   open-addressing key index over them. Inserts hold [mutex]. *)
module Pool (K : sig
  type key
  type entry

  val dummy : entry
  val key : entry -> key
  val equal : key -> key -> bool
  val hash : key -> int
end) =
struct
  let entries = Atomic.make (Array.make 4096 K.dummy)
  let index = Atomic.make (Array.make 8192 (-1))
  let len = ref 0

  (* Id of [k] probing [idx] from slot [i], or -1: a miss, or a slot
     whose entry this domain cannot see yet. Top-level and closure-free,
     so a hit allocates nothing. *)
  let rec probe entries idx k i =
    let id = Array.unsafe_get idx i in
    if id < 0 || id >= Array.length entries then -1
    else
      let e = Array.unsafe_get entries id in
      if e == K.dummy then -1
      else if K.equal k (K.key e) then id
      else probe entries idx k ((i + 1) land (Array.length idx - 1))

  let slot idx k = K.hash k land (Array.length idx - 1)

  let find k =
    let idx = Atomic.get index in
    probe (Atomic.get entries) idx k (slot idx k)

  let rec place idx i id =
    if Array.unsafe_get idx i < 0 then Array.unsafe_set idx i id
    else place idx ((i + 1) land (Array.length idx - 1)) id

  (* The entry is written before its slot; a full index is rebuilt at
     twice the size and swapped in whole. *)
  let add_locked e =
    let id = !len in
    let arr = Atomic.get entries in
    let arr =
      if id < Array.length arr then arr
      else begin
        let bigger = Array.make (2 * Array.length arr) K.dummy in
        Array.blit arr 0 bigger 0 id;
        Atomic.set entries bigger;
        bigger
      end
    in
    arr.(id) <- e;
    len := id + 1;
    let idx = Atomic.get index in
    if 2 * (id + 1) <= Array.length idx then place idx (slot idx (K.key e)) id
    else begin
      let bigger = Array.make (2 * Array.length idx) (-1) in
      for j = 0 to id do
        place bigger (slot bigger (K.key arr.(j))) j
      done;
      Atomic.set index bigger
    end;
    id

  let intern_locked make k =
    let id = find k in
    if id >= 0 then id else add_locked (make k)

  (* The lock-free probe first; a miss re-probes under the mutex. *)
  let intern make k =
    let id = find k in
    if id >= 0 then id
    else begin
      Mutex.lock mutex;
      let id = intern_locked make k in
      Mutex.unlock mutex;
      id
    end
end

module Strings = Pool (struct
  type key = string
  type entry = str_entry

  let dummy = dummy_str
  let key e = e.str
  let equal = String.equal
  let hash (s : string) = Hashtbl.hash s
end)

(* One id per value: id equality is [Value.equal], which is also
   [Value.compare] = 0 and printed-form equality. *)
module Values = Pool (struct
  type key = Value.t
  type entry = val_entry

  let dummy = dummy_val
  let key e = e.value
  let equal = Value.equal
  let hash = Value.hash
end)

let new_str_entry s =
  let fnv = Fingerprint.Hashing.fnv1a64 s in
  let prefix = Fingerprint.Hashing.fnv_char fnv '\x1f' in
  let ea, eb = Fingerprint.Hashing.lanes fnv in
  { str = s; prefix; ea; eb; as_value = -1 }

let new_val_entry v =
  {
    value = v;
    vstr = Strings.intern_locked new_str_entry (Value.to_string v);
    null = Value.is_null v;
  }

let string_id s = Strings.intern new_str_entry s
let value_id v = Values.intern new_val_entry v
let str_entry id = (Atomic.get Strings.entries).(id)
let val_entry id = (Atomic.get Values.entries).(id)
let string_of_id id = (str_entry id).str

let string_lanes id =
  let e = str_entry id in
  (e.ea, e.eb)

let string_value_id id =
  let e = str_entry id in
  let v = e.as_value in
  if v >= 0 then v
  else begin
    let v = value_id (Value.String e.str) in
    (* Benign race: concurrent writers store the same id. *)
    e.as_value <- v;
    v
  end

let value_of_id id = (val_entry id).value
let value_str_id id = (val_entry id).vstr
let value_is_null id = (val_entry id).null

(* Pre-interned constants. [empty_string_id] backs the [usable_column_name]
   test (only [String ""] renders as the empty string); [null_value_id] is
   the fill cell of ↑ and →. *)
let empty_string_id = string_id ""
let null_value_id = value_id Value.Null

(* Both fingerprint lanes of the cell [v_id] under attribute [att_id],
   written at [b.[off]] and [b.[off + 8]]. Nothing is memoized here: the
   caller caches lanes per column ([Irel.col_lanes]), where sibling states
   share them, and a per-attribute table indexed by value id would grow
   with the pool for the life of the process. The attribute prefix is
   read from its entry, and a float hashes its entry's cached printed
   form instead of printing the value again. *)
let cell_lanes att_id v_id b off =
  let e = val_entry v_id in
  Fingerprint.Hashing.cell_lanes (str_entry att_id).prefix e.value
    (string_of_id e.vstr) b off

let compare_values a b =
  if a = b then 0 else Value.compare (value_of_id a) (value_of_id b)

let compare_strings a b =
  if a = b then 0 else String.compare (string_of_id a) (string_of_id b)

let size () =
  Mutex.lock mutex;
  let s = (!Strings.len, !Values.len) in
  Mutex.unlock mutex;
  s
