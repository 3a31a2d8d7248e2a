open Relational

type key = Fingerprint.t * Fingerprint.t
type route = int

(* Shard routing: a commutative hash of the pair's *schema* terms only.
   Row perturbations (the drift workload) leave the route unchanged, so
   a drifted probe lands on the shard that owns the entries it could
   warm from — [find_near] never has to leave its shard. The source and
   target sides are combined asymmetrically so swapping them routes
   differently. *)
let schema_hash db =
  Database.fold
    (fun rel r acc ->
      acc + Fingerprint.hash (Fingerprint.of_schema ~rel (Relation.schema r)))
    db 0

let route ~source ~target = ((source * 31) + target) land max_int

let route_of_pair ~source ~target =
  route ~source:(schema_hash source) ~target:(schema_hash target)

(* Row-granular term multisets of the instance pair, for near-miss
   distance. Schema terms and row terms are the same ones [Fingerprint]
   sums into a database fingerprint, kept unsummed and sorted so two
   sketches diff in one merge walk; row granularity means a one-cell
   perturbation moves exactly one term per side it touches. *)
type sketch = {
  s_terms : Fingerprint.t array;
  t_terms : Fingerprint.t array;
  s_route : route;
}

let db_terms db =
  let terms =
    Database.fold
      (fun rel r acc ->
        let schema = Relation.schema r in
        Relation.fold
          (fun row acc -> Fingerprint.of_row ~rel schema row :: acc)
          r
          (Fingerprint.of_schema ~rel schema :: acc))
      db []
  in
  let a = Array.of_list terms in
  Array.sort Fingerprint.compare a;
  a

let sketch_of_pair ~source ~target =
  {
    s_terms = db_terms source;
    t_terms = db_terms target;
    s_route = route_of_pair ~source ~target;
  }

let sketch_route sk = sk.s_route

(* Symmetric-difference size of two sorted term arrays. *)
let sym_diff a b =
  let na = Array.length a and nb = Array.length b in
  let rec go i j acc =
    if i >= na then acc + (nb - j)
    else if j >= nb then acc + (na - i)
    else
      let c = Fingerprint.compare a.(i) b.(j) in
      if c = 0 then go (i + 1) (j + 1) acc
      else if c < 0 then go (i + 1) j (acc + 1)
      else go i (j + 1) (acc + 1)
  in
  go 0 0 0

let sketch_distance a b =
  let d = sym_diff a.s_terms b.s_terms + sym_diff a.t_terms b.t_terms in
  let n =
    Array.length a.s_terms + Array.length b.s_terms + Array.length a.t_terms
    + Array.length b.t_terms
  in
  if n = 0 then 0.0 else float_of_int d /. float_of_int n

module Tbl = Hashtbl.Make (struct
  type t = key

  let equal (sa, ta) (sb, tb) =
    Fingerprint.equal sa sb && Fingerprint.equal ta tb

  let hash (s, t) = (Fingerprint.hash s * 31) + Fingerprint.hash t
end)

(* Intrusive doubly-linked LRU list over the table's nodes: [head] is
   most recent, [tail] least. The sentinel-free variant keeps the node
   type simple; all pointer surgery happens under the shard's [mu]. *)
type ('a, 'b) node = {
  nkey : 'a;
  mutable value : 'b;
  mutable skt : sketch option;
  mutable prev : ('a, 'b) node option;  (** towards head (more recent) *)
  mutable next : ('a, 'b) node option;  (** towards tail (less recent) *)
}

(* One shard: an independent exact LRU under its own mutex. Counters are
   per shard and summed on read, so the hot path never shares a cache
   line (or a lock) across shards. *)
type 'a shard = {
  tbl : (key, 'a) node Tbl.t;
  cap : int;
  mu : Mutex.t;
  mutable head : (key, 'a) node option;
  mutable tail : (key, 'a) node option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable warms : int;
}

type 'a t = { shards_arr : 'a shard array; telemetry : Telemetry.t }

let create ?(telemetry = Telemetry.disabled) ?(shards = 1) ~capacity () =
  if capacity < 1 then invalid_arg "Cache.create: capacity must be >= 1";
  if shards < 1 then invalid_arg "Cache.create: shards must be >= 1";
  (* capacity rounds up to a multiple of [shards] *)
  let per_shard = (capacity + shards - 1) / shards in
  {
    telemetry;
    shards_arr =
      Array.init shards (fun _ ->
          {
            tbl = Tbl.create (2 * per_shard);
            cap = per_shard;
            mu = Mutex.create ();
            head = None;
            tail = None;
            hits = 0;
            misses = 0;
            evictions = 0;
            warms = 0;
          });
  }

let shards t = Array.length t.shards_arr

let shard_index t route = route mod Array.length t.shards_arr

let shard_of t ?route key =
  match route with
  | Some r -> shard_index t r
  | None ->
      shard_index t
        (((Fingerprint.hash (fst key) * 31) + Fingerprint.hash (snd key))
        land max_int)

let locked sh f =
  Mutex.lock sh.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock sh.mu) f

let unlink sh node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> sh.head <- node.next);
  (match node.next with
  | Some nx -> nx.prev <- node.prev
  | None -> sh.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front sh node =
  node.next <- sh.head;
  node.prev <- None;
  (match sh.head with
  | Some h -> h.prev <- Some node
  | None -> sh.tail <- Some node);
  sh.head <- Some node

let find t ?(valid = fun _ -> true) ?route key =
  let sh = t.shards_arr.(shard_of t ?route key) in
  locked sh @@ fun () ->
  match Tbl.find_opt sh.tbl key with
  | Some node when valid node.value ->
      unlink sh node;
      push_front sh node;
      sh.hits <- sh.hits + 1;
      Telemetry.count t.telemetry "cache.hit" 1;
      Some node.value
  | Some _ | None ->
      sh.misses <- sh.misses + 1;
      Telemetry.count t.telemetry "cache.miss" 1;
      None

let add t ?sketch ?route key value =
  let route =
    match (route, sketch) with
    | Some _, _ -> route
    | None, Some sk -> Some sk.s_route
    | None, None -> None
  in
  let sh = t.shards_arr.(shard_of t ?route key) in
  locked sh @@ fun () ->
  match Tbl.find_opt sh.tbl key with
  | Some node ->
      node.value <- value;
      (match sketch with Some _ -> node.skt <- sketch | None -> ());
      unlink sh node;
      push_front sh node
  | None ->
      let node =
        { nkey = key; value; skt = sketch; prev = None; next = None }
      in
      Tbl.replace sh.tbl key node;
      push_front sh node;
      if Tbl.length sh.tbl > sh.cap then begin
        match sh.tail with
        | Some lru ->
            unlink sh lru;
            Tbl.remove sh.tbl lru.nkey;
            sh.evictions <- sh.evictions + 1;
            Telemetry.count t.telemetry "cache.evict" 1
        | None -> assert false
      end

(* Near-miss lookup, confined to the shard the probe's schema terms
   route to: a linear scan over that shard's (per-shard-capacity
   bounded) entries for the sketch-bearing, [valid] entry closest to
   [sketch]; accepted when its normalized distance is strictly below
   [max_dist]. Deliberately not part of the hit/miss accounting and does
   not promote — a warm seed is a hint, not a served answer, so recency
   order must be exactly what the exact-hit traffic produced.
   [cache.warm] is counted in the same critical section, mirroring the
   other counters. *)
let find_near t ?(valid = fun _ -> true) ~max_dist sketch =
  let sh = t.shards_arr.(shard_index t sketch.s_route) in
  locked sh @@ fun () ->
  let rec walk best = function
    | None -> best
    | Some node ->
        let best =
          match node.skt with
          | Some s when valid node.value ->
              let d = sketch_distance sketch s in
              (match best with
              | Some (_, bd) when bd <= d -> best
              | _ -> Some (node.value, d))
          | _ -> best
        in
        walk best node.next
  in
  match walk None sh.head with
  | Some (v, d) when d < max_dist ->
      sh.warms <- sh.warms + 1;
      Telemetry.count t.telemetry "cache.warm" 1;
      Some (v, d)
  | _ -> None

let sum t f =
  Array.fold_left (fun acc sh -> acc + (locked sh @@ fun () -> f sh)) 0
    t.shards_arr

let length t = sum t (fun sh -> Tbl.length sh.tbl)
let capacity t = sum t (fun sh -> sh.cap)
let hits t = sum t (fun sh -> sh.hits)
let misses t = sum t (fun sh -> sh.misses)
let evictions t = sum t (fun sh -> sh.evictions)
let warms t = sum t (fun sh -> sh.warms)

let shard_keys sh =
  locked sh @@ fun () ->
  let rec walk acc = function
    | None -> acc
    | Some node -> walk (node.nkey :: acc) node.next
  in
  (* walking head→tail builds tail-first, i.e. LRU first *)
  walk [] sh.head

let keys_lru_first ?shard t =
  match shard with
  | Some i -> shard_keys t.shards_arr.(i)
  | None ->
      List.concat_map shard_keys (Array.to_list t.shards_arr)
