open Relational

(* Coordinates are keyed by interned-id triples (REL string id, ATT string
   id, VALUE printed-string id). String ids biject with strings, so the
   key set is isomorphic to the old (string * string * string) keying —
   only cheaper: hot-path maintenance compares three ints instead of
   hashing three strings. *)
module M = Map.Make (struct
  type t = int * int * int

  let compare (r1, a1, v1) (r2, a2, v2) =
    let c = Int.compare r1 r2 in
    if c <> 0 then c
    else
      let c = Int.compare a1 a2 in
      if c <> 0 then c else Int.compare v1 v2
end)

(* [sq_norm] is Σ c² kept exactly as an integer, so a vector maintained by
   incremental [add]/[remove] is structurally identical to one rebuilt with
   [of_triples] — no floating-point drift to break fingerprint/profile
   equivalence checks. *)
type t = { counts : int M.t; sq_norm : int }

let empty = { counts = M.empty; sq_norm = 0 }

let add_id_n v key n =
  if n = 0 then v
  else if n < 0 then invalid_arg "Vector.add_id_n: negative count"
  else
    let c = match M.find_opt key v.counts with Some c -> c | None -> 0 in
    (* (c+n)² − c² = n(2c+n), exact in int *)
    { counts = M.add key (c + n) v.counts; sq_norm = v.sq_norm + (n * ((2 * c) + n)) }

let remove_id_n v key n =
  if n = 0 then v
  else if n < 0 then invalid_arg "Vector.remove_id_n: negative count"
  else
    match M.find_opt key v.counts with
    | None -> invalid_arg "Vector.remove: triple not present"
    | Some c when c < n -> invalid_arg "Vector.remove: triple not present"
    | Some c ->
        (* c² − (c−n)² = n(2c−n), exact in int; at c = n this is n², the
           whole coordinate *)
        let counts =
          if c = n then M.remove key v.counts else M.add key (c - n) v.counts
        in
        { counts; sq_norm = v.sq_norm - (n * ((2 * c) - n)) }

let add_id v key = add_id_n v key 1
let remove_id v key = remove_id_n v key 1

let intern_key (r, a, v) =
  (Intern.string_id r, Intern.string_id a, Intern.string_id v)

let extern_key (r, a, v) =
  (Intern.string_of_id r, Intern.string_of_id a, Intern.string_of_id v)

let add v key = add_id v (intern_key key)
let remove v key = remove_id v (intern_key key)
let of_triples triples = List.fold_left add empty triples
let sq_norm v = v.sq_norm

let count v key =
  match M.find_opt (intern_key key) v.counts with Some c -> c | None -> 0

let norm v = sqrt (float_of_int v.sq_norm)
let equal a b = a.sq_norm = b.sq_norm && M.equal Int.equal a.counts b.counts
let fold_id f v init = M.fold f v.counts init
let fold f v init = M.fold (fun key c acc -> f (extern_key key) c acc) v.counts init

let dot a b =
  (* Iterate over the smaller map. Every addend is a product of two int
     counts — an integer exactly representable in float64 — so the sum is
     exact and independent of iteration order: id-keyed and string-keyed
     vectors produce bit-identical distances. *)
  let small, large =
    if M.cardinal a.counts <= M.cardinal b.counts then (a, b) else (b, a)
  in
  M.fold
    (fun key c acc ->
      match M.find_opt key large.counts with
      | Some c' -> acc +. (float_of_int c *. float_of_int c')
      | None -> acc)
    small.counts 0.0

let euclidean_distance a b =
  (* ||a - b||² = ||a||² + ||b||² − 2⟨a,b⟩ *)
  let sq = float_of_int (a.sq_norm + b.sq_norm) -. (2.0 *. dot a b) in
  sqrt (max 0.0 sq)

let normalized_euclidean_distance a b =
  match (a.sq_norm = 0, b.sq_norm = 0) with
  | true, true -> 0.0
  | true, false | false, true -> sqrt 2.0
  | false, false ->
      let cos = dot a b /. (norm a *. norm b) in
      (* ||â - b̂||² = 2 − 2cos *)
      sqrt (max 0.0 (2.0 -. (2.0 *. cos)))

let cosine_distance a b =
  match (a.sq_norm = 0, b.sq_norm = 0) with
  | true, true -> 0.0
  | true, false | false, true -> 1.0
  | false, false -> 1.0 -. (dot a b /. (norm a *. norm b))
