type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let next t =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Keep 62 bits so the conversion to OCaml's 63-bit int stays
     non-negative. *)
  let r = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  r mod bound

let bool t = Int64.logand (next t) 1L = 1L

let float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  bound *. (r /. 9007199254740992.0 (* 2^53 *))

let pick t = function
  | [] -> invalid_arg "Prng.pick: empty list"
  | xs -> List.nth xs (int t (List.length xs))

let shuffle t xs =
  let arr = Array.of_list xs in
  let n = Array.length arr in
  for i = n - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  Array.to_list arr

let sample t k xs =
  let shuffled = shuffle t xs in
  List.filteri (fun i _ -> i < k) shuffled

