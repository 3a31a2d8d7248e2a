(* Order statistics for the benchmark's reports.

   Percentiles use the nearest-rank rule: the p-quantile of n sorted
   samples is the sample at 1-based rank ceil(p * n). A reported
   percentile is taken only over at least [samples_for p] samples, so at least
   [min_beyond] lie strictly above its rank and a single outlier can
   never be "the" p90. *)

let min_beyond = 10

let rank p n = max 1 (min n (int_of_float (ceil ((p *. float_of_int n) -. 1e-9))))

let beyond p n = n - rank p n

(* Samples needed before the p-quantile has [min_beyond] samples above it. *)
let samples_for p =
  let rec go n = if beyond p n >= min_beyond then n else go (n + 1) in
  go 1

let percentile p xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  let s = Array.copy xs in
  Array.sort compare s;
  s.(rank p n - 1)

let median xs = percentile 0.5 xs

let mean xs = Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

(* A percentile as a run reports it: refused over fewer than
   [samples_for p] samples. *)
let reported p xs =
  if beyond p (Array.length xs) < min_beyond then
    invalid_arg
      (Printf.sprintf "Stats.reported: %d samples, %d needed for p%.0f"
         (Array.length xs) (samples_for p) (p *. 100.));
  percentile p xs
