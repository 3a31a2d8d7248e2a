(* The host's speed around each operation, read off a fixed reference
   kernel.

   On a shared 2-core x86-64 host (Xeon, 2.0 GHz) the CPUs ran at two
   speeds about 1.6x apart, switching every few tenths of a second, and
   the share of time spent slow drifted between about a third and about
   two thirds over minutes, on both CPUs together: the 20 s means of a
   probe pinned to each CPU correlated at 0.98. A cold search took about
   30 ms or about 47 ms depending on the phase it ran in, so a run's
   median fell in one cluster or the other as the shares moved, and ten
   runs of one code spread by up to a third of their median.

   So a run times [kernel] just before and just after each operation
   (between operations, never during one) and reports each operation's
   time at the host speed where the kernel takes [nominal_s]: the time
   is multiplied by [nominal_s] over the mean of the two kernel times,
   and rates are computed from the scaled times (serve-hit's requests
   are too short for this and use the run's mean factor; see [Hit]). A
   migration on two jobs keeps both CPUs busy, so its kernel runs on two
   domains at once. Over ten seeds of serve-cold the raw p50 ranged over
   33.2-44.1 ms and the scaled one over 40.4-41.7 ms, and the quartile
   distance of every timed figure of serve-cold and migrate-csv was at
   most 0.06 of its median. The kernel is stdlib-only (string hashing,
   hash-table probes, an integer sort and short-lived allocation, as the
   searches and migrations do), so a change to the program under test
   cannot change it. Each run records its raw figures and mean factor
   next to the scaled ones. *)

let table_size = 1500
let sort_size = 3000

let kernel () =
  let h = Hashtbl.create 64 in
  for i = 0 to table_size - 1 do
    Hashtbl.replace h (string_of_int (i * 7919 mod 10007)) i
  done;
  let s = ref 0 in
  for i = 0 to (2 * table_size) - 1 do
    match Hashtbl.find_opt h (string_of_int i) with Some v -> s := !s + v | None -> ()
  done;
  let a = Array.init sort_size (fun i -> (i * 2654435761) land 0xffff) in
  Array.sort compare a;
  ignore (Sys.opaque_identity (!s + a.(0)))

(* About the kernel's mean time on the host above, on one domain and on
   two at once, so that scaled times read close to raw ones there. *)
let nominal_s ~domains = if domains = 1 then 2e-3 else 3e-3

(* One timing of the kernel run on [domains] domains at once, in
   seconds. *)
let probe ~domains =
  if domains < 1 || domains > 2 then invalid_arg "Speed.probe: 1 or 2 domains";
  let t0 = Proc.now () in
  let others = List.init (domains - 1) (fun _ -> Domain.spawn kernel) in
  kernel ();
  List.iter Domain.join others;
  Proc.now () -. t0

(* [around ~domains n op] runs [op 0] .. [op (n - 1)] and returns each
   result with its factor: [nominal_s] over the mean of the kernel times
   on either side. A time multiplied by its factor is the time at the
   nominal speed. *)
let around ?(domains = 1) n op =
  let last = ref (probe ~domains) in
  Array.init n (fun i ->
      let r = op i in
      let after = probe ~domains in
      let f = nominal_s ~domains /. ((!last +. after) /. 2.) in
      last := after;
      (r, f))

let factors results = Array.map snd results
let results results = Array.map fst results
