type ('k, 'v) tables = {
  mutable current : ('k, 'v) Hashtbl.t;
  mutable previous : ('k, 'v) Hashtbl.t;
  mutable weight : int;  (* summed weight of the entries in [current] *)
  mutable evictions : int;
}

type ('k, 'v) t = {
  half : int;  (* generation weight: total residency is bounded by 2 * half *)
  weigh : 'v -> int;
  per_domain : (int * ('k, 'v) tables) list Atomic.t;
      (* Owned by the memo, so the tables die with it. A Domain.DLS key
         would be cheaper to look up, but OCaml never frees DLS slots:
         every memo ever created would keep its table alive. *)
  hit : string;
  miss : string;
  eviction : string;
  telemetry : Telemetry.t;
}

let default_cap = 200_000

(* A generation's first bucket array. An array over 256 words is
   allocated straight on the major heap, and every young entry written
   into it becomes a remembered-set root: the next minor collection would
   promote whatever the entries reach, live or not. 16 buckets stay
   young; [Hashtbl] doubles them as the table grows. *)
let initial_buckets = 16

let create ?(telemetry = Telemetry.disabled) ?(name = "memo") ?weight
    ?(cap = default_cap) () =
  if cap < 2 then invalid_arg "Memo.create: cap must be >= 2";
  {
    half = cap / 2;
    weigh = Option.value weight ~default:(fun _ -> 1);
    per_domain = Atomic.make [];
    hit = name ^ ".hit";
    miss = name ^ ".miss";
    eviction = name ^ ".eviction";
    telemetry;
  }

let rec tables t =
  let self = (Domain.self () :> int) in
  let owned = Atomic.get t.per_domain in
  let rec find = function
    | [] -> None
    | (d, tb) :: rest -> if d = self then Some tb else find rest
  in
  match find owned with
  | Some tb -> tb
  | None ->
      (* Only this domain ever adds its own entry, so a lost race is
         another domain's insertion: retry and the entry is still absent. *)
      let tb =
        {
          current = Hashtbl.create initial_buckets;
          previous = Hashtbl.create 0;
          weight = 0;
          evictions = 0;
        }
      in
      if Atomic.compare_and_set t.per_domain owned ((self, tb) :: owned)
      then tb
      else tables t

let find_or_add t key compute =
  let tb = tables t in
  match Hashtbl.find_opt tb.current key with
  | Some v ->
      Telemetry.count t.telemetry t.hit 1;
      v
  | None ->
      let v =
        match Hashtbl.find_opt tb.previous key with
        | Some v ->
            (* Promote below: recently-used entries survive. The entry must
               leave [previous] as it enters [current], or it would be
               resident twice and [size] could exceed the 2 * half bound. *)
            Hashtbl.remove tb.previous key;
            Telemetry.count t.telemetry t.hit 1;
            v
        | None ->
            Telemetry.count t.telemetry t.miss 1;
            compute key
      in
      let w = t.weigh v in
      (* An entry heavier than a whole generation is answered, not kept. *)
      if w <= t.half then begin
        if tb.weight + w > t.half then begin
          (* Generational eviction: the old generation is dropped wholesale,
             but everything touched since the last flip survives — unlike a
             full reset, the recent working set is never discarded. *)
          tb.previous <- tb.current;
          tb.current <- Hashtbl.create initial_buckets;
          tb.weight <- 0;
          tb.evictions <- tb.evictions + 1;
          Telemetry.count t.telemetry t.eviction 1
        end;
        Hashtbl.add tb.current key v;
        tb.weight <- tb.weight + w
      end;
      v

let size t =
  let tb = tables t in
  Hashtbl.length tb.current + Hashtbl.length tb.previous

let evictions t = (tables t).evictions

let clear t =
  List.iter
    (fun (_, tb) ->
      Hashtbl.clear tb.current;
      Hashtbl.clear tb.previous;
      tb.weight <- 0)
    (Atomic.get t.per_domain)
