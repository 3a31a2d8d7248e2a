(** Interned databases: relation-name ids bound to {!Irel.t}, kept sorted
    by relation-name string — the same binding order as {!Database}'s
    string map, so iteration-order-sensitive consumers see the boxed
    sequence exactly. Values are immutable arrays; [add]/[remove] copy
    (databases hold a handful of relations). *)

type t

val empty : t
val find_opt : t -> int -> Irel.t option

val find : t -> int -> Irel.t
(** @raise Invalid_argument when absent. *)

val mem : t -> int -> bool

val add : t -> int -> Irel.t -> t
(** Insert or replace, preserving name-sorted order. *)

val remove : t -> int -> t
(** @raise Invalid_argument when absent. *)

val rename_rel : t -> old_name:int -> new_name:int -> t

val names : t -> int list
(** Name ids in name-string order. *)

val iter : (int -> Irel.t -> unit) -> t -> unit
val fold : (int -> Irel.t -> 'a -> 'a) -> t -> 'a -> 'a

val cells : t -> int
(** Σ cardinality × arity. *)

val of_database : Database.t -> t
val to_database : t -> Database.t

val fingerprint : t -> Fingerprint.t
(** Bit-identical with [Fingerprint.of_database (to_database t)]. *)

val equal : t -> t -> bool
(** {!Database.equal}. *)

val contains : t -> t -> bool
(** {!Database.contains}. *)
