(** Growable int vector (OCaml 5.1 lacks Dynarray).

    Used for the monitors' DirtySet/WrittenSet accumulation and the
    prefetch list, where append order is semantically meaningful. *)

type t

val create : ?capacity:int -> unit -> t
val length : t -> int
val push : t -> int -> unit
val to_array : t -> int array
val clear : t -> unit
val is_empty : t -> bool
