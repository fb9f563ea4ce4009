(** Fixed-width text tables for the benchmark output. *)

val table : ?title:string -> header:string list -> rows:string list list -> unit -> string
(** Render an aligned table with a separator under the header. *)

val ms : float -> string
(** Milliseconds with one decimal. *)

val pct : float -> string
val f1 : float -> string
val i : int -> string
