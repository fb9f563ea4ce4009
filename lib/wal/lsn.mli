(** Log sequence numbers.

    An LSN is the byte offset of a record in the log, as in ARIES and SQL
    Server: monotonically increasing, totally ordered, and directly usable
    to locate a record and to count log pages between two positions. *)

type t = int

val nil : t
(** Sentinel "no LSN" — smaller than every valid LSN. *)

val is_nil : t -> bool
val compare : t -> t -> int
val max : t -> t -> t
val min : t -> t -> t
val to_string : t -> string
