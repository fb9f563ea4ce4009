(** Key locks for the TC — strict two-phase locking with a no-wait policy.

    The paper factors concurrency control out to its companion ("Locking
    key ranges with unbundled transaction services" [13]); recovery only
    assumes that the TC serialises conflicting transactions somehow.  This
    is the minimal such somehow: per-(table, key) S/X locks held to end of
    transaction.  In a single-threaded engine a conflict cannot wait — the
    holder would never progress — so conflicts fail fast ([Conflict]) and
    the caller aborts, a standard no-wait deadlock-avoidance policy.

    Locks are volatile: a crash discards them; recovery's undo pass needs
    none (losers are rolled back before new work starts). *)

type mode = Shared | Exclusive

type t

val create : unit -> t

val acquire : t -> txn:int -> table:int -> key:int -> mode -> (unit, int) result
(** [Error holder] on conflict, naming one conflicting transaction.
    Re-acquisition and S→X upgrade by a sole holder succeed. *)

val release_all : t -> txn:int -> unit
(** End of transaction (commit or abort): drop every lock the transaction
    holds. *)

val locked_keys : t -> int
(** Number of keys with at least one holder. *)

val conflicts : t -> int
(** Cumulative count of acquisitions refused under the no-wait policy. *)
