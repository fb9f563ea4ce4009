(** Hashtables keyed by plain ints (pids, keys, table and transaction ids):
    hashing a key is a mask, not a C [caml_hash] call. *)

include Hashtbl.S with type key = int
