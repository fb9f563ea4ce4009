(** Binary encoding helpers shared by the log record codec and tests.

    Big-endian, length-prefixed strings and arrays.  Signed 64-bit values
    carry LSNs (so the [nil] sentinel, -1, round-trips); 32-bit values carry
    pids, table ids, and counts. *)

exception Truncated of string
(** Raised when a reader runs past the end of its input. *)

type writer

val writer : unit -> writer
val contents : writer -> string

val clear : writer -> unit
(** Reset to empty, keeping the underlying storage — the log manager reuses
    one scratch writer per append instead of allocating per record. *)

val length : writer -> int

val blit : writer -> src_off:int -> Bytes.t -> dst_off:int -> len:int -> unit
(** Copy written bytes straight into [dst], skipping the intermediate
    [contents] string. *)

val w_u8 : writer -> int -> unit
val w_u32 : writer -> int -> unit
val w_i64 : writer -> int -> unit
val w_string : writer -> string -> unit
val w_opt_string : writer -> string option -> unit
val w_u32_array : writer -> int array -> unit
val w_i64_array : writer -> int array -> unit

type reader

val reader : string -> reader

val reader_sub : Bytes.t -> pos:int -> len:int -> reader
(** Decode in place from [data.[pos .. pos+len)] — no substring is taken;
    the recovery scan decodes every record straight out of the log buffer.
    The caller must not mutate the range while the reader is live. *)

val r_u8 : reader -> int
val r_u32 : reader -> int
val r_i64 : reader -> int
val r_string : reader -> string
val r_opt_string : reader -> string option
val r_u32_array : reader -> int array
val r_i64_array : reader -> int array
