(** XXH64 over byte ranges, truncated to its low 32 bits — the one
    checksum used for page images, log frames and sealed archive segments.

    The hash is the published XXH64 (four independent 64-bit lanes over
    32-byte stripes, then an 8/4/1-byte tail and the avalanche), with
    [init] as its seed; the caller keeps the low 32 bits, which is what the
    4-byte checksum fields of the page and frame headers hold.  Seed 0
    gives the reference vectors: [""] hashes to [0x51d8e999], ["abc"] to
    [0xad770999]. *)

val seed : int
(** The seed of a fresh hash, [0]. *)

val fold : Bytes.t -> off:int -> len:int -> init:int -> int
(** XXH64 of [buf.[off .. off+len)] seeded with [init], low 32 bits.
    Chain calls (passing the previous result as [init]) to hash
    discontiguous ranges.  Raises [Invalid_argument] if the range is out of
    bounds.  Allocates nothing. *)

val sub : Bytes.t -> off:int -> len:int -> int
(** [fold] from [seed] — the checksum of a single contiguous range. *)
