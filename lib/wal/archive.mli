(** Archived-segment store: the durable home of log bytes cut from the
    live WAL.

    A long-lived deployment cannot let the live log grow forever.  The
    archiver copies a prefix of the live log — raw frames, byte for byte,
    so LSNs remain absolute byte offsets — into a {e segment} on a
    dedicated simulated archive device, seals it under a whole-segment
    XXH64 checksum, and only then truncates the live log.  Sealing before
    truncating is the WAL rule applied to the log itself: at every instant
    the union of sealed segments and the durable live log covers
    [\[start_lsn, stable\)] contiguously, so a crash at {e any} point during
    archiving loses nothing (DESIGN.md §8 states the full contract).

    Segments are immutable once sealed.  An {e unsealed} segment — the
    residue of a crash mid-copy — is not part of the durable contract:
    readers ignore it and the next {!begin_segment} discards it; the bytes
    it would have covered are still in the live log because truncation
    had not yet happened.

    Readers verify a segment's checksum once per incarnation, on first
    access; a mismatch raises {!Corrupt_segment} — recovery from a damaged
    archive must fail loudly, never silently produce wrong state.  Scan IO
    is charged to the attached archive {!Deut_sim.Disk.t} per log page
    crossed, exactly like live-log scan charging, so recovery statistics
    account archive reads as log reads on their own device lane. *)

type t

val create : page_size:int -> t
(** An empty store.  [page_size] maps byte offsets to device page indexes
    (the same log-page geometry as the live log). *)

val attach_disk : t -> Deut_sim.Disk.t -> unit
(** Charge subsequent segment writes and scan page crossings to this
    device. *)

val instrument : t -> ?trace:Deut_obs.Trace.t -> unit -> unit
(** Attach a trace sink: each {!seal} emits an [archive_seal] instant on
    the archive-disk track with the segment's LSN range and size.  Purely
    observational. *)

(** {1 Inspection} *)

val segment_count : t -> int
(** Sealed segments currently held. *)

val sealed_bytes : t -> int
(** Total payload bytes across sealed segments. *)

val seal_count : t -> int
(** Segments sealed this incarnation (a lifetime counter, reset by
    {!crash}). *)

val start_lsn : t -> Lsn.t option
(** Lowest archived offset, if any segment is sealed. *)

val covered_upto : t -> Lsn.t
(** One past the highest sealed byte; [0] when empty.  The live log's base
    never exceeds this — truncation follows sealing. *)

(** {1 Writing (the archiver side, driven by [Log_manager.archive_to])} *)

val begin_segment : t -> lo:Lsn.t -> len:int -> unit
(** Open an unsealed segment covering [\[lo, lo+len\)].  Discards any
    unsealed residue of a crashed copy first.  [lo] must equal
    {!covered_upto} when segments exist (no gaps, no overlap); raises
    [Invalid_argument] otherwise. *)

val append_bytes : t -> src:Bytes.t -> src_off:int -> len:int -> unit
(** Fill the open segment in order, charging the device one sequential
    write spanning the pages the chunk touches.  Raises
    [Invalid_argument] without an open segment or past its end. *)

val seal : t -> unit
(** Checksum and seal the open segment, making it part of the durable
    contract.  Raises [Invalid_argument] if the segment is not fully
    written. *)

(** {1 Reading (the recovery side)} *)

exception Corrupt_segment of { lo : Lsn.t; hi : Lsn.t }
(** A sealed segment failed its whole-segment checksum on first access. *)

val contains : t -> Lsn.t -> bool
(** Is the offset inside a sealed segment? *)

val locate : t -> Lsn.t -> Bytes.t * int
(** [(buf, off)] where the byte at the given LSN lives.  Verifies the
    segment's checksum on the incarnation's first access (raising
    {!Corrupt_segment} on mismatch).  Raises [Invalid_argument] when no
    sealed segment covers the offset. *)

val charge_page : t -> int -> unit
(** Charge one sequential log-page read to the archive device (scan
    accounting; no-op without a disk). *)

val corrupt_for_test : t -> lsn:Lsn.t -> unit
(** Flip one byte of the sealed segment holding [lsn] and clear its
    verified flag (fault injection: the next read must detect it).
    Test seam: checksum tests need a segment no engine path damages. *)

val crash : t -> t
(** The store as a restarting system sees it: a deep copy with no device
    or trace attached, lifetime counters reset, and every checksum
    unverified — each incarnation re-earns its trust in the bytes. *)
