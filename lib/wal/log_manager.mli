(** Append-only write-ahead log with an explicit stable prefix.

    Records are framed as [u32 length][u32 checksum][payload]; a record's
    LSN is the byte offset of its frame, and the checksum (XXH64 of the
    payload, low 32 bits, validated on a frame's first read) turns torn or
    corrupted records into loud {!Corrupt_record} failures instead of
    silent wrong recovery.  Bytes in
    [0, stable_lsn) are durable; the tail beyond is volatile and vanishes
    at a crash.  Commits force the log; flushing a data page forces the
    log up to that page's pLSN first (the WAL rule, enforced by the buffer
    pool).

    When a read disk is attached, scans charge one sequential log-page read
    per log page crossed — the "log pages" term in the paper's Appendix B
    cost model.  Normal-operation bookkeeping scans run without a disk and
    cost nothing. *)

type t

val frame_header : int
(** Bytes of framing before each record's payload (length + checksum). *)

val create : page_size:int -> t

val append : t -> Log_record.t -> Lsn.t
(** Append to the volatile tail; returns the record's LSN. *)

val set_append_hook : t -> (Lsn.t -> unit) option -> unit
(** Observe appends: the hook runs after each record is framed (so
    [end_lsn] is the boundary just past it), receiving the record's LSN.
    Used by the crash-point test harness to capture an image at every
    record boundary; [None] detaches.  Copies made by [crash] /
    [crash_at] never inherit the hook. *)

val end_lsn : t -> Lsn.t
(** Offset just past the last appended byte (the next record's LSN). *)

val stable_lsn : t -> Lsn.t

val force : t -> unit
(** Make everything appended so far stable. *)

val force_upto : t -> Lsn.t -> unit
(** Make at least the record at the given LSN (inclusive) stable. *)

val record_count : t -> int
val force_count : t -> int

val instrument : t -> ?trace:Deut_obs.Trace.t -> ?flight:Deut_obs.Flight.t * int -> unit -> unit
(** Attach observability sinks: each stable-LSN advance emits a
    [log_force] instant on the wal track with the new stable offset and
    the number of bytes made durable, and — with [flight], the engine's
    flight recorder paired with the component index this log belongs to —
    a [Force] entry in that component's black box.  Purely
    observational. *)

exception Corrupt_record of Lsn.t
(** A frame failed its checksum. *)

val read_at : t -> Lsn.t -> Log_record.t * Lsn.t
(** [read_at t lsn] decodes the record at [lsn] and returns it with the LSN
    of the following record.  Offsets below [base_lsn] are served from the
    attached archive when a sealed segment covers them (whole-segment
    checksum verified on the incarnation's first access; may raise
    {!Archive.Corrupt_segment}).  Raises [Invalid_argument] on a bad offset
    and {!Corrupt_record} on a live-frame checksum failure. *)

val corrupt_for_test : ?bit:int -> t -> Lsn.t -> unit
(** Fault injection for tests: flip bit [bit] (counted from the payload's
    first byte) of the record's payload, or, without [bit], every bit of
    its first byte.
    Test seam: checksum tests need a record no engine path damages. *)

val attach_read_disk : t -> Deut_sim.Disk.t -> unit
(** Charge subsequent scans' page crossings to this disk. *)

val iter : t -> from:Lsn.t -> ?upto:Lsn.t -> (Lsn.t -> Log_record.t -> unit) -> unit
(** [iter t ~from ?upto f] decodes records in order, calling [f lsn record].
    [upto] (exclusive) defaults to the stable end — recovery never sees the
    lost tail.  [from] = [Lsn.nil] starts at the beginning: the first
    archived byte when an archive holds sealed segments, else [base_lsn].
    The scan spans archive and live log transparently, charging each page
    to the device that holds it. *)

val crash : t -> t
(** The log as a recovering system sees it: a deep copy truncated to the
    stable prefix, with no disk attached.  An attached archive survives the
    crash as {!Archive.crash} of itself — segments are durable device
    state, exactly what a real restart would find. *)

val crash_at : t -> Lsn.t -> t
(** [crash] truncated at an arbitrary record boundary instead of the
    stable prefix: what recovery would see had the crash hit when exactly
    the bytes in [\[base, lsn)] were durable.  The boundary must come from
    an append (e.g. via [set_append_hook]); raises [Invalid_argument] when
    outside [\[base_lsn, end_lsn\]]. *)

val base_lsn : t -> Lsn.t
(** Offset of the oldest retained byte; earlier bytes were archived by
    [compact]. *)

val compact : t -> keep_from:Lsn.t -> unit
(** Archive (drop) log bytes before [keep_from] — which must be a record
    boundary at or before the stable point, and at or before any LSN
    recovery could scan from (the caller passes the last completed
    checkpoint).  LSNs are unaffected; reading archived offsets raises. *)

(** {1 Archiving}

    [archive_to] runs the seal-then-truncate protocol that keeps the
    durability contract (DESIGN.md §8): copy [\[lo, upto)] into a new
    segment, seal it under its checksum, and only then cut the live log.
    A crash at any step loses nothing — before the seal the bytes are
    still live, after it they are archived. *)

type archive_step =
  | Archive_segment_partial
      (** half the segment's bytes copied; segment unsealed *)
  | Archive_segment_sealed
      (** segment sealed and durable; live log not yet truncated *)
  | Archive_truncate_torn
      (** truncation stopped at a record boundary partway to the archive
          point *)
  | Archive_truncated  (** live log cut at the archive point *)

val attach_archive : t -> Archive.t -> unit
(** Give the log an archived-segment store.  Reads and scans then span the
    two stores transparently, and [archive_to] becomes operative. *)

val archive : t -> Archive.t option

val set_archive_hook : t -> (archive_step -> unit) option -> unit
(** Observe the archiving protocol: the hook runs after each step of
    [archive_to], mirroring [set_append_hook] — the crash-point harness
    captures an image at each step to prove recovery from it.  Copies made
    by [crash] / [crash_at] never inherit the hook.
    Test seam: crash-point tests capture an image at each archive step. *)

val archive_to : t -> upto:Lsn.t -> bool
(** Archive live bytes up to [upto] (exclusive; a record boundary at or
    below the stable point — typically [Tc.log_archive_point]) and truncate
    the live log there.  Resumes after the sealed run when a previous
    incarnation crashed between seal and truncate, never re-copying.
    Returns [false] when no archive is attached or there is nothing new to
    archive.  Raises [Invalid_argument] past the stable prefix. *)
