(** The stable page store: contents of the database "disk".

    This holds the durable page images — what survives a crash.  It is pure
    state; IO *timing* is charged by the buffer pool and log manager against
    the {!Deut_sim.Disk} model, keeping contents and cost accounting
    separate.

    Pages are allocated here (monotonically increasing pids; pid 0 is the
    catalog meta page) but a freshly allocated page has no stable image
    until its first flush.  Reading a never-flushed page raises
    {!Missing_page}: with correct WAL + SMO-image recovery this must never
    happen, so surfacing it loudly is a correctness check. *)

exception Missing_page of int

exception Corrupt_page of int
(** Raised by [read] when the stored image fails its checksum — stable
    corruption is detected loudly, never silently recovered from. *)

type t

val create : page_size:int -> t
val page_size : t -> int

val allocate : t -> Page.kind -> int
(** Reserve the next pid.  No stable image exists until [write]. *)

val allocated_count : t -> int
(** Number of pids handed out (the "database size" in pages). *)

val stable_count : t -> int
(** Number of pages with a stable image (maintained incrementally, O(1)). *)

val exists : t -> int -> bool

val read : t -> int -> Page.t
(** A {!Page.borrow}ed copy-on-write view of the stable image: the checksum
    is verified against the stable buffer itself and no copy is taken until
    the caller's first mutation.  The store never edits an installed image
    in place (it replaces whole images), so the borrow stays coherent. *)

val write : t -> Page.t -> unit
(** Install a checksum-stamped copy of the page image as the stable
    version.  The caller's page is not modified. *)

val corrupt_for_test : t -> int -> unit
(** Flip a payload byte of the stored image (fault injection for checksum
    tests).
    Test seam: checksum tests need a page no engine path damages. *)

val clone : t -> t
(** The crash image of the disk: a store observably independent of [t].
    Stored images are immutable (a write replaces the whole image), so
    the clone shares each image's bytes and copies only the per-image
    [verified] flags and the page table; later writes, corruption or
    verification on either side never reach the other. *)

val iter_stable : t -> (Page.t -> unit) -> unit

val note_allocated : t -> int -> unit
(** Inform the store that pids up to and including [pid] are in use (replica
    catch-up installs pages it did not allocate itself). *)
