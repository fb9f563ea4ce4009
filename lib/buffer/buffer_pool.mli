(** The database cache: a fixed number of page frames over the stable page
    store, with CLOCK replacement.

    Responsibilities that matter to the paper:

    - {b Dirty tracking.}  A clean→dirty transition fires [on_dirty] — this
      event stream is exactly what the DC's Δ-log monitor records (§4.1) and
      what classic ARIES checkpointing samples (§3.1).
    - {b Flush tracking.}  Every flush fires [on_flush], feeding the
      WrittenSet of both BW-log records (§3.3) and Δ-log records.
    - {b WAL enforcement.}  Before a dirty page is written, [ensure_stable]
      is called with its pLSN so the log can be forced first.
    - {b Penultimate checkpointing.}  Each frame carries the SQL-Server
      checkpoint-epoch bit (§3.2): dirtying stamps the current epoch;
      a checkpoint flips the epoch and flushes only frames dirtied in the
      previous one.
    - {b Prefetch.}  [prefetch] groups contiguous pids into block reads
      (up to [block_pages] per IO) and tracks them in-flight; a later [get]
      that finds its page in flight stalls only until that IO's completion
      — the mechanism behind Log2/SQL2.

    Timing: misses stall the shared clock on the data disk; hits are free
    (CPU costs are charged by the recovery drivers, not here). *)

type hooks = {
  on_dirty : pid:int -> lsn:Deut_wal.Lsn.t -> unit;
  on_flush : pid:int -> unit;
  ensure_stable : tc_lsn:Deut_wal.Lsn.t -> dc_lsn:Deut_wal.Lsn.t -> unit;
      (** WAL: called with the page's two pLSNs before it is written; the
          DC forces the TC log through [tc_lsn] and its own log through
          [dc_lsn] (the same log, forced twice, in the integrated layout). *)
}

(** Read-only outside the pool: only the pool itself updates its counters
    ([reset_counters] zeroes them). *)
type counters = private {
  mutable hits : int;
  mutable misses : int;
  mutable prefetch_hits : int;  (** gets satisfied by an in-flight prefetch *)
  mutable prefetch_issued : int;  (** pages submitted by [prefetch] *)
  mutable stalls : int;  (** gets that had to wait for the disk *)
  mutable stall_us : float;  (** total simulated wait time *)
  mutable evictions : int;
  mutable flushes : int;
}

type t

val create :
  capacity:int ->
  ?block_pages:int ->
  ?lazy_writer_every:int ->
  ?lazy_writer_min_age:int ->
  store:Deut_storage.Page_store.t ->
  disk:Deut_sim.Disk.t ->
  clock:Deut_sim.Clock.t ->
  unit ->
  t
(** [lazy_writer_every] (default 0 = off): flush one dirty frame per this
    many cache misses — a miss-pressure-driven background writer like SQL
    Server's lazy writer.  [lazy_writer_min_age] (default 0): only flush
    frames dirtied at least that many updates ago, so the flush lands in a
    later Δ/BW window than the page's last update and stays prunable. *)

val instrument :
  t -> ?trace:Deut_obs.Trace.t -> ?stall_hist:Deut_obs.Metrics.histogram -> unit -> unit
(** Attach observability sinks.  Emits on the cache track: a [page_fetch]
    span per miss or claimed prefetch (submit → install, with [prefetched]
    and [index] args), a [stall] span per wait on the disk (also fed to
    [stall_hist]), [prefetch_issue] (one per batch) and [prefetch_page]
    (one per submitted pid) instants, [prefetch_hit] (with a [late] arg —
    the cursor reached the page before its IO completed) and [flush]
    instants, and [prefetch_unused] when an install discards a
    still-in-flight prefetch unread.  Purely observational. *)

val set_hooks : t -> hooks -> unit
val capacity : t -> int
val block_pages : t -> int
val counters : t -> counters
val reset_counters : t -> unit

val size : t -> int
(** Number of occupied frames. *)

val dirty_count : t -> int
(** Number of dirty frames, O(1): a counter kept in step at every
    clean↔dirty transition. *)

val contains : t -> int -> bool
val is_dirty : t -> int -> bool

val get : t -> ?pin:bool -> int -> Deut_storage.Page.t
(** Return the cached page, waiting for an in-flight prefetch or performing
    a synchronous read on a miss.  [pin] (default false) protects the frame
    from eviction until [unpin]. *)

val get_if_cached : t -> int -> Deut_storage.Page.t option
(** A hit or an already-completed in-flight read; never does IO and never
    stalls. *)

val pin : t -> int -> unit
val unpin : t -> int -> unit

val new_page : t -> Deut_storage.Page.kind -> Deut_storage.Page.t
(** Allocate a pid in the store and a zeroed frame for it.  The frame is
    clean until the caller logs an operation and calls [mark_dirty]. *)

val install : t -> ?event_lsn:Deut_wal.Lsn.t -> Deut_storage.Page.t -> dirty:bool -> unit
(** Place a page image in the cache (DC recovery installing an SMO page
    image), evicting if needed.  Replaces any cached version.  A dirty
    install fires [on_dirty] with [event_lsn] (default: the image's TC
    pLSN). *)

val mark_dirty : t -> pid:int -> lsn:Deut_wal.Lsn.t -> unit
(** Record that a logged transactional operation with the given LSN just
    modified the page: sets its (TC) pLSN, and on a clean→dirty transition
    stamps the current checkpoint epoch and fires [on_dirty]. *)

val mark_dirty_dc : t -> pid:int -> dc_lsn:Deut_wal.Lsn.t -> event_lsn:Deut_wal.Lsn.t -> unit
(** Same for a DC (structure-modification) record: sets the DC-domain pLSN
    instead.  [event_lsn] is the TC-domain value reported to [on_dirty]
    (the record's own LSN in the integrated layout; the TC end-of-stable-log
    under a separate DC log, so Δ-record rLSNs stay in one domain). *)

val prefetch : t -> ?lane:int -> int list -> unit
(** Submit asynchronous reads for the pids not already cached or in flight,
    coalescing contiguous runs into block IOs.  Never evicts pinned frames;
    if the cache is too full to accept more in-flight pages, the remainder
    of the list is dropped (prefetch is best-effort, as in the paper where
    over-eager prefetch just causes page swaps).  [lane] (default 0) tags
    the submitted pages with the issuing prefetch pipeline; parallel redo
    gives each worker its own lane so per-worker windows can be gated
    independently.  A page prefetched on any lane satisfies any [get]. *)

val in_flight_count : ?lane:int -> t -> int
(** Pages submitted but not yet claimed; with [lane], only those issued by
    that pipeline. *)

val set_stall_track : t -> int option -> unit
(** Override the trace lane for subsequent [stall] spans ([None] restores
    the cache track).  Parallel redo points this at the active worker's
    lane so the trace shows which worker waited. *)

val set_fetch_index : t -> bool -> unit
(** Mark subsequent fetches as index (vs data) traffic: [page_fetch] spans
    carry an [index] arg while set.  [Dc.tracked_index] flips this around
    B-tree traversals so the trace attributes the fetch split the same way
    the counters do. *)

val set_redo_hook : t -> (int -> unit) option -> unit
(** Instant recovery's replay-on-touch hook.  While set, the hook runs
    with the page id at the top of every [get] (hits included — analysis
    installs dirty images straight into the cache) and before every frame
    flush (eviction, lazy writer, checkpoint, explicit), so a page can
    neither be served nor written back while its redo is still pending.
    The hook must be re-entrant: the [get]s it performs run it again. *)

val set_lazy_writer_enabled : t -> bool -> unit
(** Recovery drivers switch the background writer off during their passes
    (a recovering system defers cleaning until it is open for business) and
    back on afterwards. *)

val flush_one_dirty : t -> bool
(** Background-writer step: flush (without evicting) the next dirty
    unpinned frame in sweep order; [false] if none exists.  Models the
    lazy writer whose flush activity feeds the WrittenSets that let the
    DPT prune.  When no frame is dirty, or none can have become flushable
    since the last sweep that found nothing, it returns [false] in O(1),
    leaving the sweep position where a full fruitless sweep would. *)

val flush_page : t -> int -> unit
(** Force the page's image to the store (WAL first); fires [on_flush]. *)

val flush_all_dirty : t -> unit

val begin_checkpoint_epoch : t -> unit
(** Flip the epoch bit: pages dirtied from now on belong to the new epoch
    (§3.2). *)

val flush_previous_epoch : t -> unit
(** Flush every frame still dirty from before the last epoch flip — the
    penultimate checkpoint's flush phase. *)

val dirty_pids : t -> int list
(** Pids of all dirty frames — ground truth for DPT safety tests. *)
