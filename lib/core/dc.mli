(** The data component (DC): pages, B-trees, cache, and the physical
    bookkeeping for recovery.

    The DC owns data placement.  It maps (table, key) to pages, manages the
    buffer pool, logs SMOs and Δ/BW records, and at recovery time runs
    {b before} the TC: its recovery pass replays SMO page images (so
    B-trees are well-formed for logical redo) and builds the DPT from
    Δ-log records per Algorithm 4.

    The TC talks to it through a narrow interface: [prepare]/[apply] for
    data operations, [eosl] (end of stable log) and [rssp] (redo scan
    start point = checkpoint flush request) for the two control operations
    of §4.1, and the redo entry points used by the recovery drivers. *)

type t

val create :
  ?trace:Deut_obs.Trace.t ->
  config:Config.t ->
  clock:Deut_sim.Clock.t ->
  disk:Deut_sim.Disk.t ->
  store:Deut_storage.Page_store.t ->
  pool:Deut_buffer.Buffer_pool.t ->
  dc_log:Deut_wal.Log_manager.t ->
  tc:Dc_access.tc_endpoint ->
  unit ->
  t
(** [dc_log] is where the DC's own records (SMOs, Δ, BW) go — the shared
    log in the integrated layout, its own log in the split layout.  Wires
    the buffer-pool hooks: dirty/flush events feed the monitor, and flushes
    enforce WAL on both logs (the TC log through [tc]'s [Force_upto]
    message — the DC's only request against the TC — and the DC log
    directly). *)

val config : t -> Config.t
val pool : t -> Deut_buffer.Buffer_pool.t
val store : t -> Deut_storage.Page_store.t
val monitor : t -> Monitor.t
val clock : t -> Deut_sim.Clock.t

val format : t -> unit
(** Initialise the catalog on a fresh store. *)

val create_table : t -> table:int -> unit
val open_tables : t -> unit
(** Attach to every table in the (recovered) catalog. *)

val tree : t -> table:int -> Deut_btree.Btree.t
val tables : t -> int list

val has_table : t -> table:int -> bool
(** Whether the table is attached or present in the catalog (checked
    before routing an operation, so a bad table id is a typed error
    rather than a failed catalog lookup). *)

(** {2 Normal execution} *)

val prepare : t -> table:int -> key:int -> op:Deut_wal.Log_record.op_kind -> value_len:int
  -> Deut_btree.Btree.write_target
(** Route to the leaf, splitting as needed so the apply cannot fail;
    returns the before-image for the TC's log record. *)

val apply :
  t ->
  table:int ->
  pid:int ->
  key:int ->
  op:Deut_wal.Log_record.op_kind ->
  value:string option ->
  lsn:Deut_wal.Lsn.t ->
  unit

val read : t -> table:int -> key:int -> string option

val eosl : t -> Deut_wal.Lsn.t -> unit
(** TC's "end of stable log" notification; the value feeds FW-LSN and
    TC-LSN fields of Δ/BW records. *)

val rssp : t -> Deut_wal.Lsn.t -> unit
(** Redo-scan-start-point request: flip the checkpoint epoch, flush every
    page dirtied before it, and emit the pending Δ/BW records so that the
    flush events precede the end-checkpoint record on the log.  Also
    records the DC-log archive point: everything the DC logged before this
    checkpoint is now reflected in stable pages. *)

val dc_archive_point : t -> Deut_wal.Lsn.t
(** DC-log position before the last completed checkpoint's flush — the DC
    log may be archived up to here ([Lsn.nil] before any checkpoint). *)

val dc_log : t -> Deut_wal.Log_manager.t

val tick_update : t -> unit

val set_merge_allowed : t -> bool -> unit
(** Gate the B-trees' opportunistic leaf merging (off during redo). *)

val set_redo_track : t -> int option -> unit
(** Override the trace lane for subsequent [redo_op] spans ([None] restores
    the recovery track).  Parallel redo points this at the active worker's
    lane before each record so the trace shows per-worker replay. *)

(** {2 Recovery} *)

val dc_recovery :
  t ->
  log:Deut_wal.Log_manager.t ->
  from:Deut_wal.Lsn.t ->
  bckpt:Deut_wal.Lsn.t ->
  build_dpt:bool ->
  stats:Recovery_stats.cells ->
  unit
(** The DC redo/analysis pass (§4.2): scan the DC's records starting at
    [from] (the checkpoint position in the integrated layout; the retained
    start of the short DC log in the split layout), replay SMO page images
    (DC-pLSN-guarded), and — when [build_dpt] — construct the DPT and
    prefetch list from Δ-log records with TC-LSN beyond [bckpt]
    (Algorithm 4; exact-LSN and reduced-logging record shapes of Appendix D
    are handled by the record contents).  Also records the last Δ record's
    TC-LSN, the boundary between DPT-tested redo and tail fallback. *)

val dpt : t -> Dpt.t
val pf_list : t -> int array
val last_delta_tclsn : t -> Deut_wal.Lsn.t

val set_dpt : t -> Dpt.t -> unit
(** Install an externally built DPT (the SQL analysis pass, Algorithm 3). *)

val preload_indexes : t -> stats:Recovery_stats.cells -> unit
(** Appendix A.1: load all internal index pages into the cache. *)

val redo_logical :
  t ->
  lsn:Deut_wal.Lsn.t ->
  view:Deut_wal.Log_record.redo_view ->
  use_dpt:bool ->
  stats:Recovery_stats.cells ->
  unit
(** Algorithms 2 (without DPT) and 5 (with): traverse the B-tree by key,
    apply the DPT/rLSN tests when the operation predates the last Δ
    record, fetch the page, apply the pLSN test, re-execute if needed. *)

val redo_physiological :
  t ->
  lsn:Deut_wal.Lsn.t ->
  view:Deut_wal.Log_record.redo_view ->
  use_dpt:bool ->
  stats:Recovery_stats.cells ->
  unit
(** Algorithm 1: DPT/rLSN tests on the record's pid, then pLSN test. *)

val redo_smo :
  t ->
  lsn:Deut_wal.Lsn.t ->
  smo:Deut_wal.Log_record.smo ->
  dpt_test:bool ->
  stats:Recovery_stats.cells ->
  unit
(** Install the SMO's page images where the DC pLSN shows them missing.
    With [dpt_test], pages absent from the DPT are skipped without IO (the
    physiological pass); without, the stable DC pLSN decides (the DC pass,
    which runs before any DPT exists). *)

(** {2 The protocol server} *)

val handle : t -> Dc_access.request -> Dc_access.reply
(** Serve one {!Dc_access} request — the single dispatch every transport
    (in-process or networked) lands on, so the message protocol and the
    direct API above cannot drift apart.  [Apply] with [tick] folds the
    Δ-monitor update tick into the same message. *)
