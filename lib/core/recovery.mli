(** Recovery drivers: the five methods compared side-by-side in §5.2, plus
    the classic-ARIES-checkpointing ablation.

    - [Log0] — basic logical redo (Algorithm 2): every update re-traverses
      the B-tree and fetches its page.
    - [Log1] — logical redo with the Δ-record-built DPT (Algorithms 4+5),
      no prefetch.
    - [Log2] — Log1 plus index preloading and PF-list data prefetch
      (Appendix A).
    - [Sql1] — physiological redo with the BW-record-built DPT
      (Algorithms 3+1), no prefetch.
    - [Sql2] — Sql1 plus log-driven data prefetch.
    - [Aries_ckpt] — physiological redo with the DPT captured at
      checkpoints (§3.1); requires the workload to have run in
      [Aries_fuzzy] checkpoint mode.
    - [InstantLog2] — Log2's analysis, then open for business immediately:
      each page's slice of the redo range replays on first touch (a
      buffer-pool fault hook), with a background drain covering the rest.
      Through {!recover} the drain completes before the engine is
      returned, making the result byte-identical to [Log2]; the staged
      {!recover_instant} API exposes the open-while-redoing form.

    All methods run from deep copies of the same crash image, finish with
    the same logical undo pass, and report {!Recovery_stats}. *)

type method_ = Log0 | Log1 | Log2 | Sql1 | Sql2 | Aries_ckpt | InstantLog2

val method_to_string : method_ -> string
val all_methods : method_ list
(** The five paper methods, in the paper's order (no [Aries_ckpt]). *)

val all_methods_with_instant : method_ list
(** [all_methods] plus [InstantLog2] — the six modes the fuzz harness and
    crash-point tests sweep. *)

val recover :
  ?config:Config.t ->
  ?undo_fault_after_clrs:int ->
  Crash_image.t ->
  method_ ->
  Engine.t * Recovery_stats.t
(** Instantiate the image and run the full recovery sequence:
    analysis/DC-recovery, redo, undo.  The returned engine is ready for
    normal execution.  [config] overrides the image's configuration (e.g.
    a different cache size at the replica).  The stats are the record the
    engine's [recovery.*] gauges read; nothing writes to it once [recover]
    returns.

    [undo_fault_after_clrs] is test-only fault injection: abandon the undo
    pass after that many CLRs, returning an engine in the state of a
    system that crashed mid-undo (crash it and recover again to exercise
    CLR/undo-next resumption). *)

(** {1 Per-shard recovery} *)

val recover_shard : Engine.t -> int -> Recovery_stats.t
(** Live recovery of one crashed shard ([Engine.crash_shard]) on a running
    engine: replay its own DC log (SMO images + DPT), then its stripe of
    the shared TC log from the master record — the TC is alive, so its
    volatile tail is readable and no sibling's commit is lost — and put
    the shard back in service.  No undo: [Db.crash_shard] requires a
    quiesced transaction table.  Returns the rejoin's own statistics
    (analysis and redo time, records scanned, redo applied, pages
    fetched); they are not registered as [recovery.*] gauges, which
    belong to the engine's last full restart.  Raises [Invalid_argument]
    if the shard is not down. *)

(** {1 Instant recovery}

    The staged form of [InstantLog2].  [recover_instant] runs analysis and
    the sequential log scan, collects the keys each loser transaction
    wrote (in-memory log reads), and returns an engine that is already
    open for transactions — {!Recovery_stats.t.ttft_us} marks that
    moment; no data page has been touched yet.  Everything else is
    deferred and demand-driven:

    - Any page touch from then on (client read or update, eviction,
      lazy-writer or checkpoint flush) first builds the per-page history
      index over the redo range (once, with a batched warm-up of the
      index levels) and replays that page's pending slice, so no page is
      ever served or written back with redo outstanding.
    - Loser rollback runs at the first client touch of a key a loser
      wrote (the in-memory lock substitute — key locks are not
      persisted), at the first background step, or at
      {!instant_finish}, whichever comes first; its own page touches
      replay on demand through the same hook.

    Callers interleave {!instant_step} with client work on the virtual
    clock until the pending set drains, then call {!instant_finish}
    (idempotent; finishes rollback, drains anything left, re-enables page
    merges, uninstalls the hook and finalises the statistics). *)

type instant

val recover_instant :
  ?config:Config.t -> ?undo_fault_after_clrs:int -> Crash_image.t -> instant

val instant_engine : instant -> Engine.t
(** The recovered engine, open for transactions from the moment
    [recover_instant] returns. *)

val instant_touch_key : instant -> table:int -> key:int -> unit
(** The admission gate, called by the [Db] layer on every keyed client
    operation while redo is pending: touching a key some loser wrote
    forces rollback first.  Cheap no-op otherwise. *)

val instant_force_undo : instant -> unit
(** Run loser rollback now if it has not run yet — called before whole-
    table scans, which cannot be gated per key. *)

val instant_lane : instant -> int list
(** The pids the drain's prefetch lane has yet to offer, in offer order.
    Test seam: the lane's no-drop test checks what each step passed. *)

val instant_step : instant -> bool
(** Finish any deferred recovery work (history index, loser rollback),
    top up the drain's prefetch lane (lane 0, [Config.prefetch_window] /
    [prefetch_chunk], as for Log2) from the pages ahead of it that are
    still pending and in the DPT, then replay one pending page (in
    ascending pid order); [false] when the pending set is empty. *)

val instant_finish : instant -> Recovery_stats.t
(** Drain, re-enable maintenance and finalise the IO accounting
    (idempotent).  Returns the session's live stats record, final from
    here on. *)

(** Exposed for tests: the scan that materialises the redo range and finds
    loser transactions. *)
type scan_result = {
  records : (Deut_wal.Lsn.t * Deut_wal.Log_record.t) array;
  losers : (int * Deut_wal.Lsn.t) list;
  max_txn : int;
}

val scan_log : Deut_wal.Log_manager.t -> from:Deut_wal.Lsn.t -> scan_result

val physiological_analysis :
  ?trace:Deut_obs.Trace.t ->
  aries:bool ->
  Deut_wal.Log_manager.t ->
  from:Deut_wal.Lsn.t ->
  stats:Recovery_stats.t ->
  Dpt.t * Deut_wal.Lsn.t
(** The physiological analysis pass; returns the DPT and the redo scan
    start point.  Without [aries]: Algorithm 3, SQL Server's DPT from
    update pids pruned by BW-log records, redo from [from]; [trace]
    records a [dpt_prune] instant per removed entry.  With [aries]: §3.1,
    the checkpoint-captured DPT plus first mentions in the scan, no
    flush-based pruning, redo from the minimum rLSN.
    Test seam: DPT tests check this pass's table and redo start directly. *)
