(** The transactional component (TC): transaction table, logical logging,
    commit/abort, undo with CLRs, and checkpointing.

    The TC logs operations by (table, key) — it does not know pages.  The
    physiological pid rides along in the record purely so the ARIES/SQL
    baseline can recover from the same log (§5.1).  It coordinates with
    the DC through EOSL (every commit force) and RSSP (each checkpoint),
    the two control operations of §4.1.

    Every interaction with the data side goes through a {!Dc_access.router}
    — the typed message protocol over however many shards the engine
    assembled.  The TC is the sole sequencer of the commit order (its log),
    which is what makes cross-shard transactions atomic: a transaction's
    updates may land on several shards, but its commit record is a single
    point in the single TC log. *)

type t

val create :
  ?trace:Deut_obs.Trace.t ->
  ?flight:Deut_obs.Flight.t ->
  config:Config.t ->
  log:Deut_wal.Log_manager.t ->
  unit ->
  t
(* [trace] records a [ckpt] span (begin-ckpt to end-ckpt force) on the
   recovery track for every checkpoint; [flight] records the begin/end
   checkpoint milestones in the TC's flight-recorder ring. *)

val master : t -> Deut_wal.Lsn.t
(** Begin-checkpoint LSN of the last completed checkpoint — the redo scan
    start point (kept in the "master record" outside the log, as real
    systems do). *)

val set_master : t -> Deut_wal.Lsn.t -> unit

val begin_txn : t -> int
val active_txns : t -> (int * Deut_wal.Lsn.t) array
val restore_txn_state : t -> losers:(int * Deut_wal.Lsn.t) list -> next_txn:int -> unit

val execute :
  t ->
  Dc_access.router ->
  txn:int ->
  table:int ->
  key:int ->
  op:Deut_wal.Log_record.op_kind ->
  value:string option ->
  (unit, Db_error.t) result
(** One data operation: route the key to its shard, [Prepare] there (the
    before-image comes back), log the logical record on the TC log, then
    [Apply] under the record's LSN.  With [Config.locking] on, an
    exclusive key lock is taken first; a conflict returns
    [Error (Lock_conflict _)] and the caller should abort (no-wait
    policy).  A crashed shard returns [Error (Shard_down _)]. *)

val read_lock : t -> txn:int -> table:int -> key:int -> (unit, Db_error.t) result
(** Shared key lock for a transactional read (no-op unless locking is on). *)

val lock_conflicts : t -> int
(** Cumulative no-wait lock refusals this engine lifetime. *)

val locked_keys : t -> int
(** Keys currently locked (any mode). *)

val commit_count : t -> int
(** Transactions committed this engine lifetime. *)

val abort_count : t -> int
(** Transactions explicitly aborted this engine lifetime (the recovery
    undo pass does not count — it calls {!undo_txn} directly). *)

val commit : t -> Dc_access.router -> txn:int -> bool
(** Append the commit record; force the log every [Config.group_commit]
    commits.  Returns whether this commit is durable yet — [false] means it
    sits in the volatile tail until the next force (or [flush_commits])
    and would be undone by a crash before then. *)

val flush_commits : t -> Dc_access.router -> unit
(** Force the log now, making every queued commit durable. *)

val abort : t -> Dc_access.router -> txn:int -> unit
(** Roll the transaction back through its chain, logging CLRs. *)

exception Undo_interrupted of int
(** Raised by [undo_txn] when the test-only fault fires; carries the number
    of CLRs written before the "crash". *)

val undo_txn :
  ?fault_after_clrs:int -> t -> Dc_access.router -> txn:int -> last:Deut_wal.Lsn.t -> int
(** Undo machinery shared by [abort] and the recovery undo pass: walk the
    backward chain from [last], apply logical compensations (CLR-logged,
    redo-only), skip over already-compensated work via undo-next, finish
    with an abort record.  Returns the number of CLRs written.

    [fault_after_clrs] is fault injection for tests: stop (raising
    {!Undo_interrupted}) after that many CLRs, before the abort record —
    the state of a system that crashed mid-undo.  A subsequent recovery
    must resume compensation at the last CLR's undo-next, never
    compensating the same update twice. *)

val loser_keys : t -> txn:int -> last:Deut_wal.Lsn.t -> (int * int) list
(** The [(table, key)] pairs the loser wrote, read off the same backward
    chain {!undo_txn} compensates (following undo-next over CLRs).  Pure
    in-memory log reads — no data page is touched.  Instant recovery's
    lock substitute: these keys stay blocked until rollback runs. *)

val log_archive_point : t -> Deut_wal.Lsn.t
(** The LSN up to which the log may be archived: the minimum of the master
    record and every active transaction's first LSN ([Lsn.nil] if that is
    unknown, blocking archiving). *)

val checkpoint : t -> Dc_access.router -> unit
(** [Penultimate]: begin-ckpt → RSSP to every shard (each flushes
    everything dirtied before it) → end-ckpt (§3.2).  [Aries_fuzzy]:
    begin-ckpt → capture the DC's runtime DPT in the log → end-ckpt, no
    flushing (§3.1; single-shard only).  Raises [Dc_access.Unavailable]
    if a shard is down — checkpoints wait until every shard is back. *)
