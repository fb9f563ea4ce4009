(** Public facade: a transactional key-value store with logical (TC/DC)
    recovery — the paper's system as a library.

    Typical use:
    {[
      let db = Db.create () in
      Db.create_table db ~table:1;
      let txn = Db.begin_txn db in
      (match Db.insert db txn ~table:1 ~key:42 ~value:"hello" with
      | Ok () -> Db.commit db txn
      | Error e -> Db.abort db txn; prerr_endline (Db.error_to_string e));
      Db.checkpoint db;
      let image = Db.crash db in
      let db', stats = Db.recover image Recovery.Log2 in
      assert (Db.read db' ~table:1 ~key:42 = Some "hello")
    ]} *)

type t

(** Typed errors on the data path (re-export of {!Db_error.t}).  The
    retry loop of a concurrent client matches on [Lock_conflict] — no
    string parsing. *)
type error = Db_error.t =
  | Lock_conflict of { holder : int }
  | Txn_finished
  | No_such_table of int
  | Duplicate_key of { table : int; key : int }
  | Missing_key of { table : int; key : int }
  | Shard_down of int

val error_to_string : error -> string

(** Session-typed transaction handles.  A handle knows its owning db and
    client and whether it has finished: using it on another db raises
    [Invalid_argument] immediately, and using it after commit/abort is
    [Error Txn_finished] on the data path (commit/abort themselves raise
    — finishing twice is always a caller bug). *)
module Txn : sig
  type t

  val id : t -> int
  (** The TC's transaction id (log records, lock table, oracle keys). *)

  val client : t -> int
  (** The simulated client that began the transaction (0 by default). *)

  val finished : t -> bool
end

val create : ?config:Config.t -> unit -> t
val engine : t -> Engine.t
val config : t -> Config.t

val create_table : t -> table:int -> unit
(** Create the table on every shard (its keys stripe across all of them).
    Raises [Invalid_argument] while any shard is down. *)

val tables : t -> int list

(** {2 Transactions} *)

val begin_txn : ?client:int -> t -> Txn.t
(** Start a transaction; [client] tags the handle (and its trace lane)
    for concurrent workloads. *)

val insert : t -> Txn.t -> table:int -> key:int -> value:string -> (unit, error) result
val update : t -> Txn.t -> table:int -> key:int -> value:string -> (unit, error) result
val delete : t -> Txn.t -> table:int -> key:int -> (unit, error) result

val read : t -> table:int -> key:int -> string option
(** Latch-free read outside any transaction (no lock, no isolation).
    Routed to the key's shard; raises {!Dc_access.Unavailable} if that
    shard is down. *)

val read_locked : t -> Txn.t -> table:int -> key:int -> (string option, error) result
(** Transactional read: takes a shared key lock first when [Config.locking]
    is enabled; [Error (Lock_conflict _)] means the caller should abort. *)

val commit : t -> Txn.t -> unit
(** Commit.  With [Config.group_commit] > 1 the commit may remain in the
    volatile log tail until the group's force; [commit_durable] reports
    which, and [flush_commits] forces immediately.  Raises
    [Invalid_argument] if the handle already finished. *)

val commit_durable : t -> Txn.t -> bool
(** Like [commit], returning whether the commit is already durable. *)

val flush_commits : t -> unit
(** Force the log, making every queued group commit durable. *)

val abort : t -> Txn.t -> unit
(** Roll back.  Raises [Invalid_argument] if the handle already finished. *)

val put : t -> table:int -> key:int -> value:string -> unit
(** Auto-commit upsert convenience. *)

(** {2 Checkpointing, crash, recovery} *)

val checkpoint : t -> unit
(** Raises [Invalid_argument] while a shard is down: RSSP must flush every
    shard before the master record may advance. *)

val compact_log : t -> unit
(** Archive log bytes no recovery could need (before the last completed
    checkpoint and every active transaction's first record).  Long-running
    workload drivers call this to bound memory; it has no observable
    effect on recovery. *)

val crash : t -> Crash_image.t
(** Capture what survives: stable pages, stable log prefix, master record.
    The returned image is reusable — each recovery runs on its own copies.
    The crashed [t] is poisoned: any later operation on it raises
    [Invalid_argument] instead of touching post-crash engine state. *)

val recover : ?config:Config.t -> Crash_image.t -> Recovery.method_ -> t * Recovery_stats.t
(** [recover image InstantLog2] drains the background redo fully before
    returning — the offline-equivalent (and determinism-gated) form.  Use
    {!recover_instant} for the open-while-redoing form. *)

(** {2 Shards}

    With [Config.shards] > 1 the key space stripes over that many data
    components ([key mod shards]), each with its own store, cache and DC
    log, all driven by the one TC through the {!Dc_access} protocol.  A
    single shard can crash and recover while its siblings keep serving:
    operations routed to the down shard return [Error (Shard_down _)]
    (reads raise {!Dc_access.Unavailable}); everything else proceeds. *)

val shard_count : t -> int

val crash_shard : t -> shard:int -> unit
(** Kill one data component: its cache (dirty pages included) and unforced
    DC-log tail vanish; stable pages and the stable DC-log prefix survive.
    The db handle stays live.  Raises [Invalid_argument] on single-shard
    engines (use {!crash}), if the shard is already down, or while any
    transaction is active — quiesce first. *)

val recover_shard : t -> shard:int -> Recovery_stats.t
(** Replay the crashed shard — its own DC log, then its stripe of the TC
    log from the master record — and put it back in service.  Runs on the
    live engine; siblings and the TC are untouched.  Returns what the
    rejoin did ({!Recovery.recover_shard}). *)

(** {2 Instant recovery}

    The staged form of [InstantLog2]: the returned db serves transactions
    immediately — any touched page replays its pending redo slice first —
    while the caller interleaves {!instant_step} background replay with
    client work.  [checkpoint] and [compact_log] are deferred (raise
    [Invalid_argument]) until {!instant_finish}; crashing mid-drain is
    legal and recovers exactly like a single crash. *)

type instant

val recover_instant :
  ?config:Config.t -> ?undo_fault_after_clrs:int -> Crash_image.t -> instant

val instant_db : instant -> t
(** Open for transactions from the moment [recover_instant] returns. *)

val instant_step : instant -> bool
(** Replay one pending page in the background; [false] once drained. *)

val instant_finish : instant -> Recovery_stats.t
(** Drain, re-enable maintenance and finalise statistics (idempotent).
    [Recovery_stats.t.ttft_us] vs [drained_us] is the availability win. *)

(** {2 Inspection} *)

val fold_table : t -> table:int -> init:'a -> f:('a -> int -> string -> 'a) -> 'a

val fold_range :
  t -> table:int -> lo:int -> hi:int -> init:'a -> f:('a -> int -> string -> 'a) -> 'a
(** Fold over entries with lo ≤ key < hi, in key order. *)

val scan : t -> table:int -> lo:int -> hi:int -> (int * string) list
(** Entries with lo <= key < hi, sorted by key. *)

val dump_table : t -> table:int -> (int * string) list

val iter_leaves : t -> table:int -> shard:int -> (Deut_storage.Page.t -> unit) -> unit
(** The table's leaf pages on one shard, lowest keys first, for a check
    that reads cells in place ({!Deut_btree.Node.match_leaf}) instead of
    copying rows out.  The shard holds exactly the keys
    {!Dc_access.striped} assigns it.  Guarded like [fold_table]: pending
    instant-recovery undo runs first, and it raises [Invalid_argument]
    while any shard is down. *)

val check_integrity : t -> (unit, string) result
(** Structural invariants of every table's B-tree. *)

val metric : t -> string -> int
(** The engine counter registered under [name], truncated to an integer —
    the registry is the one stats namespace; OBSERVABILITY.md lists every
    name, its unit and whether it is summed over shards.
    @raise Not_found if no such metric is registered. *)

val now_ms : t -> float

val stats_string : t -> string
(** The engine's metrics registry rendered by {!Deut_obs.Metrics.render}:
    one [name value] line per gauge and a bucket listing per histogram. *)
