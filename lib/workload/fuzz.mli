(** Randomized crash-workload generator, shared by the crash-recovery
    fuzz suite and [repro_cli forensics].

    Each seed deterministically drives a generated workload (multi-op
    transactions with inserts/updates/deletes, commits, aborts,
    checkpoints, log compaction, in-flight losers) over a small cache,
    while a reservoir sample over the log-append hook picks ONE record
    boundary uniformly at random and snapshots a crash image there —
    capture-at-append, so post-boundary flushes cannot leak into the
    image.  The image carries the flight recorder's snapshot, which is
    what lets the CLI print post-crash forensics for a failing seed
    without re-running the test. *)

val tables : int list
(** The tables every generated workload creates and writes.
    Test seam: the fuzz suite dumps and probes exactly these tables. *)

val expected_of_log : Deut_wal.Log_manager.t -> ((int * int) * string) list
(** The committed-prefix oracle: the [(table, key) -> value] map implied
    by the log's committed transactions, sorted.
    Test seam: the fuzz and crash-point suites check recoveries with it. *)

val build_image : ?config:Deut_core.Config.t -> int -> Deut_core.Crash_image.t
(** [build_image seed] runs the seed's workload and returns the uniformly
    sampled crash image.  The engine is [config] (default
    [Config.default]; its shard count included) with small pages and
    cache, archiving on (the oracle folds the log from genesis) and key
    locking on (open transactions overlap).  Deterministic: same seed and
    [config], same image. *)

val methods_for : shards:int -> Deut_core.Recovery.method_ list
(** The recovery methods runnable at that shard count (sharding bars the
    physiological methods and staged instant recovery).
    Test seam: the fuzz suite runs every method the shard count allows. *)

val corpus : int list
(** The default fixed seed corpus the fuzz suite runs.
    Test seam: the fuzz suite's fixed seeds. *)

val repro_hint : int -> string
(** A copy-paste repro command for a failing seed.
    Test seam: the fuzz suite prints it for a failing seed. *)
