(** Scaled reproduction of the paper's experimental setup (§5.2) and the
    harness that runs crash + side-by-side recovery.

    The paper's table is 3.5 GB — 436,000 pages, 10^8 rows — with caches of
    64 MB … 2048 MB (2–60 % of the database), a checkpoint interval of
    40,000 updates, 10 checkpoints before the crash, and a ~100-update log
    tail after the last Δ/BW record.  [paper_setup ~scale] divides every
    size by [scale], preserving the ratios that drive the results
    (cache:database, DPT:cache, tail:interval); see DESIGN.md §1. *)

type protocol = { checkpoints : int; interval : int; tail : int; loser_ops : int }

type scaled = {
  label : string;
  config : Deut_core.Config.t;
  spec : Workload.spec;
  protocol : protocol;
  cache_mb_equiv : int;  (** paper-equivalent cache size in MB *)
}

val paper_setup :
  ?config:Deut_core.Config.t ->
  ?scale:int ->
  ?ckpt_multiplier:int ->
  ?dpt_mode:Deut_core.Config.dpt_mode ->
  ?checkpoint_mode:Deut_core.Config.checkpoint_mode ->
  ?key_dist:Workload.key_dist ->
  cache_mb:int ->
  unit ->
  scaled
(** [cache_mb] is the paper-equivalent cache size (64 … 2048).
    [ckpt_multiplier] scales the checkpoint interval (Appendix C's ci1,
    5×ci1, 10×ci1).  Default [scale] is 32.  The setup's config is
    [config] (default [Config.default]) with the cache, Δ period, DPT and
    checkpoint modes, seed and [shards = 1] set for the paper's cell. *)

(** A crashed system ready for side-by-side recovery: the shared crash
    image, the oracle, and normal-execution measurements. *)
type crash_run = {
  image : Deut_core.Crash_image.t;
  driver : Driver.t;  (** for its oracle; the driver's db is dead *)
  dirty_at_crash : int;
  cached_at_crash : int;
  dirty_fraction : float;  (** dirty pages / cache capacity — Figure 2(b) *)
  db_pages : int;
  deltas_total : int;
  bws_total : int;
  delta_bytes : int;  (** total Δ-record payload logged — the DC's overhead *)
  bw_bytes : int;
  updates_run : int;
}

type build_cache
(** Memoizes [build] by setup.  Sound because [build] is deterministic in
    its [scaled] argument; recoveries copy the crash image before mutating
    anything, so a cached run can back any number of them.  Safe to share
    across domains: a mutex guards the table and published runs have
    sealed oracles (see {!Oracle.seal}).  Concurrent requests for one
    setup each build it (no sweep makes them).  Costs memory:
    every cached crash image (store + log) stays live until evicted — an
    LRU bound of [max_entries] caps how many. *)

val build_cache : ?max_entries:int -> unit -> build_cache
(** [max_entries] defaults to 16. *)

val drop_cache : build_cache -> unit
(** Empty the cache, releasing every retained crash image. *)

val build : ?cache:build_cache -> scaled -> crash_run
(** Load, warm to cache equilibrium, run the crash protocol, leave one
    uncommitted transaction, crash.  Thread-safe when [cache] is given. *)

val run_method : crash_run -> Deut_core.Recovery.method_ -> Deut_core.Recovery_stats.t
(** Recover with the given method from (a copy of) the shared image, under
    the image's config, and verify the result against the oracle; raises
    [Failure] on divergence — a benchmark must never report timings for an
    incorrect recovery. *)

val paper_crash :
  ?cache:build_cache ->
  ?config:Deut_core.Config.t ->
  ?scale:int ->
  cache_mb:int ->
  Deut_core.Recovery.method_ list ->
  crash_run
(** [build] of [paper_setup ?config ?scale ~cache_mb ()] for recovery with the
    given methods: fuzzy ARIES checkpointing when [Aries_ckpt] is among
    them (its redo needs the ARIES checkpoint DPT), the default
    penultimate checkpointing otherwise. *)

val verify : string -> Driver.t -> Deut_core.Db.t -> unit
(** [verify what driver db] checks [db] against [driver]'s oracle and the
    B-tree invariants; raises [Failure] naming [what] on divergence. *)

val recover_verified :
  ?config:Deut_core.Config.t ->
  crash_run ->
  Deut_core.Recovery.method_ ->
  Deut_core.Db.t * Deut_core.Recovery_stats.t
(** Recover from a copy of the image — under [config] instead of the
    image's own when given — and verify the result against the oracle;
    raises [Failure] on divergence. *)

val recover_traced :
  ?meta:(string * string) list ->
  config:Deut_core.Config.t ->
  crash_run ->
  Deut_core.Recovery.method_ ->
  Deut_core.Db.t * Deut_core.Recovery_stats.t * Deut_obs.Trace.t * Deut_obs.Analysis.t
(** [recover_verified] under a [config] with tracing on, returning the
    recovery's trace and its profile ([Analysis.of_trace ?meta]), which
    {!reconcile} has checked against the counters.  Raises [Failure] with
    {!Deut_obs.Trace.overflow_advice} when the ring dropped events, so no
    caller profiles a truncated run. *)

val reconcile : Deut_core.Recovery_stats.t -> Deut_obs.Analysis.t -> unit
(** Check a profile, mined from the trace alone, against the counters the
    engine kept for the same recovery: page and index fetches, stalls,
    prefetch claims (hit + late) and issued pages, redo ops, and the stall
    mass (to 0.01 µs).  Raises [Failure] naming every field that
    disagrees. *)

val run_all :
  crash_run ->
  Deut_core.Recovery.method_ list ->
  (Deut_core.Recovery.method_ * Deut_core.Recovery_stats.t) list

val store_digest : Deut_core.Db.t -> string
(** Digest of the stable page store after flushing every dirty frame — the
    complete database image, byte for byte.  Together with
    [Client_sched.logical_digest] this is the determinism gate's currency:
    recovered state must hash identically at every domain count. *)
