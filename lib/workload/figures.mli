(** Runners and renderers for every table and figure in the paper's
    evaluation (§5.3, Appendices B, C, D).

    Each [run_*] performs the workload + crash + side-by-side recoveries
    (verifying every recovery against the oracle) and returns structured
    results; each renderer prints a paper-shaped text table.  Used by both
    [bench/main.exe] and the CLI.

    Every [run_*] builds its cells from [config] (default [Config.default];
    the binaries pass their [Config.of_env] result).  Sweeps fan
    independent cells across [config.domains] real domains, which changes
    wall clock only: simulated numbers and digests are identical at any
    width. *)

val digests_agree : string -> (string * string) list -> unit
(** [digests_agree sweep cells] is the determinism gate shared by every
    sweep: each [(coordinates, digest)] pair must carry the first pair's
    digest.  Raises [Failure] naming [sweep], both cells' coordinates and
    both digests otherwise. *)

val paper_cache_sizes : int list
(** The paper's cache sizes in MB: 64, 128, 256, 512, 1024, 2048. *)

(** One cache-size cell of the Figure 2 experiment. *)
type fig2_cell = {
  cache_mb : int;  (** paper-equivalent cache size *)
  pool_pages : int;
  db_pages : int;
  dirty_pct : float;  (** Figure 2(b): dirty % of the cache at crash *)
  deltas_seen : int;  (** Figure 2(c): Δ records seen by analysis *)
  bws_seen : int;  (** Figure 2(c): BW records seen by analysis *)
  methods : (Deut_core.Recovery.method_ * Deut_core.Recovery_stats.t) list;
  build_wall_s : float;
      (** real (wall-clock) seconds spent building the workload and crash
          image for this cell — runtime cost, not simulated time *)
  method_walls : (Deut_core.Recovery.method_ * float) list;
      (** real seconds per recover+verify, in [methods] order *)
  digests : (Deut_core.Recovery.method_ * (string * string)) list;
      (** (store, logical) digest of each method's recovered state — must be
          byte-identical at every [domains] setting (the determinism gate) *)
}

val run_fig2 :
  ?cache:Experiment.build_cache ->
  ?scale:int ->
  ?cache_sizes:int list ->
  ?methods:Deut_core.Recovery.method_ list ->
  ?progress:(string -> unit) ->
  ?config:Deut_core.Config.t ->
  unit ->
  fig2_cell list
(** Defaults: scale 64, the paper's cache sizes 64…2048 MB, the paper's
    five methods.  Fans the builds, then the full (cache size, method)
    recovery grid, across [config.domains] domains. *)

val fig2a : fig2_cell list -> string
(** Figure 2(a): redo time (simulated ms) per method per cache size. *)

val phase_table : fig2_cell list -> string
(** Per-phase breakdown: simulated ms in analysis / redo / undo for every
    (cache size, method) pair of a Figure 2 run. *)

val fig2b : fig2_cell list -> string
val fig2c : fig2_cell list -> string

val sec53 : fig2_cell list -> string
(** §5.3's headline claims, paper value vs measured. *)

val costmodel : fig2_cell list -> string
(** Appendix B equations (1)–(3): predicted vs measured page fetches. *)

(** The Figure 2 sweep run sequentially and fanned across real domains. *)
type domains_cell = {
  dm_domains : int;  (** domains the parallel sweep ran on *)
  dm_cores : int;  (** {!Deut_sim.Domain_pool.available_cores} at run time *)
  dm_seq_wall_s : float;
  dm_par_wall_s : float;
  dm_seq : fig2_cell list;  (** the sequential sweep's cells *)
  dm_par : fig2_cell list;  (** the parallel sweep's cells, same order *)
}

val domains_speedup : domains_cell -> float
(** Sequential over parallel wall clock; 0 when the parallel run took no
    measurable time. *)

val run_domains :
  ?scale:int ->
  ?cache_sizes:int list ->
  ?methods:Deut_core.Recovery.method_ list ->
  ?domains:int ->
  ?progress:(string -> unit) ->
  ?config:Deut_core.Config.t ->
  unit ->
  domains_cell
(** {!run_fig2} at 1 domain, then at [domains] (default: [config.domains]
    when above 1, else as many of the machine's cores as the sweep can
    use, capped at 4), each with a fresh build cache so the parallel run
    cannot reuse the sequential run's builds.  Raises [Failure] through
    {!digests_agree} when any cell's store or logical digests differ
    between the two sweeps — the determinism gate. *)

(** One checkpoint-interval cell of the Figure 3 experiment. *)
type fig3_cell = {
  multiplier : int;
  methods3 : (Deut_core.Recovery.method_ * Deut_core.Recovery_stats.t) list;
}

val run_fig3 :
  ?cache:Experiment.build_cache ->
  ?scale:int ->
  ?cache_mb:int ->
  ?multipliers:int list ->
  ?progress:(string -> unit) ->
  ?config:Deut_core.Config.t ->
  unit ->
  fig3_cell list
(** Appendix C: checkpoint interval ci1, 5×ci1, 10×ci1 at the 512 MB
    cache.  Fans the interval cells across real domains. *)

val fig3 : fig3_cell list -> string

(** One Appendix-D ablation row. *)
type appd_row = {
  label : string;
  dpt_size : int;
  redo_ms : float;
  data_fetches : int;
  delta_records : int;
  delta_kb : float;  (** DC logging overhead during normal execution *)
}

val run_appd :
  ?cache:Experiment.build_cache -> ?scale:int -> ?cache_mb:int -> ?progress:(string -> unit) ->
  ?config:Deut_core.Config.t -> unit -> appd_row list
(** The DC-logging spectrum of Appendix D — Standard, Perfect (D.1),
    Reduced (D.2), all recovered with Log1 — plus classic ARIES
    checkpointing recovered physiologically, as ablation baselines. *)

val appd : appd_row list -> string

(** One row of the split-vs-integrated log-layout comparison (§4.2). *)
type split_row = {
  layout : string;
  smethod : Deut_core.Recovery.method_;
  s_analysis_ms : float;
  s_redo_ms : float;
  s_log_pages : int;  (** log pages read across both log devices *)
  tc_log_kb : float;  (** retained TC-log bytes at crash *)
  dc_log_kb : float;  (** retained DC-log bytes at crash (= TC when integrated) *)
}

val run_split :
  ?cache:Experiment.build_cache ->
  ?scale:int -> ?cache_mb:int -> ?progress:(string -> unit) -> ?config:Deut_core.Config.t ->
  unit -> split_row list
(** The Deuteronomy architecture proper vs the paper's integrated
    prototype: same workload, Log1/Log2 recovery from each layout.  Shows
    §4.2's claim that the DC redo/analysis pass scans a much smaller log. *)

val split_table : split_row list -> string

(** One (cache size, method, worker count) cell of the parallel-redo sweep. *)
type workers_cell = {
  w_cache_mb : int;
  w_method : Deut_core.Recovery.method_;
  w_count : int;  (** [Config.redo_workers] used for this recovery *)
  w_stats : Deut_core.Recovery_stats.t;
  w_stall_wait : Deut_core.Engine_stats.latency;  (** cache.stall_wait_us after recovery *)
  w_data_io : Deut_core.Engine_stats.latency;  (** disk.data.io_us after recovery *)
}

val run_workers :
  ?cache:Experiment.build_cache ->
  ?scale:int ->
  ?cache_sizes:int list ->
  ?workers:int list ->
  ?methods:Deut_core.Recovery.method_ list ->
  ?progress:(string -> unit) ->
  ?config:Deut_core.Config.t ->
  unit ->
  workers_cell list
(** One crash per cache size, recovered with every (method, worker count)
    pair; every recovery is oracle-verified.  Defaults: scale 64, caches
    {64, 512} MB, workers {1, 2, 4, 8}, the paper's five methods.  Fans
    the builds, then the flattened recovery grid, across real domains. *)

val workers_table : workers_cell list -> string
(** Redo time, speedup vs one worker, and stall / data-IO latency
    percentiles per (cache, method, workers) row. *)

(** One (clients, group_commit) cell of the concurrency sweep. *)
type concurrency_cell = {
  c_clients : int;  (** [Config.clients] used for this run *)
  c_group_commit : int;
  c_stats : Client_sched.stats;
  c_digest : string;  (** logical digest of the final store — equal in every cell *)
}

val run_concurrency :
  ?scale:int ->
  ?cache_mb:int ->
  ?clients:int list ->
  ?group_commits:int list ->
  ?txns:int ->
  ?progress:(string -> unit) ->
  ?config:Deut_core.Config.t ->
  unit ->
  concurrency_cell list
(** Fresh database per cell, same workload seed everywhere; [txns]
    transactions through {!Driver.run_concurrent}, oracle-verified, and
    the final logical digest cross-checked to be identical in every cell
    (raising otherwise).  Defaults: scale 64, cache 256 MB, clients
    {1, 2, 4, 8}, group commit {1, 4}, 300 transactions. *)

val concurrency_table : concurrency_cell list -> string
(** Throughput, abort rate, wound/conflict counts and commit-latency
    p50/p95 per (clients, group_commit) row. *)

(** The single-shard-crash availability scenario run inside a multi-shard
    sweep cell. *)
type sharding_crash = {
  sc_shard : int;  (** which shard was crashed *)
  sc_sibling_reads : int;  (** reads served by siblings while it was down *)
  sc_recover_ms : float;  (** virtual time for {!Deut_core.Db.recover_shard} *)
}

(** One (shards, clients) cell of the sharding sweep. *)
type sharding_cell = {
  sh_shards : int;
  sh_clients : int;
  sh_stats : Client_sched.stats;
  sh_digest : string;  (** logical digest — equal in every cell *)
  sh_net_msgs : int;  (** Dc_access messages over {!Deut_net.Link} (0 in-process) *)
  sh_crash : sharding_crash option;  (** [None] on single-shard cells *)
}

val run_sharding :
  ?scale:int ->
  ?cache_mb:int ->
  ?shards:int list ->
  ?clients:int list ->
  ?txns:int ->
  ?net:bool ->
  ?progress:(string -> unit) ->
  ?config:Deut_core.Config.t ->
  unit ->
  sharding_cell list
(** Fresh database per (shards, clients) cell, same workload seed
    everywhere; [txns] transactions through {!Driver.run_concurrent},
    oracle-verified, with the final logical digest cross-checked to be
    identical in every cell (shard transparency — raising otherwise).
    Each multi-shard cell then crashes its last shard on the live engine,
    serves sibling reads while it is down, recovers it alone with
    {!Deut_core.Db.recover_shard}, and re-checks the digest.  [net] routes
    the Dc_access protocol over simulated {!Deut_net.Link}s.  Defaults:
    scale 64, cache 256 MB, shards {1, 2, 4, 8}, clients {4, 8},
    300 transactions, in-process transport. *)

val sharding_table : sharding_cell list -> string
(** Throughput per (shards, clients) row plus the availability scenario's
    sibling-read count and per-shard recovery time. *)

(** One round of the log-archiving growth sweep. *)
type archiving_round = {
  ar_round : int;
  ar_logged_kb : float;  (** total bytes ever appended to the log *)
  ar_live_kb : float;  (** bytes the live log still retains *)
  ar_archive_kb : float;  (** sealed archive-segment payload *)
  ar_segments : int;
}

(** One (archive on/off) cell of the archiving sweep. *)
type archiving_cell = {
  a_archive : bool;
  a_rounds : archiving_round list;
  a_digest : string;  (** final logical digest — equal in both cells *)
  a_methods : (Deut_core.Recovery.method_ * Deut_core.Recovery_stats.t) list;
      (** post-crash recoveries, every one oracle-verified *)
}

val run_archiving :
  ?scale:int ->
  ?cache_mb:int ->
  ?clients:int ->
  ?rounds:int ->
  ?txns_per_round:int ->
  ?progress:(string -> unit) ->
  ?config:Deut_core.Config.t ->
  unit ->
  archiving_cell list
(** The long-running multi-client workload with periodic checkpoint +
    archive cuts, run twice — archiving off then on — with the same seed.
    Checks on every round that sealed coverage meets the live base (the
    durability contract), that the final digests match across the two
    cells, that the live log ends bounded below the total logged bytes,
    and that all five methods recover the oracle state from the truncated
    log; raises on any violation.  Defaults: scale 64, cache 256 MB,
    4 clients, 6 rounds of 100 transactions. *)

val archiving_table : archiving_cell list -> string
(** Round-by-round growth table plus a per-method restart comparison. *)

(** One cache-size cell of the instant-recovery availability sweep. *)
type availability_cell = {
  v_cache_mb : int;
  v_ttft_ms : float;  (** open for business: analysis + sequential log scan *)
  v_drained_ms : float;  (** background redo fully drained (same staged run) *)
  v_log2_total_ms : float;  (** offline Log2 baseline on the same image *)
  v_speedup : float;  (** drained / open — the availability win *)
  v_pages_ondemand : int;  (** pages replayed by probe-read faults *)
  v_pages_background : int;  (** pages replayed by the drain *)
  v_probe_reads : int;  (** reads served while redo was still pending *)
}

val run_availability :
  ?cache:Experiment.build_cache ->
  ?scale:int ->
  ?cache_sizes:int list ->
  ?probes:int ->
  ?progress:(string -> unit) ->
  ?config:Deut_core.Config.t ->
  unit ->
  availability_cell list
(** One crash per cache size.  Per cell: recover offline with Log2 (the
    baseline), recover with the drained form of InstantLog2 and require a
    byte-identical logical digest (the determinism gate — raises on
    divergence), then run the staged form with [probes] uniform reads
    interleaved with background drain steps, verify it against the oracle
    and the digest again, and report its TTFT / drain split.  Defaults:
    scale 64, the paper's cache sizes, 32 probe reads. *)

val availability_table : availability_cell list -> string
(** TTFT vs full-recovery time, speedup, and replay-path page counts per
    cache size. *)

(** One (cache size, method) cell of the trace-mined prefetch-tuning sweep. *)
type tuning_cell = {
  t_cache_mb : int;
  t_method : Deut_core.Recovery.method_;
  t_outcomes : Deut_obs.Tuner.outcome list;  (** sweep order; every run oracle-verified *)
  t_default : Deut_obs.Tuner.outcome;  (** the outcome at [Config.default]'s settings *)
}

val run_tuning :
  ?cache:Experiment.build_cache ->
  ?scale:int ->
  ?cache_sizes:int list ->
  ?methods:Deut_core.Recovery.method_ list ->
  ?windows:int list ->
  ?chunks:int list ->
  ?lookaheads:int list ->
  ?sources:Deut_core.Config.prefetch_source list ->
  ?progress:(string -> unit) ->
  ?config:Deut_core.Config.t ->
  unit ->
  tuning_cell list
(** One crash per cache size; for each method, every candidate
    [Config.prefetch_*] setting in the grid (Log2 sweeps window × chunk ×
    source, SQL2 window × chunk × lookahead — each prefetcher's live
    dimensions, Appendix A) is recovered with tracing on, oracle-verified,
    and profiled with {!Deut_obs.Analysis}; [redo_workers]/[clients] are
    pinned to 1 so results are byte-stable regardless of environment.
    Defaults: scale 64, cache {1024} MB, methods {Log2, SQL2}, windows
    {8,16,32,64}, chunks {4,8,16,32}, lookaheads {128,256,512,1024}, both
    sources.  The default setting always appears in the grid. *)

val tuning_table : tuning_cell list -> string
(** Per-cell recommendation tables ({!Deut_obs.Tuner.table}) plus a
    best-vs-default redo-time summary line. *)
