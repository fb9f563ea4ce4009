(** Introspection: one snapshot record over every counter the engine
    keeps — cache, disks, logs, monitors — with a human-readable
    rendering.  [Db.stats]/[Db.stats_string] expose it to users.

    Values are read from the engine's metrics registry (the gauges
    [Engine.assemble] registers) rather than by crawling component
    records, so this module and any external consumer see the same
    namespace. *)

module Metrics = Deut_obs.Metrics

type latency = { n : int; p50_us : float; p95_us : float; p99_us : float }
(** Percentiles of a latency histogram, quantised to its log-scale bucket
    bounds; all zero when nothing was observed. *)

type t = {
  (* cache *)
  cache_capacity : int;
  cache_resident : int;
  cache_dirty : int;
  hits : int;
  misses : int;
  hit_rate : float;
  evictions : int;
  flushes : int;
  prefetch_issued : int;
  prefetch_hits : int;
  stalls : int;
  stall_ms : float;
  stall_wait : latency;  (** cache.stall_wait_us percentiles *)
  (* data disk *)
  data_pages_read : int;
  data_pages_written : int;
  data_seeks : int;
  data_sequential : int;
  data_io : latency;  (** disk.data.io_us percentiles *)
  log_io : latency;  (** disk.log.io_us percentiles *)
  (* logs *)
  split_logs : bool;
  tc_log_records : int;
  tc_log_bytes : int;
  tc_log_retained_bytes : int;
  tc_log_forces : int;
  dc_log_records : int;
  dc_log_retained_bytes : int;
  (* archive *)
  archive_segments : int;
  archive_bytes : int;
  archive_cuts : int;
  archive_pages_written : int;
  archive_pages_read : int;
  archive_io : latency;  (** disk.archive.io_us percentiles *)
  (* monitors *)
  delta_records : int;
  delta_bytes : int;
  bw_records : int;
  bw_bytes : int;
  (* transactions *)
  txn_commits : int;
  txn_aborts : int;
  lock_conflicts : int;
  locked_keys : int;
  commit_latency : latency;  (** txn.commit_latency_us percentiles (request → durable) *)
  (* instant recovery (zeros unless the engine came out of InstantLog2) *)
  recovery_ttft_ms : float;
  recovery_drained_ms : float;
  recovery_pages_ondemand : int;
  recovery_pages_background : int;
  (* database *)
  allocated_pages : int;
  stable_pages : int;
  tables : int;
  sim_now_ms : float;
}

let capture (engine : Engine.t) =
  let m = Engine.metrics engine in
  let gi name = Metrics.read_int m name in
  let gf name = Metrics.read m name in
  let latency name =
    match Metrics.find_histogram m name with
    | Some h ->
        {
          n = Metrics.observations h;
          p50_us = Metrics.percentile h 50.0;
          p95_us = Metrics.percentile h 95.0;
          p99_us = Metrics.percentile h 99.0;
        }
    | None -> { n = 0; p50_us = 0.0; p95_us = 0.0; p99_us = 0.0 }
  in
  (* Read every gauge before [tables] below touches the cache (listing the
     catalog) and perturbs the counters being reported. *)
  let cache_capacity = gi "cache.capacity"
  and cache_resident = gi "cache.resident"
  and cache_dirty = gi "cache.dirty"
  and hits = gi "cache.hits"
  and misses = gi "cache.misses"
  and prefetch_hits = gi "cache.prefetch_hits"
  and prefetch_issued = gi "cache.prefetch_issued"
  and evictions = gi "cache.evictions"
  and flushes = gi "cache.flushes"
  and stalls = gi "cache.stalls"
  and stall_us = gf "cache.stall_us"
  and data_pages_read = gi "disk.data.pages_read"
  and data_pages_written = gi "disk.data.pages_written"
  and data_seeks = gi "disk.data.seeks"
  and data_sequential = gi "disk.data.sequential"
  and tc_log_records = gi "log.tc.records"
  and tc_log_bytes = gi "log.tc.end_lsn"
  and tc_log_base = gi "log.tc.base_lsn"
  and tc_log_forces = gi "log.tc.forces"
  and archive_segments = gi "archive.segments"
  and archive_bytes = gi "archive.bytes"
  and archive_cuts = gi "archive.cuts"
  and archive_pages_written = gi "disk.archive.pages_written"
  and archive_pages_read = gi "disk.archive.pages_read"
  and dc_log_records = gi "log.dc.records"
  and dc_log_bytes = gi "log.dc.end_lsn"
  and dc_log_base = gi "log.dc.base_lsn"
  and delta_records = gi "monitor.delta_records"
  and delta_bytes = gi "monitor.delta_bytes"
  and bw_records = gi "monitor.bw_records"
  and bw_bytes = gi "monitor.bw_bytes"
  and allocated_pages = gi "store.allocated"
  and stable_pages = gi "store.stable"
  and txn_commits = gi "tc.commits"
  and txn_aborts = gi "tc.aborts"
  and lock_conflicts = gi "locks.conflicts"
  and locked_keys = gi "locks.keys"
  and sim_now_us = gf "clock.now_us" in
  (* recovery.* instruments exist only after a recovery ran on this
     engine's registry; a fresh engine has none. *)
  let gf0 name = if Metrics.mem m name then Metrics.read m name else 0.0 in
  let recovery_ttft_us = gf0 "recovery.ttft_us"
  and recovery_drained_us = gf0 "recovery.drained_us"
  and recovery_pages_ondemand = truncate (gf0 "recovery.pages_ondemand")
  and recovery_pages_background = truncate (gf0 "recovery.pages_background") in
  let lookups = hits + misses + prefetch_hits in
  {
    cache_capacity;
    cache_resident;
    cache_dirty;
    hits;
    misses;
    hit_rate = (if lookups = 0 then 1.0 else float_of_int hits /. float_of_int lookups);
    evictions;
    flushes;
    prefetch_issued;
    prefetch_hits;
    stalls;
    stall_ms = stall_us /. 1000.0;
    stall_wait = latency "cache.stall_wait_us";
    data_pages_read;
    data_pages_written;
    data_seeks;
    data_sequential;
    data_io = latency "disk.data.io_us";
    log_io = latency "disk.log.io_us";
    split_logs = Engine.split engine;
    tc_log_records;
    tc_log_bytes;
    tc_log_retained_bytes = tc_log_bytes - tc_log_base;
    tc_log_forces;
    dc_log_records;
    dc_log_retained_bytes = dc_log_bytes - dc_log_base;
    archive_segments;
    archive_bytes;
    archive_cuts;
    archive_pages_written;
    archive_pages_read;
    archive_io = latency "disk.archive.io_us";
    delta_records;
    delta_bytes;
    bw_records;
    bw_bytes;
    txn_commits;
    txn_aborts;
    lock_conflicts;
    locked_keys;
    commit_latency = latency "txn.commit_latency_us";
    recovery_ttft_ms = recovery_ttft_us /. 1000.0;
    recovery_drained_ms = recovery_drained_us /. 1000.0;
    recovery_pages_ondemand;
    recovery_pages_background;
    allocated_pages;
    stable_pages;
    tables = List.length (Dc.tables (Engine.shard engine 0).Engine.s_dc);
    sim_now_ms = sim_now_us /. 1000.0;
  }

let to_string t =
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "database:   %d tables, %d pages allocated (%d stable)" t.tables t.allocated_pages
    t.stable_pages;
  line "cache:      %d/%d resident, %d dirty; hits %d / misses %d (%.1f%% hit rate)"
    t.cache_resident t.cache_capacity t.cache_dirty t.hits t.misses (100.0 *. t.hit_rate);
  line "            evictions %d, flushes %d, prefetch %d issued / %d used, stalls %d (%.1f ms)"
    t.evictions t.flushes t.prefetch_issued t.prefetch_hits t.stalls t.stall_ms;
  line "data disk:  %d pages read, %d written; %d seeks, %d sequential" t.data_pages_read
    t.data_pages_written t.data_seeks t.data_sequential;
  let lat name (l : latency) =
    if l.n > 0 then
      line "%s  n %d, p50 %.0f µs, p95 %.0f µs, p99 %.0f µs (bucket upper bounds)" name l.n
        l.p50_us l.p95_us l.p99_us
  in
  lat "  io lat:   " t.data_io;
  lat "  log lat:  " t.log_io;
  lat "  stall lat:" t.stall_wait;
  line "tc log:     %d records, %d bytes (%d retained), %d forces" t.tc_log_records
    t.tc_log_bytes t.tc_log_retained_bytes t.tc_log_forces;
  if t.split_logs then
    line "dc log:     %d records, %d bytes retained (split layout)" t.dc_log_records
      t.dc_log_retained_bytes;
  if t.archive_segments > 0 || t.archive_cuts > 0 then begin
    line "archive:    %d segments (%d B sealed), %d cuts; %d pages written, %d read"
      t.archive_segments t.archive_bytes t.archive_cuts t.archive_pages_written
      t.archive_pages_read;
    lat "  arch lat: " t.archive_io
  end;
  line "monitors:   %d Δ records (%d B), %d BW records (%d B)" t.delta_records t.delta_bytes
    t.bw_records t.bw_bytes;
  if t.txn_commits > 0 || t.txn_aborts > 0 then begin
    line "txns:       %d commits, %d aborts, %d lock conflicts (%d keys locked)" t.txn_commits
      t.txn_aborts t.lock_conflicts t.locked_keys;
    lat "  commit:   " t.commit_latency
  end;
  if t.recovery_ttft_ms > 0.0 then
    line "instant:    open at %.1f ms, drained at %.1f ms; pages on-demand %d, background %d"
      t.recovery_ttft_ms t.recovery_drained_ms t.recovery_pages_ondemand
      t.recovery_pages_background;
  line "sim clock:  %.1f ms" t.sim_now_ms;
  Buffer.contents b
