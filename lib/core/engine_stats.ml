(** Introspection: a human-readable rendering of every counter the engine
    keeps — cache, disks, logs, monitors — read by name from the engine's
    metrics registry (the gauges [Engine.register_gauges] defines).  The
    registry is the one stats namespace: [Db.metric] reads a single name,
    [Db.stats_string] renders them all. *)

module Metrics = Deut_obs.Metrics

type latency = { n : int; p50_us : float; p95_us : float; p99_us : float }
(** Percentiles of a latency histogram, quantised to its log-scale bucket
    bounds; all zero when nothing was observed. *)

let latency m name =
  match Metrics.find_histogram m name with
  | Some h ->
      {
        n = Metrics.observations h;
        p50_us = Metrics.percentile h 50.0;
        p95_us = Metrics.percentile h 95.0;
        p99_us = Metrics.percentile h 99.0;
      }
  | None -> { n = 0; p50_us = 0.0; p95_us = 0.0; p99_us = 0.0 }

let to_string (engine : Engine.t) =
  let m = Engine.metrics engine in
  let gi = Metrics.read_int m in
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  let lat name hist =
    let l = latency m hist in
    if l.n > 0 then
      line "%s  n %d, p50 %.0f µs, p95 %.0f µs, p99 %.0f µs (bucket upper bounds)" name l.n
        l.p50_us l.p95_us l.p99_us
  in
  (* Render everything but the table count first: listing the catalog
     fetches a page and would perturb the counters being reported. *)
  let allocated = gi "store.allocated" and stable = gi "store.stable" in
  let hits = gi "cache.hits" and misses = gi "cache.misses" in
  let lookups = hits + misses + gi "cache.prefetch_hits" in
  let hit_rate = if lookups = 0 then 1.0 else float_of_int hits /. float_of_int lookups in
  line "cache:      %d/%d resident, %d dirty; hits %d / misses %d (%.1f%% hit rate)"
    (gi "cache.resident") (gi "cache.capacity") (gi "cache.dirty") hits misses
    (100.0 *. hit_rate);
  line "            evictions %d, flushes %d, prefetch %d issued / %d used, stalls %d (%.1f ms)"
    (gi "cache.evictions") (gi "cache.flushes") (gi "cache.prefetch_issued")
    (gi "cache.prefetch_hits") (gi "cache.stalls")
    (Metrics.read m "cache.stall_us" /. 1000.0);
  line "data disk:  %d pages read, %d written; %d seeks, %d sequential"
    (gi "disk.data.pages_read") (gi "disk.data.pages_written") (gi "disk.data.seeks")
    (gi "disk.data.sequential");
  lat "  io lat:   " "disk.data.io_us";
  lat "  log lat:  " "disk.log.io_us";
  lat "  stall lat:" "cache.stall_wait_us";
  let tc_end = gi "log.tc.end_lsn" in
  line "tc log:     %d records, %d bytes (%d retained), %d forces" (gi "log.tc.records") tc_end
    (tc_end - gi "log.tc.base_lsn")
    (gi "log.tc.forces");
  if Engine.split engine then
    line "dc log:     %d records, %d bytes retained (split layout)" (gi "log.dc.records")
      (gi "log.dc.end_lsn" - gi "log.dc.base_lsn");
  if gi "archive.segments" > 0 || gi "archive.cuts" > 0 then begin
    line "archive:    %d segments (%d B sealed), %d cuts; %d pages written, %d read"
      (gi "archive.segments") (gi "archive.bytes") (gi "archive.cuts")
      (gi "disk.archive.pages_written") (gi "disk.archive.pages_read");
    lat "  arch lat: " "disk.archive.io_us"
  end;
  line "monitors:   %d Δ records (%d B), %d BW records (%d B)" (gi "monitor.delta_records")
    (gi "monitor.delta_bytes") (gi "monitor.bw_records") (gi "monitor.bw_bytes");
  if gi "tc.commits" > 0 || gi "tc.aborts" > 0 then begin
    line "txns:       %d commits, %d aborts, %d lock conflicts (%d keys locked)" (gi "tc.commits")
      (gi "tc.aborts") (gi "locks.conflicts") (gi "locks.keys");
    lat "  commit:   " "txn.commit_latency_us"
  end;
  (* recovery.* instruments exist only after a recovery ran on this
     engine's registry; a fresh engine has none. *)
  let recovery name = if Metrics.mem m name then Metrics.read m name else 0.0 in
  let ttft_us = recovery "recovery.ttft_us" in
  if ttft_us > 0.0 then
    line "instant:    open at %.1f ms, drained at %.1f ms; pages on-demand %d, background %d"
      (ttft_us /. 1000.0)
      (recovery "recovery.drained_us" /. 1000.0)
      (truncate (recovery "recovery.pages_ondemand"))
      (truncate (recovery "recovery.pages_background"));
  line "sim clock:  %.1f ms" (Metrics.read m "clock.now_us" /. 1000.0);
  let tables = List.length (Dc.tables (Engine.shard engine 0).Engine.s_dc) in
  Printf.sprintf "database:   %d tables, %d pages allocated (%d stable)\n" tables allocated
    stable
  ^ Buffer.contents b
