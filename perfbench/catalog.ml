(* Every metric the benchmark reports, with its unit, in output order.
   BENCHMARK.json lists the same names (the self-test checks it). *)

let end_to_end =
  [
    ("setup_s", "s");
    ("recover_ms.p50", "ms");
    ("open_ms.p50", "ms");
    ("verify_ms.p50", "ms");
    ("txn_per_s", "1/s");
    ("batch_ms.p50", "ms");
    ("batch_ms.p99", "ms");
    ("sim_recovery_ms", "sim_ms");
    ("sim_ttft_ms", "sim_ms");
    ("sim_txn_per_s", "1/sim_s");
    ("peak_heap_mb", "MB");
  ]

let per_layer =
  [
    ("storage.clone_ms", "ms");
    ("storage.clone_mb", "MB");
    ("crash_image.instantiate_ms", "ms");
    ("recovery.rest_ms", "ms");
    ("recovery.analysis_sim_ms", "sim_ms");
    ("recovery.redo_sim_ms", "sim_ms");
    ("recovery.undo_sim_ms", "sim_ms");
    ("recovery.records_scanned", "count");
    ("recovery.redo_candidates", "count");
    ("recovery.redo_applied", "count");
    ("recovery.dpt_size", "count");
    ("recovery.data_page_fetches", "count");
    ("recovery.index_page_fetches", "count");
    ("recovery.pages_ondemand", "count");
    ("recovery.pages_background", "count");
    ("recovery.prefetch_hit_ratio", "ratio");
    ("recovery.Log0.sim_ms", "sim_ms");
    ("recovery.Log1.sim_ms", "sim_ms");
    ("recovery.SQL1.sim_ms", "sim_ms");
    ("recovery.Log2.sim_ms", "sim_ms");
    ("recovery.SQL2.sim_ms", "sim_ms");
    ("wal.scan_ms", "ms");
    ("wal.log_pages_read", "count");
    ("wal.bytes_per_user_byte", "ratio");
    ("wal.forces_per_txn", "ratio");
    ("buffer.hit_ratio", "ratio");
    ("buffer.misses", "count");
    ("buffer.evictions", "count");
    ("buffer.flushes", "count");
    ("buffer.stall_sim_ms", "sim_ms");
    ("btree.integrity_ms", "ms");
    ("oracle.verify_ms", "ms");
    ("tc.checkpoint_ms", "ms");
    ("tc.checkpoints", "count");
    ("tc.abort_ratio", "ratio");
    ("tc.lock_conflicts", "count");
    ("dc.delta_bytes_per_update", "bytes");
    ("dc.bw_bytes_per_update", "bytes");
    ("client_sched.run_ms", "ms");
    ("setup.load_s", "s");
    ("setup.warm_s", "s");
    ("setup.protocol_s", "s");
    ("disk.data_reads", "count");
    ("disk.data_writes", "count");
    ("disk.seeks", "count");
    ("disk.log_writes", "count");
    ("gc.alloc_mb", "MB");
    ("gc.major_collections", "count");
    ("trace.overhead_pct", "%");
    ("fail_ratio", "ratio");
  ]

let workloads = [ "restart-paper"; "restart-instant"; "oltp-mixed" ]
