let () =
  Alcotest.run "deut"
    [
      ("sim", Test_sim.suite);
      ("storage", Test_storage.suite);
      ("wal", Test_wal.suite);
      ("node", Test_node.suite);
      ("btree", Test_btree.suite);
      ("cursor", Test_cursor.suite);
      ("pool", Test_pool.suite);
      ("monitor", Test_monitor.suite);
      ("dpt", Test_dpt.suite);
      ("recovery", Test_recovery.suite);
      ("workload", Test_workload.suite);
      ("engine", Test_engine.suite);
      ("split-log", Test_split_log.suite);
      ("locks", Test_locks.suite);
      ("trace", Test_trace.suite);
      ("crash-points", Test_crash_points.suite);
      ("fuzz-recovery", Test_fuzz_recovery.suite);
      ("archive", Test_archive.suite);
      ("parallel-redo", Test_parallel_redo.suite);
      ("domains", Test_domains.suite);
      ("concurrency", Test_concurrency.suite);
      ("sharding", Test_sharding.suite);
      ("causal", Test_causal.suite);
      ("analysis", Test_analysis.suite);
      ("json", Test_json.suite);
      ("hotpath", Test_hotpath.suite);
    ]
