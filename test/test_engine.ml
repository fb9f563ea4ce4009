(* Normal-execution engine behaviour: transactions, aborts, WAL and
   checkpoint invariants, log archiving. *)

module Db = Deut_core.Db
module Config = Deut_core.Config
module Engine = Deut_core.Engine
module Tc = Deut_core.Tc
module Lr = Deut_wal.Log_record
module Lsn = Deut_wal.Lsn
module Log = Deut_wal.Log_manager
module Page = Deut_storage.Page
module Page_store = Deut_storage.Page_store
module Pool = Deut_buffer.Buffer_pool

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let config =
  { Env.config with Config.page_size = 1024; pool_pages = 48; delta_period = 50; shards = 1 }

let make () =
  let db = Db.create ~config () in
  Db.create_table db ~table:1;
  db

let ok = function Ok () -> () | Error e -> Alcotest.fail (Db.error_to_string e)

let test_read_your_writes () =
  let db = make () in
  let txn = Db.begin_txn db in
  ok (Db.insert db txn ~table:1 ~key:1 ~value:"a");
  (* No isolation layer (locking is out of scope, paper [13]): reads see
     applied operations immediately. *)
  check "uncommitted write visible to reads" true (Db.read db ~table:1 ~key:1 = Some "a");
  Db.commit db txn;
  check "still visible after commit" true (Db.read db ~table:1 ~key:1 = Some "a")

let test_error_paths () =
  let db = make () in
  let txn = Db.begin_txn db in
  ok (Db.insert db txn ~table:1 ~key:1 ~value:"a");
  check "duplicate insert rejected" true
    (Db.insert db txn ~table:1 ~key:1 ~value:"b"
    = Error (Db.Duplicate_key { table = 1; key = 1 }));
  check "update of absent key rejected" true
    (Db.update db txn ~table:1 ~key:2 ~value:"b" = Error (Db.Missing_key { table = 1; key = 2 }));
  check "delete of absent key rejected" true
    (Db.delete db txn ~table:1 ~key:2 = Error (Db.Missing_key { table = 1; key = 2 }));
  check "unknown table rejected" true
    (Db.update db txn ~table:9 ~key:0 ~value:"b" = Error (Db.No_such_table 9));
  Db.commit db txn

let test_abort_rolls_back () =
  let db = make () in
  let txn = Db.begin_txn db in
  ok (Db.insert db txn ~table:1 ~key:10 ~value:"committed");
  Db.commit db txn;
  let txn = Db.begin_txn db in
  ok (Db.update db txn ~table:1 ~key:10 ~value:"doomed");
  ok (Db.insert db txn ~table:1 ~key:11 ~value:"doomed-too");
  ok (Db.delete db txn ~table:1 ~key:10);
  Db.abort db txn;
  check "update+delete rolled back" true (Db.read db ~table:1 ~key:10 = Some "committed");
  check "insert rolled back" true (Db.read db ~table:1 ~key:11 = None);
  (match Db.check_integrity db with Ok () -> () | Error e -> Alcotest.fail e);
  (* The abort wrote CLRs and an abort record; a crash now must preserve
     exactly the committed state. *)
  let image = Db.crash db in
  let recovered, stats = Db.recover image Deut_core.Recovery.Log1 in
  check "state preserved across crash after abort" true
    (Db.read recovered ~table:1 ~key:10 = Some "committed");
  check_int "no losers after a clean abort" 0 stats.Deut_core.Recovery_stats.losers

let test_interleaved_txns () =
  let db = make () in
  let t1 = Db.begin_txn db in
  let t2 = Db.begin_txn db in
  ok (Db.insert db t1 ~table:1 ~key:1 ~value:"t1");
  ok (Db.insert db t2 ~table:1 ~key:2 ~value:"t2");
  ok (Db.update db t1 ~table:1 ~key:1 ~value:"t1'");
  Db.commit db t2;
  Db.abort db t1;
  check "t2 committed" true (Db.read db ~table:1 ~key:2 = Some "t2");
  check "t1 aborted through interleaving" true (Db.read db ~table:1 ~key:1 = None)

let expect_invalid_arg what f =
  match f () with
  | _ -> Alcotest.failf "%s must raise Invalid_argument" what
  | exception Invalid_argument _ -> ()

let test_txn_handle_misuse () =
  let db = make () in
  let other = make () in
  let txn = Db.begin_txn db in
  ok (Db.insert db txn ~table:1 ~key:1 ~value:"a");
  (* A handle is bound to the database that created it. *)
  expect_invalid_arg "foreign-db handle" (fun () -> Db.insert other txn ~table:1 ~key:1 ~value:"a");
  Db.commit db txn;
  (* A finished handle refuses further work — immediately, not stringly. *)
  check "post-commit op refused" true
    (Db.update db txn ~table:1 ~key:1 ~value:"b" = Error Db.Txn_finished);
  expect_invalid_arg "double commit" (fun () -> Db.commit db txn);
  expect_invalid_arg "abort after commit" (fun () -> Db.abort db txn)

let test_crash_poisons_handle () =
  let db = make () in
  Db.put db ~table:1 ~key:1 ~value:"a";
  let txn = Db.begin_txn db in
  let image = Db.crash db in
  (* The crashed handle is dead: the only way forward is Db.recover. *)
  expect_invalid_arg "read after crash" (fun () -> Db.read db ~table:1 ~key:1);
  expect_invalid_arg "write after crash" (fun () -> Db.insert db txn ~table:1 ~key:2 ~value:"b");
  expect_invalid_arg "second crash" (fun () -> Db.crash db);
  let recovered, _ = Db.recover image Deut_core.Recovery.Log1 in
  check "recovered handle lives" true (Db.read recovered ~table:1 ~key:1 = Some "a")

(* One transaction, one handle: the typed [Db.Txn.t] is the only way to
   drive a transaction (the old int-id shim is gone), and the handle keeps
   working across several operations before its single commit. *)
let test_txn_handle_reuse () =
  let db = make () in
  let txn = Db.begin_txn db in
  ok (Db.insert db txn ~table:1 ~key:1 ~value:"a");
  ok (Db.update db txn ~table:1 ~key:1 ~value:"b");
  check "own id is stable" true (Db.Txn.id txn > 0);
  Db.commit db txn;
  check "handle drove the txn" true (Db.read db ~table:1 ~key:1 = Some "b")

let test_put_upsert () =
  let db = make () in
  Db.put db ~table:1 ~key:7 ~value:"first";
  Db.put db ~table:1 ~key:7 ~value:"second";
  check "upsert" true (Db.read db ~table:1 ~key:7 = Some "second")

(* The WAL invariant: no stable page image may carry a pLSN beyond the
   stable log. *)
let wal_invariant db =
  let engine = Db.engine db in
  let stable = Log.stable_lsn engine.Engine.log in
  Page_store.iter_stable (Engine.shard engine 0).Engine.s_store (fun page ->
      if Page.plsn page > stable then
        Alcotest.failf "WAL violation: page %d stable with pLSN %d > stable log %d"
          page.Page.pid (Page.plsn page) stable)

let test_wal_invariant_under_churn () =
  let db = make () in
  let rng = Deut_sim.Rng.create ~seed:8 in
  for k = 0 to 999 do
    Db.put db ~table:1 ~key:k ~value:(string_of_int k)
  done;
  wal_invariant db;
  for _ = 1 to 100 do
    let txn = Db.begin_txn db in
    for _ = 1 to 10 do
      ok (Db.update db txn ~table:1 ~key:(Deut_sim.Rng.int rng 1000) ~value:"churn")
    done;
    Db.commit db txn
  done;
  wal_invariant db;
  Db.checkpoint db;
  wal_invariant db

let test_penultimate_checkpoint_cleans () =
  let db = make () in
  for k = 0 to 500 do
    Db.put db ~table:1 ~key:k ~value:"x"
  done;
  check "dirty before checkpoint" true (Db.metric db "cache.dirty" > 0);
  Db.checkpoint db;
  (* Synchronous penultimate checkpoint: everything dirtied before the
     begin-checkpoint record is flushed; nothing was dirtied after. *)
  check_int "clean after checkpoint" 0 (Db.metric db "cache.dirty");
  wal_invariant db

let test_log_archiving_safe () =
  let db = make () in
  for k = 0 to 300 do
    Db.put db ~table:1 ~key:k ~value:"v"
  done;
  Db.checkpoint db;
  Db.compact_log db;
  let engine = Db.engine db in
  check "archived up to the master" true
    (Log.base_lsn engine.Engine.log = Tc.master engine.Engine.tc);
  (* Recovery still works from the archived log. *)
  for k = 0 to 50 do
    Db.put db ~table:1 ~key:k ~value:"v2"
  done;
  let image = Db.crash db in
  let recovered, _ = Db.recover image Deut_core.Recovery.Sql1 in
  check "post-archive recovery" true (Db.read recovered ~table:1 ~key:3 = Some "v2")

let test_archiving_blocked_by_open_txn () =
  let db = make () in
  for k = 0 to 100 do
    Db.put db ~table:1 ~key:k ~value:"v"
  done;
  let txn = Db.begin_txn db in
  ok (Db.update db txn ~table:1 ~key:5 ~value:"open");
  let first_lsn_region = Db.metric db "log.tc.end_lsn" in
  for k = 0 to 100 do
    Db.put db ~table:1 ~key:k ~value:"v2"
  done;
  Db.checkpoint db;
  Db.compact_log db;
  let engine = Db.engine db in
  (* The archive point must not pass the open transaction's chain, which
     started before [first_lsn_region]. *)
  check "open txn pins the log" true (Log.base_lsn engine.Engine.log < first_lsn_region);
  (* And the abort can still walk its chain.  Undo restores the before-
     image ("v"), clobbering the later blind write — exactly why full
     isolation needs the locking of the companion paper [13], which is out
     of scope here. *)
  Db.abort db txn;
  check "abort after checkpoint walks the pinned chain" true
    (Db.read db ~table:1 ~key:5 = Some "v")

let test_commit_forces_log () =
  let db = make () in
  let engine = Db.engine db in
  let txn = Db.begin_txn db in
  ok (Db.insert db txn ~table:1 ~key:1 ~value:"a");
  let stable_before = Log.stable_lsn engine.Engine.log in
  Db.commit db txn;
  check "commit advanced the stable log" true (Log.stable_lsn engine.Engine.log > stable_before);
  check_int "everything stable after commit" (Log.end_lsn engine.Engine.log)
    (Log.stable_lsn engine.Engine.log)

let test_group_commit_semantics () =
  (* Forces happen every 4th commit; commits queued in the volatile tail
     at a crash are losers, exactly as the durability contract says. *)
  let config = { config with Config.group_commit = 4; pool_pages = 256 } in
  let db = Db.create ~config () in
  Db.create_table db ~table:1;
  (* Seed + checkpoint so only the group-commit txns are in the redo range. *)
  for k = 0 to 49 do
    Db.put db ~table:1 ~key:k ~value:"init"
  done;
  Db.checkpoint db;
  let durability = ref [] in
  for k = 0 to 9 do
    let txn = Db.begin_txn db in
    ok (Db.update db txn ~table:1 ~key:k ~value:(Printf.sprintf "gc-%d" k));
    durability := Db.commit_durable db txn :: !durability
  done;
  (* 10 commits in groups of 4: forces after the 4th and 8th. *)
  Alcotest.(check (list bool))
    "durability acks follow the group boundary"
    [ false; false; true; false; false; false; true; false; false; false ]
    !durability;
  let image = Db.crash db in
  let recovered, _ = Db.recover image Deut_core.Recovery.Log1 in
  for k = 0 to 7 do
    check "group-covered commits survive" true
      (Db.read recovered ~table:1 ~key:k = Some (Printf.sprintf "gc-%d" k))
  done;
  for k = 8 to 9 do
    check "queued commits rolled back" true (Db.read recovered ~table:1 ~key:k = Some "init")
  done;
  (* flush_commits makes the tail durable. *)
  let db2 = Db.create ~config () in
  Db.create_table db2 ~table:1;
  Db.put db2 ~table:1 ~key:1 ~value:"init";
  Db.checkpoint db2;
  let txn = Db.begin_txn db2 in
  ok (Db.update db2 txn ~table:1 ~key:1 ~value:"flushed");
  check "queued" false (Db.commit_durable db2 txn);
  Db.flush_commits db2;
  let recovered2, _ = Db.recover (Db.crash db2) Deut_core.Recovery.Sql1 in
  check "flushed commit survives" true (Db.read recovered2 ~table:1 ~key:1 = Some "flushed")

let test_monitor_counts_visible () =
  let db = make () in
  for k = 0 to 400 do
    Db.put db ~table:1 ~key:k ~value:"x"
  done;
  let deltas = Db.metric db "monitor.delta_records" in
  check "delta records written" true (deltas > 0);
  check "delta bytes accounted" true (Db.metric db "monitor.delta_bytes" > 0);
  check "bw not more frequent than delta" true (Db.metric db "monitor.bw_records" <= deltas)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_stats_snapshot () =
  let db = make () in
  for k = 0 to 199 do
    Db.put db ~table:1 ~key:k ~value:"x"
  done;
  Db.checkpoint db;
  let metric = Db.metric db in
  check_int "capacity" 48 (metric "cache.capacity");
  check "resident pages" true (metric "cache.resident" > 0);
  let hits = metric "cache.hits" in
  let lookups = hits + metric "cache.misses" + metric "cache.prefetch_hits" in
  check "hit rate sane" true (lookups > 0 && hits >= 0 && hits <= lookups);
  check "log records counted" true (metric "log.tc.records" > 200);
  check "not split" false (Engine.split (Db.engine db));
  check_int "no DC log records" 0 (metric "log.dc.records");
  check "flushes happened at checkpoint" true (metric "cache.flushes" > 0);
  let rendered = Db.stats_string db in
  check "rendering mentions the cache" true
    (String.length rendered > 100 && contains rendered "cache:");
  check "no DC log line in the integrated layout" false (contains rendered "dc log:")

(* Rendering reads every counter before it lists the catalog: with a
   cache too small to keep the catalog page resident, the listing misses,
   and the rendered IO histogram must not count that fetch. *)
let test_stats_exclude_own_io () =
  let db = Db.create ~config:{ config with Config.pool_pages = 16 } () in
  Db.create_table db ~table:1;
  for k = 0 to 3999 do
    Db.put db ~table:1 ~key:k ~value:"x"
  done;
  ignore (Db.dump_table db ~table:1);
  let io () =
    (Deut_core.Engine_stats.latency (Engine.metrics (Db.engine db)) "disk.data.io_us")
      .Deut_core.Engine_stats.n
  in
  let before = io () in
  let rendered = Db.stats_string db in
  check "listing the catalog fetched a page" true (io () > before);
  check "rendered IO excludes that fetch" true
    (contains rendered (Printf.sprintf "io lat:     n %d," before))

let suite =
  [
    Alcotest.test_case "read your writes" `Quick test_read_your_writes;
    Alcotest.test_case "stats snapshot" `Quick test_stats_snapshot;
    Alcotest.test_case "stats exclude their own IO" `Quick test_stats_exclude_own_io;
    Alcotest.test_case "error paths" `Quick test_error_paths;
    Alcotest.test_case "abort rolls back" `Quick test_abort_rolls_back;
    Alcotest.test_case "interleaved txns" `Quick test_interleaved_txns;
    Alcotest.test_case "txn handle misuse" `Quick test_txn_handle_misuse;
    Alcotest.test_case "crash poisons the handle" `Quick test_crash_poisons_handle;
    Alcotest.test_case "txn handle reuse" `Quick test_txn_handle_reuse;
    Alcotest.test_case "put upsert" `Quick test_put_upsert;
    Alcotest.test_case "WAL invariant under churn" `Quick test_wal_invariant_under_churn;
    Alcotest.test_case "penultimate checkpoint cleans" `Quick test_penultimate_checkpoint_cleans;
    Alcotest.test_case "log archiving safe" `Quick test_log_archiving_safe;
    Alcotest.test_case "archiving blocked by open txn" `Quick test_archiving_blocked_by_open_txn;
    Alcotest.test_case "commit forces log" `Quick test_commit_forces_log;
    Alcotest.test_case "group commit semantics" `Quick test_group_commit_semantics;
    Alcotest.test_case "monitor counts visible" `Quick test_monitor_counts_visible;
  ]
