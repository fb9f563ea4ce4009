(* The split-log layout (§4.2): the DC keeps its own log with its own LSN
   space.  Logical recovery works unchanged; the physiological baselines
   cannot run (no shared physical log); and the DC redo/analysis pass scans
   a log that is orders of magnitude shorter than the TC's. *)

module Db = Deut_core.Db
module Config = Deut_core.Config
module Engine = Deut_core.Engine
module Recovery = Deut_core.Recovery
module Recovery_stats = Deut_core.Recovery_stats
module Crash_image = Deut_core.Crash_image
module Log = Deut_wal.Log_manager
module Workload = Deut_workload.Workload
module Driver = Deut_workload.Driver

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let split_config =
  {
    Env.config with
    Config.page_size = 1024;
    pool_pages = 48;
    delta_period = 40;
    delta_capacity = 64;
    log_layout = Config.Split;
  }

let spec = { Workload.default with Workload.rows = 1200; value_size = 16; seed = 9 }

let make_split_crash ?(loser = true) () =
  let driver = Driver.create ~config:split_config spec in
  Driver.run_crash_protocol driver ~checkpoints:3 ~interval:300 ~tail:15;
  if loser then Driver.start_loser driver ~ops:8;
  (driver, Driver.crash driver)

let test_split_engine_separates_logs () =
  let driver = Driver.create ~config:split_config spec in
  let engine = Db.engine (Driver.db driver) in
  check "engine is split" true (Engine.split engine);
  Driver.run_updates driver ~updates:500;
  Driver.checkpoint driver;
  (* The TC log carries no DC records; the DC log no TC records. *)
  let count_kinds log =
    let tc = ref 0 and dc = ref 0 in
    Log.iter log ~from:(Log.base_lsn log) (fun _ record ->
        match record with
        | Deut_wal.Log_record.Smo _ | Deut_wal.Log_record.Delta _ | Deut_wal.Log_record.Bw _ ->
            incr dc
        | Deut_wal.Log_record.Update_rec _ | Deut_wal.Log_record.Commit _
        | Deut_wal.Log_record.Abort _ | Deut_wal.Log_record.Clr _
        | Deut_wal.Log_record.Begin_ckpt | Deut_wal.Log_record.End_ckpt _
        | Deut_wal.Log_record.Aries_ckpt_dpt _ ->
            incr tc);
    (!tc, !dc)
  in
  let tc_on_tc, dc_on_tc = count_kinds engine.Engine.log in
  let tc_on_dc, dc_on_dc = count_kinds (Engine.shard engine 0).Engine.s_dc_log in
  check "tc log has tc records" true (tc_on_tc > 0);
  check_int "tc log has no dc records" 0 dc_on_tc;
  check_int "dc log has no tc records" 0 tc_on_dc;
  check "dc log has dc records" true (dc_on_dc > 0)

let test_split_recovery_all_logical_methods () =
  let driver, image = make_split_crash () in
  check "image carries the dc log" true (image.Crash_image.dc_log <> None);
  List.iter
    (fun m ->
      let recovered, stats = Db.recover image m in
      (match Driver.verify_recovered driver recovered with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s (split): %s" (Recovery.method_to_string m) msg);
      check "undo ran" true (stats.Recovery_stats.losers >= 1))
    [ Recovery.Log0; Recovery.Log1; Recovery.Log2 ]

let test_split_rejects_physiological () =
  let _driver, image = make_split_crash ~loser:false () in
  List.iter
    (fun m ->
      try
        ignore (Db.recover image m);
        Alcotest.failf "%s must be rejected in the split layout" (Recovery.method_to_string m)
      with Invalid_argument _ -> ())
    [ Recovery.Sql1; Recovery.Sql2; Recovery.Aries_ckpt ]

let test_dc_log_is_short () =
  (* §4.2: "Since the DC log is short (e.g. no TC redo operations), this DC
     redo pass processes a much smaller log than that needed for the
     analysis pass with integrated recovery." *)
  let _driver, image = make_split_crash ~loser:false () in
  let tc_log = image.Crash_image.log in
  let dc_log = Option.get image.Crash_image.dc_log in
  let tc_bytes = Log.end_lsn tc_log - Log.base_lsn tc_log in
  let dc_bytes = Log.end_lsn dc_log - Log.base_lsn dc_log in
  check "dc log is much shorter than the tc log" true (dc_bytes * 4 < tc_bytes)

let test_split_matches_integrated_state () =
  (* Same workload, both layouts: identical committed state and identical
     logical recovery outcome. *)
  let run config =
    let driver = Driver.create ~config spec in
    Driver.run_crash_protocol driver ~checkpoints:2 ~interval:250 ~tail:10;
    let image = Driver.crash driver in
    let recovered, stats = Db.recover image Recovery.Log1 in
    (match Driver.verify_recovered driver recovered with
    | Ok () -> ()
    | Error msg -> Alcotest.fail msg);
    (Db.dump_table recovered ~table:1, stats)
  in
  let split_state, split_stats = run split_config in
  let integrated_state, integrated_stats =
    run { split_config with Config.log_layout = Config.Integrated }
  in
  check "same committed state either way" true (split_state = integrated_state);
  check_int "same redo work either way" integrated_stats.Recovery_stats.redo_applied
    split_stats.Recovery_stats.redo_applied

let test_split_smo_recovery () =
  (* Force splits after the checkpoint so SMO replay from the DC log is on
     the recovery path: insert fresh keys into the rightmost leaf. *)
  let db = Db.create ~config:split_config () in
  Db.create_table db ~table:1;
  for k = 0 to 299 do
    Db.put db ~table:1 ~key:k ~value:(Printf.sprintf "%024d" k)
  done;
  Db.checkpoint db;
  for k = 300 to 699 do
    Db.put db ~table:1 ~key:k ~value:(Printf.sprintf "%024d" k)
  done;
  let image = Db.crash db in
  List.iter
    (fun m ->
      let recovered, stats = Db.recover image m in
      check "SMOs were replayed from the DC log" true (stats.Recovery_stats.smos_replayed > 0);
      check_int "all rows present" 700 (Db.entry_count recovered ~table:1);
      match Db.check_integrity recovered with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
    [ Recovery.Log0; Recovery.Log1; Recovery.Log2 ]

let test_layout_mismatch_rejected () =
  let _driver, image = make_split_crash ~loser:false () in
  let integrated = { split_config with Config.log_layout = Config.Integrated } in
  try
    ignore (Db.recover ~config:integrated image Recovery.Log1);
    Alcotest.fail "recovering a split image as integrated must be rejected"
  with Invalid_argument _ -> ()

let test_split_dc_log_compaction () =
  let driver = Driver.create ~config:split_config spec in
  Driver.run_updates driver ~updates:600;
  Driver.checkpoint driver;
  Driver.run_updates driver ~updates:300;
  Driver.checkpoint driver;
  let engine = Db.engine (Driver.db driver) in
  check "dc log archived at checkpoints" true (Log.base_lsn (Engine.shard engine 0).Engine.s_dc_log > 0);
  (* And recovery still works from the archived DC log. *)
  Driver.run_updates driver ~updates:200;
  let image = Driver.crash driver in
  let recovered, _ = Db.recover image Recovery.Log2 in
  match Driver.verify_recovered driver recovered with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let suite =
  [
    Alcotest.test_case "logs are separated" `Quick test_split_engine_separates_logs;
    Alcotest.test_case "logical recovery works" `Quick test_split_recovery_all_logical_methods;
    Alcotest.test_case "physiological rejected" `Quick test_split_rejects_physiological;
    Alcotest.test_case "DC log is short (§4.2)" `Quick test_dc_log_is_short;
    Alcotest.test_case "split == integrated state" `Quick test_split_matches_integrated_state;
    Alcotest.test_case "SMO recovery from DC log" `Quick test_split_smo_recovery;
    Alcotest.test_case "layout mismatch rejected" `Quick test_layout_mismatch_rejected;
    Alcotest.test_case "DC log compaction" `Quick test_split_dc_log_compaction;
  ]
