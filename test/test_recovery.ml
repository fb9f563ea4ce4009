(* End-to-end crash recovery: all methods, all modes, against the
   committed-state oracle; DPT safety; idempotence; undo; pid-blindness of
   logical recovery. *)

module Db = Deut_core.Db
module Config = Deut_core.Config
module Engine = Deut_core.Engine
module Dc = Deut_core.Dc
module Dpt = Deut_core.Dpt
module Recovery = Deut_core.Recovery
module Recovery_stats = Deut_core.Recovery_stats
module Crash_image = Deut_core.Crash_image
module Lr = Deut_wal.Log_record
module Lsn = Deut_wal.Lsn
module Log = Deut_wal.Log_manager
module Page = Deut_storage.Page
module Page_store = Deut_storage.Page_store
module Workload = Deut_workload.Workload
module Driver = Deut_workload.Driver
module Oracle = Deut_workload.Oracle
module Experiment = Deut_workload.Experiment

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let small_config ?(dpt_mode = Config.Standard) ?(checkpoint_mode = Config.Penultimate) () =
  {
    Env.config with
    Config.page_size = 1024;
    pool_pages = 48;
    delta_period = 40;
    delta_capacity = 64;
    (* pinned against the CI DEUT_SHARDS matrix: these cases exercise
       methods and image shapes that only exist single-shard *)
    shards = 1;
    dpt_mode;
    checkpoint_mode;
  }

let small_spec ?(rows = 1200) ?(op_mix = Workload.Update_only) ?(key_dist = Workload.Uniform) ()
    =
  { Workload.default with Workload.rows; value_size = 16; op_mix; key_dist; seed = 5 }

(* A standard small crash scenario: load, churn, checkpoints, loser, crash. *)
let make_crash ?dpt_mode ?checkpoint_mode ?op_mix ?key_dist ?(loser = true) () =
  let driver = Driver.create ~config:(small_config ?dpt_mode ?checkpoint_mode ()) (small_spec ?op_mix ?key_dist ()) in
  Driver.run_crash_protocol driver ~checkpoints:3 ~interval:300 ~tail:15;
  if loser then Driver.start_loser driver ~ops:8;
  (driver, Driver.crash driver)

let recover_verified driver image method_ =
  let recovered, stats = Db.recover image method_ in
  (match Driver.verify_recovered driver recovered with
  | Ok () -> ()
  | Error msg ->
      Alcotest.failf "%s: recovered state wrong: %s" (Recovery.method_to_string method_) msg);
  (recovered, stats)

let test_all_methods_restore_committed_state () =
  let driver, image = make_crash () in
  List.iter
    (fun m ->
      let _db, stats = recover_verified driver image m in
      check "some records were scanned" true (stats.Recovery_stats.records_scanned > 0);
      check "undo found the loser" true (stats.Recovery_stats.losers >= 1);
      check "CLRs written" true (stats.Recovery_stats.clrs_written >= 1))
    Recovery.all_methods

let test_methods_apply_identical_work () =
  (* All methods must agree on how many operations actually needed
     re-execution: redo work is a property of the crash, not the method. *)
  let driver, image = make_crash () in
  let applied =
    List.map
      (fun m -> (recover_verified driver image m |> snd).Recovery_stats.redo_applied)
      Recovery.all_methods
  in
  match applied with
  | first :: rest -> List.iter (fun a -> check_int "same redo_applied" first a) rest
  | [] -> ()

let test_dpt_methods_fetch_fewer_pages () =
  let driver, image = make_crash () in
  let fetches m =
    let _, stats = recover_verified driver image m in
    stats.Recovery_stats.data_page_fetches
  in
  let log0 = fetches Recovery.Log0 in
  let log1 = fetches Recovery.Log1 in
  let sql1 = fetches Recovery.Sql1 in
  check "DPT reduces logical fetches" true (log1 <= log0);
  check "physiological fetches comparable" true (abs (log1 - sql1) <= (log1 / 2) + 16)

let test_sql_does_no_index_io () =
  let driver, image = make_crash () in
  let _, s1 = recover_verified driver image Recovery.Sql1 in
  check_int "SQL1 never touches the index" 0 s1.Recovery_stats.index_page_fetches;
  let _, s2 = recover_verified driver image Recovery.Log1 in
  check "logical redo reads index pages" true (s2.Recovery_stats.index_page_fetches > 0)

let test_recovery_idempotent () =
  let driver, image = make_crash () in
  List.iter
    (fun m ->
      let db1, _ = recover_verified driver image m in
      (* Crash again immediately: the recovered engine wrote CLRs and an
         abort but no new user work; a second recovery (with any method)
         must land in the same state. *)
      let image2 = Db.crash db1 in
      List.iter
        (fun m2 -> ignore (recover_verified driver image2 m2))
        [ Recovery.Log0; Recovery.Sql1 ])
    [ Recovery.Log1; Recovery.Sql2 ]

let test_crash_without_checkpoint () =
  let config = small_config () in
  let db = Db.create ~config () in
  Db.create_table db ~table:1;
  let txn = Db.begin_txn db in
  for k = 0 to 199 do
    match Db.insert db txn ~table:1 ~key:k ~value:(string_of_int k) with
    | Ok () -> ()
    | Error e -> Alcotest.fail (Db.error_to_string e)
  done;
  Db.commit db txn;
  let image = Db.crash db in
  check "no checkpoint ever taken" true (Lsn.is_nil (Crash_image.master image));
  List.iter
    (fun m ->
      let recovered, _ = Db.recover image m in
      check_int "all rows recovered from log start" 200
        (List.length (Db.scan recovered ~table:1 ~lo:min_int ~hi:max_int));
      (match Db.check_integrity recovered with
      | Ok () -> ()
      | Error e -> Alcotest.fail e))
    Recovery.all_methods

let test_empty_db_crash () =
  let db = Db.create ~config:(small_config ()) () in
  Db.create_table db ~table:1;
  Db.checkpoint db;
  let image = Db.crash db in
  List.iter
    (fun m ->
      let recovered, stats = Db.recover image m in
      check_int "empty stays empty" 0
        (List.length (Db.scan recovered ~table:1 ~lo:min_int ~hi:max_int));
      check_int "nothing applied" 0 stats.Recovery_stats.redo_applied)
    Recovery.all_methods

let test_mixed_workload_recovery () =
  let op_mix = Workload.Mixed { update = 0.5; insert = 0.2; delete = 0.2; read = 0.1 } in
  let driver, image = make_crash ~op_mix () in
  List.iter (fun m -> ignore (recover_verified driver image m)) Recovery.all_methods

let test_zipf_workload_recovery () =
  let driver, image = make_crash ~key_dist:(Workload.Zipf 0.99) () in
  List.iter (fun m -> ignore (recover_verified driver image m)) Recovery.all_methods

let test_multi_table_recovery () =
  let spec =
    { (small_spec ~rows:400 ()) with Workload.tables = 3 }
  in
  let driver = Driver.create ~config:(small_config ()) spec in
  Driver.run_crash_protocol driver ~checkpoints:2 ~interval:200 ~tail:10;
  Driver.start_loser driver ~ops:5;
  let image = Driver.crash driver in
  List.iter (fun m -> ignore (recover_verified driver image m)) Recovery.all_methods

let test_dpt_mode_variants () =
  List.iter
    (fun dpt_mode ->
      let driver, image = make_crash ~dpt_mode () in
      List.iter (fun m -> ignore (recover_verified driver image m)) Recovery.all_methods)
    [ Config.Perfect; Config.Reduced ]

let test_aries_checkpoint_mode () =
  let driver, image = make_crash ~checkpoint_mode:Config.Aries_fuzzy ~loser:true () in
  let _, stats = recover_verified driver image Recovery.Aries_ckpt in
  check "aries analysis built a DPT" true (stats.Recovery_stats.dpt_size > 0)

let test_perfect_dpt_not_larger () =
  (* D.1: the perfect DPT is at most as large as the standard one, and at
     least as large as the truly-dirty page count. *)
  let driver_std, image_std = make_crash ~dpt_mode:Config.Standard () in
  let driver_pft, image_pft = make_crash ~dpt_mode:Config.Perfect () in
  let _, s_std = recover_verified driver_std image_std Recovery.Log1 in
  let _, s_pft = recover_verified driver_pft image_pft Recovery.Log1 in
  check "perfect DPT not larger than standard" true
    (s_pft.Recovery_stats.dpt_size <= s_std.Recovery_stats.dpt_size + 4);
  let _, s_red =
    let driver, image = make_crash ~dpt_mode:Config.Reduced () in
    recover_verified driver image Recovery.Log1
  in
  check "reduced DPT not smaller than standard" true
    (s_red.Recovery_stats.dpt_size + 4 >= s_std.Recovery_stats.dpt_size)

(* DPT safety: every page whose stable image misses logged updates must be
   in the DPT, with an rLSN at or below its first needed record.
   [covered_upto] bounds the obligation: the Δ-built DPT only covers
   operations below the last Δ record's TC-LSN — beyond it, Algorithm 5
   falls back to basic redo (the "tail of the log", §4.3) — while SQL's
   BW-built DPT must cover everything. *)
let dpt_safety ?(covered_upto = max_int) image dpt =
  let log = Log.crash image.Crash_image.log in
  let store = image.Crash_image.store in
  let needed = Hashtbl.create 64 in
  (* first record per pid (by pid_hint — ground truth) whose LSN is above
     the stable image's pLSN *)
  Log.iter log ~from:(Crash_image.master image) (fun lsn record ->
      match Lr.redo_view record with
      | Some v ->
          let stable_plsn =
            if Page_store.exists store v.Lr.rv_pid then
              Page.plsn (Page_store.read store v.Lr.rv_pid)
            else -1
          in
          if lsn > stable_plsn && lsn < covered_upto && not (Hashtbl.mem needed v.Lr.rv_pid)
          then Hashtbl.replace needed v.Lr.rv_pid lsn
      | None -> ());
  Hashtbl.iter
    (fun pid first_needed ->
      match Dpt.find dpt pid with
      | None -> Alcotest.failf "DPT safety: dirty page %d missing from DPT" pid
      | Some (rlsn, _) ->
          if rlsn > first_needed then
            Alcotest.failf "DPT safety: page %d rLSN %d above first needed record %d" pid rlsn
              first_needed)
    needed

let test_dpt_safety_all_algorithms () =
  (* Several seeds; check both the SQL DPT (Algorithm 3) and the Δ-built
     DPT (Algorithm 4) against ground truth. *)
  List.iter
    (fun seed ->
      let spec = { (small_spec ()) with Workload.seed } in
      let driver = Driver.create ~config:(small_config ()) spec in
      Driver.run_crash_protocol driver ~checkpoints:2 ~interval:250 ~tail:13;
      let image = Driver.crash driver in
      (* SQL analysis *)
      let stats = Recovery_stats.create () in
      let log = Log.crash image.Crash_image.log in
      let sql_dpt, _ =
        Recovery.physiological_analysis ~aries:false log ~from:(Crash_image.master image) ~stats
      in
      dpt_safety image sql_dpt;
      (* Logical DC analysis: run a Log1 recovery and inspect its DPT.
         Recovery mutates its own copies, so inspect before undo by running
         dc_recovery on a fresh instance. *)
      let engine = Crash_image.instantiate image in
      let stats2 = Recovery_stats.create () in
      let bckpt = Crash_image.master image in
      let dc = (Engine.shard engine 0).Engine.s_dc in
      Dc.dc_recovery dc ~log:engine.Engine.log ~from:bckpt ~bckpt ~build_dpt:true ~stats:stats2;
      (* The Δ records past the checkpoint cover the log up to the last
         one's TC-LSN: before it the DPT must hold every dirty page. *)
      let covered_upto = ref bckpt in
      Log.iter engine.Engine.log ~from:bckpt (fun _ -> function
        | Lr.Delta { tc_lsn; _ } when tc_lsn > bckpt -> covered_upto := tc_lsn
        | _ -> ());
      dpt_safety image ~covered_upto:!covered_upto (Dc.dpt dc))
    [ 3; 17; 99 ]

let test_logical_recovery_ignores_pids () =
  (* Scramble every pid_hint in the log; logical recovery must not notice.
     This enforces the paper's core claim: the TC log is usable without any
     physical page information (§1.2).  Built without the driver so the log
     is never archived and can be re-encoded from offset 0. *)
  let config = small_config () in
  let db = Db.create ~config () in
  Db.create_table db ~table:1;
  let expected = Hashtbl.create 256 in
  let rng = Deut_sim.Rng.create ~seed:21 in
  for k = 0 to 399 do
    let v = Printf.sprintf "init-%d" k in
    Db.put db ~table:1 ~key:k ~value:v;
    Hashtbl.replace expected k v
  done;
  Db.checkpoint db;
  for _ = 0 to 59 do
    let txn = Db.begin_txn db in
    for _ = 0 to 9 do
      let k = Deut_sim.Rng.int rng 400 in
      let v = Printf.sprintf "upd-%d-%d" k (Deut_sim.Rng.int rng 10000) in
      (match Db.update db txn ~table:1 ~key:k ~value:v with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Db.error_to_string e));
      Hashtbl.replace expected k v
    done;
    Db.commit db txn
  done;
  let image = Db.crash db in
  let scrambled = Log.create ~page_size:(Db.config db).Config.page_size in
  Log.iter image.Crash_image.log ~from:Lsn.nil (fun _ record ->
      let record' =
        match record with
        | Lr.Update_rec u -> Lr.Update_rec { u with Lr.pid_hint = 0xDEAD }
        | Lr.Clr c -> Lr.Clr { c with Lr.pid_hint = 0xDEAD }
        | other -> other
      in
      ignore (Log.append scrambled record'));
  Log.force scrambled;
  check_int "scrambling preserved offsets" (Log.end_lsn image.Crash_image.log)
    (Log.end_lsn scrambled);
  let image' = { image with Crash_image.log = scrambled } in
  List.iter
    (fun m ->
      let recovered, _ = Db.recover image' m in
      Hashtbl.iter
        (fun k v ->
          if Db.read recovered ~table:1 ~key:k <> Some v then
            Alcotest.failf "%s: key %d wrong under scrambled pids"
              (Recovery.method_to_string m) k)
        expected)
    [ Recovery.Log0; Recovery.Log1; Recovery.Log2 ]

let test_recovered_db_usable () =
  (* Post-recovery, the engine must support normal operation, further
     checkpoints, and another clean crash/recovery cycle. *)
  let driver, image = make_crash () in
  let db, _ = recover_verified driver image Recovery.Log2 in
  let txn = Db.begin_txn db in
  (match Db.insert db txn ~table:1 ~key:999_999 ~value:"post-recovery" with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Db.error_to_string e));
  Db.commit db txn;
  Db.checkpoint db;
  let image2 = Db.crash db in
  let db2, _ = Db.recover image2 Recovery.Sql1 in
  check "post-recovery write survives the next crash" true
    (Db.read db2 ~table:1 ~key:999_999 = Some "post-recovery");
  match Db.check_integrity db2 with Ok () -> () | Error e -> Alcotest.fail e

let test_committed_tail_redone () =
  (* Updates committed after the last Δ/BW record (the log tail) must be
     recovered by every method, including the tail fallback of logical
     redo. *)
  let config = small_config () in
  let db = Db.create ~config () in
  Db.create_table db ~table:1;
  for k = 0 to 99 do
    Db.put db ~table:1 ~key:k ~value:"init"
  done;
  Db.checkpoint db;
  (* A handful of updates, fewer than delta_period, then crash: they sit in
     the tail. *)
  let txn = Db.begin_txn db in
  for k = 0 to 9 do
    match Db.update db txn ~table:1 ~key:k ~value:"tail-update" with
    | Ok () -> ()
    | Error e -> Alcotest.fail (Db.error_to_string e)
  done;
  Db.commit db txn;
  let image = Db.crash db in
  List.iter
    (fun m ->
      let recovered, stats = Db.recover image m in
      for k = 0 to 9 do
        if Db.read recovered ~table:1 ~key:k <> Some "tail-update" then
          Alcotest.failf "%s lost tail update %d" (Recovery.method_to_string m) k
      done;
      if List.mem m Recovery.[ Log1; Log2; InstantLog2 ] then
        check "tail records took the fallback path" true
          (stats.Recovery_stats.tail_records > 0))
    Recovery.all_methods

let test_dpt_order_prefetch_variant () =
  (* Appendix A.2's alternative: Log2 prefetching the DPT in rLSN order
     instead of the PF-list.  Same correctness, still prefetches. *)
  let driver = Driver.create ~config:(small_config ()) (small_spec ()) in
  Driver.run_crash_protocol driver ~checkpoints:2 ~interval:300 ~tail:15;
  let image = Driver.crash driver in
  let variant_config =
    { (Crash_image.config image) with Config.prefetch_source = Config.Dpt_order }
  in
  let recovered, stats = Db.recover ~config:variant_config image Recovery.Log2 in
  (match Driver.verify_recovered driver recovered with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "dpt-order prefetch: %s" msg);
  check "dpt-order variant still prefetches" true (stats.Recovery_stats.prefetch_issued > 0);
  (* And compare with the default PF-list run from the same image. *)
  let recovered2, stats2 = Db.recover image Recovery.Log2 in
  (match Driver.verify_recovered driver recovered2 with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  check_int "same redo work either way" stats2.Recovery_stats.redo_applied
    stats.Recovery_stats.redo_applied

let test_crash_during_undo () =
  (* The ARIES CLR discipline: crash in the middle of the undo pass, then
     recover again — compensation must resume at the last CLR's undo-next,
     and no update may ever be compensated twice.  The loser has 8 updates. *)
  let driver, image = make_crash () in
  let engine, s1 = Recovery.recover ~undo_fault_after_clrs:3 image Recovery.Log1 in
  check_int "fault stopped undo after 3 CLRs" 3 s1.Recovery_stats.clrs_written;
  let mid = Crash_image.capture engine in
  List.iter
    (fun m ->
      let recovered, s2 = Db.recover mid m in
      (match Driver.verify_recovered driver recovered with
      | Ok () -> ()
      | Error msg ->
          Alcotest.failf "%s after crash-in-undo: %s" (Recovery.method_to_string m) msg);
      check_int "loser still detected" 1 s2.Recovery_stats.losers;
      check_int "exactly the remaining 5 compensations" 5 s2.Recovery_stats.clrs_written)
    [ Recovery.Log1; Recovery.Sql1; Recovery.Log2 ];
  (* Crash mid-undo twice in a row. *)
  let engine2, s2 = Recovery.recover ~undo_fault_after_clrs:2 mid Recovery.Sql2 in
  check_int "second fault after 2 more CLRs" 2 s2.Recovery_stats.clrs_written;
  let mid2 = Crash_image.capture engine2 in
  let recovered, s3 = Db.recover mid2 Recovery.Log2 in
  (match Driver.verify_recovered driver recovered with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  check_int "final 3 compensations" 3 s3.Recovery_stats.clrs_written

let test_recovery_detects_corruption () =
  (* Corruption in the stable store or the log must fail recovery loudly,
     never produce a silently wrong database. *)
  let driver, image = make_crash ~loser:false () in
  ignore driver;
  (* A corrupted log record in the redo range. *)
  let bad_log = Log.crash image.Crash_image.log in
  let victim = ref Lsn.nil in
  Log.iter bad_log ~from:(Crash_image.master image) (fun lsn record ->
      match record with
      | Lr.Update_rec _ when Lsn.is_nil !victim -> victim := lsn
      | _ -> ());
  Log.corrupt_for_test bad_log !victim;
  (try
     ignore (Db.recover { image with Crash_image.log = bad_log } Recovery.Sql1);
     Alcotest.fail "recovery over a corrupt log must raise"
   with Log.Corrupt_record _ -> ());
  (* A corrupted stable page read during redo. *)
  let bad_store = Page_store.clone image.Crash_image.store in
  (* Pick a data page that redo will fetch: any DPT member. *)
  let stats = Recovery_stats.create () in
  let dpt, _ =
    Recovery.physiological_analysis ~aries:false (Log.crash image.Crash_image.log)
      ~from:(Crash_image.master image) ~stats
  in
  match Dpt.entries_by_rlsn dpt with
  | [] -> Alcotest.fail "expected a non-empty DPT"
  | pid :: _ ->
      Page_store.corrupt_for_test bad_store pid;
      (try
         ignore (Db.recover { image with Crash_image.store = bad_store } Recovery.Sql1);
         Alcotest.fail "recovery over a corrupt page must raise"
       with Page_store.Corrupt_page p -> check_int "corrupt pid surfaced" pid p)

(* The flagship property: for arbitrary workload shapes, cache sizes,
   monitor cadences, and crash points, every recovery method reproduces the
   committed state exactly. *)
let crash_scenario_gen =
  let open QCheck2.Gen in
  let* seed = 0 -- 10_000
  and* rows = 300 -- 2000
  and* pool = 24 -- 96
  and* period = 20 -- 80
  and* tail = 0 -- 30
  and* loser_ops = 0 -- 12
  and* mixed = bool
  and* zipf = bool in
  return (seed, rows, pool, period, tail, loser_ops, mixed, zipf)

let prop_recovery_equivalence =
  QCheck2.Test.make ~name:"all methods recover the committed state (random scenarios)"
    ~count:15 crash_scenario_gen
    (fun (seed, rows, pool, period, tail, loser_ops, mixed, zipf) ->
      let config =
        {
          (small_config ()) with
          Config.pool_pages = pool;
          delta_period = period;
          seed = seed + 1;
        }
      in
      let spec =
        {
          (small_spec ~rows ()) with
          Workload.seed;
          op_mix =
            (if mixed then Workload.Mixed { update = 0.5; insert = 0.25; delete = 0.15; read = 0.1 }
             else Workload.Update_only);
          key_dist = (if zipf then Workload.Zipf 0.9 else Workload.Uniform);
        }
      in
      let driver = Driver.create ~config spec in
      Driver.run_crash_protocol driver ~checkpoints:2 ~interval:250 ~tail;
      if loser_ops > 0 then Driver.start_loser driver ~ops:loser_ops;
      let image = Driver.crash driver in
      List.for_all
        (fun m ->
          let recovered, _ = Db.recover image m in
          match Driver.verify_recovered driver recovered with
          | Ok () -> true
          | Error msg ->
              Printf.eprintf "seed=%d %s: %s\n" seed (Recovery.method_to_string m) msg;
              false)
        Recovery.all_methods)

let test_stats_accounting_consistent () =
  let driver, image = make_crash () in
  List.iter
    (fun m ->
      let _, s = recover_verified driver image m in
      check "candidates = skips + applied" true
        (s.Recovery_stats.redo_candidates
        = s.Recovery_stats.skipped_dpt + s.Recovery_stats.skipped_rlsn
          + s.Recovery_stats.skipped_plsn + s.Recovery_stats.redo_applied);
      check "scanned >= candidates" true
        (s.Recovery_stats.records_scanned >= s.Recovery_stats.redo_candidates);
      check "log pages read" true (s.Recovery_stats.log_pages_read > 0);
      check "clock advanced" true (Recovery_stats.total_ms s > 0.0))
    Recovery.all_methods

(* The registry reads the returned record: every "recovery.*" gauge is a
   view over one field of the [Recovery_stats.t] the recovery returns,
   wired to the right field.  The expected list is written out here rather
   than derived from the implementation, so a gauge reading the wrong
   field fails. *)
let stats_fields (s : Recovery_stats.t) =
  let i n = float_of_int n in
  [
    ("analysis_us", s.analysis_us);
    ("redo_us", s.redo_us);
    ("undo_us", s.undo_us);
    ("ttft_us", s.ttft_us);
    ("drained_us", s.drained_us);
    ("records_scanned", i s.records_scanned);
    ("redo_candidates", i s.redo_candidates);
    ("redo_applied", i s.redo_applied);
    ("skipped_dpt", i s.skipped_dpt);
    ("skipped_rlsn", i s.skipped_rlsn);
    ("skipped_plsn", i s.skipped_plsn);
    ("tail_records", i s.tail_records);
    ("data_page_fetches", i s.data_page_fetches);
    ("index_page_fetches", i s.index_page_fetches);
    ("data_stall_us", s.data_stall_us);
    ("index_stall_us", s.index_stall_us);
    ("log_pages_read", i s.log_pages_read);
    ("dpt_size", i s.dpt_size);
    ("deltas_seen", i s.deltas_seen);
    ("bws_seen", i s.bws_seen);
    ("smos_replayed", i s.smos_replayed);
    ("losers", i s.losers);
    ("clrs_written", i s.clrs_written);
    ("prefetch_issued", i s.prefetch_issued);
    ("prefetch_refused", i s.prefetch_refused);
    ("prefetch_hits", i s.prefetch_hits);
    ("stalls", i s.stalls);
    ("pages_ondemand", i s.pages_ondemand);
    ("pages_background", i s.pages_background);
  ]

let check_registry_reads label db (s : Recovery_stats.t) =
  let m = Engine.metrics (Db.engine db) in
  let prefix = "recovery." in
  let registered =
    List.filter_map
      (fun name ->
        if String.starts_with ~prefix name then
          Some (String.sub name (String.length prefix) (String.length name - String.length prefix))
        else None)
      (Deut_obs.Metrics.names m)
  in
  let expected = stats_fields s in
  Alcotest.(check (list string))
    (label ^ ": one gauge per field")
    (List.sort compare (List.map fst expected))
    (List.sort compare registered);
  List.iter
    (fun (field, v) ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "%s: recovery.%s" label field)
        v
        (Deut_obs.Metrics.read m (prefix ^ field)))
    expected

let test_registry_reads_returned_stats () =
  let driver, image = make_crash () in
  let db, s = recover_verified driver image Recovery.Log2 in
  check "log2 did redo work" true (s.Recovery_stats.redo_applied > 0);
  check_registry_reads "Log2" db s;
  (* Instant recovery: the gauges read the live record while the engine
     is open with redo pending, and the same record once drained. *)
  let sess = Db.recover_instant image in
  let db = Db.instant_db sess in
  let m = Engine.metrics (Db.engine db) in
  check "open: ttft gauge live" true (Deut_obs.Metrics.read m "recovery.ttft_us" > 0.0);
  check "open: not drained yet" true (Deut_obs.Metrics.read m "recovery.drained_us" = 0.0);
  let s = Db.instant_finish sess in
  check "drained after open" true (s.Recovery_stats.drained_us >= s.Recovery_stats.ttft_us);
  check "background pages replayed" true (s.Recovery_stats.pages_background > 0);
  check_registry_reads "InstantLog2" db s;
  match Driver.verify_recovered driver db with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "InstantLog2: recovered state wrong: %s" msg

(* Recovery stats register once per registry: every restart assembles a
   fresh engine, so a second registration is a wiring bug and raises
   instead of silently resetting or shadowing the first run's gauges. *)
let test_stats_register_once () =
  let m = Deut_obs.Metrics.create () in
  let s = Recovery_stats.create ~metrics:m () in
  s.Recovery_stats.redo_applied <- 41;
  check "second registration raises" true
    (match Recovery_stats.create ~metrics:m () with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check_int "first run's gauge untouched" 41
    (Deut_obs.Metrics.read_int m "recovery.redo_applied");
  check_int "failed registration adds no name" 29 (List.length (Deut_obs.Metrics.names m))

(* Offline-form InstantLog2 drains at Log2's speed: its drain replays the
   same pages through the same redo operator, fed by a prefetch lane like
   Log2's, so besides the on-demand replays rollback forces before the
   lane fills it adds only a few percent (1.02-1.07x at scale 512).  A
   drain that read every page on demand took 1.39-2.01x. *)
let offline_drain_allowance = 1.15

let test_instant_drains_at_log2_speed () =
  List.iter
    (fun cache_mb ->
      let run = Experiment.paper_crash ~scale:512 ~cache_mb [] in
      let _, log2 = Experiment.recover_verified run Recovery.Log2 in
      let _, inst = Experiment.recover_verified run Recovery.InstantLog2 in
      let drained = Recovery_stats.drained_ms inst and total = Recovery_stats.total_ms log2 in
      check
        (Printf.sprintf "%d MB: drained %.1f ms <= %.2f x Log2 %.1f ms" cache_mb drained
           offline_drain_allowance total)
        true
        (drained <= offline_drain_allowance *. total))
    [ 64; 256; 2048 ]

let suite =
  [
    Alcotest.test_case "all methods restore committed state" `Quick
      test_all_methods_restore_committed_state;
    Alcotest.test_case "methods apply identical work" `Quick test_methods_apply_identical_work;
    Alcotest.test_case "DPT methods fetch fewer pages" `Quick test_dpt_methods_fetch_fewer_pages;
    Alcotest.test_case "SQL does no index IO" `Quick test_sql_does_no_index_io;
    Alcotest.test_case "recovery idempotent" `Quick test_recovery_idempotent;
    Alcotest.test_case "crash without checkpoint" `Quick test_crash_without_checkpoint;
    Alcotest.test_case "empty db crash" `Quick test_empty_db_crash;
    Alcotest.test_case "mixed workload" `Quick test_mixed_workload_recovery;
    Alcotest.test_case "zipf workload" `Quick test_zipf_workload_recovery;
    Alcotest.test_case "multi-table" `Quick test_multi_table_recovery;
    Alcotest.test_case "perfect/reduced logging modes" `Quick test_dpt_mode_variants;
    Alcotest.test_case "ARIES checkpoint mode" `Quick test_aries_checkpoint_mode;
    Alcotest.test_case "DPT size ordering across modes" `Quick test_perfect_dpt_not_larger;
    Alcotest.test_case "DPT safety (algorithms 3 and 4)" `Quick test_dpt_safety_all_algorithms;
    Alcotest.test_case "logical recovery ignores pids" `Quick test_logical_recovery_ignores_pids;
    Alcotest.test_case "recovered db usable" `Quick test_recovered_db_usable;
    Alcotest.test_case "committed tail redone" `Quick test_committed_tail_redone;
    Alcotest.test_case "DPT-order prefetch variant (A.2)" `Quick test_dpt_order_prefetch_variant;
    Alcotest.test_case "crash during undo (CLR resumption)" `Quick test_crash_during_undo;
    Alcotest.test_case "stats accounting" `Quick test_stats_accounting_consistent;
    Alcotest.test_case "registry reads the returned stats" `Quick
      test_registry_reads_returned_stats;
    Alcotest.test_case "stats register once per registry" `Quick test_stats_register_once;
    Alcotest.test_case "corruption fails loudly" `Quick test_recovery_detects_corruption;
    Alcotest.test_case "instant drains at Log2 speed" `Quick test_instant_drains_at_log2_speed;
    Env.qcheck prop_recovery_equivalence;
  ]
