(* Log archiving and restart-from-archive.

   The durability contract (DESIGN.md §8): at every instant the union of
   sealed archive segments and the durable live log covers the whole
   recoverable range contiguously, because the archiver seals a segment
   under its checksum before truncating the live log.  These tests prove
   the contract where it matters: recovery from a truncated log spanning
   archive + live bytes is byte-identical to recovery from the untruncated
   log, for every method, including from a crash at every step of the
   archiving protocol itself. *)

module Db = Deut_core.Db
module Config = Deut_core.Config
module Engine = Deut_core.Engine
module Recovery = Deut_core.Recovery
module Recovery_stats = Deut_core.Recovery_stats
module Crash_image = Deut_core.Crash_image
module Fuzz = Deut_workload.Fuzz
module Log = Deut_wal.Log_manager
module Archive = Deut_wal.Archive

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let table = 1

let base_config =
  {
    Env.config with
    Config.page_size = 1024;
    pool_pages = 32;
    delta_period = 10;
    delta_capacity = 64;
    shards = 1;
    archive = false;
  }

let archive_config = { base_config with Config.archive = true }

(* Where every log starts: a live log not yet cut still has this base. *)
let genesis = Log.base_lsn (Log.create ~page_size:base_config.Config.page_size)
let ok = function Ok () -> () | Error e -> Alcotest.fail (Db.error_to_string e)
let value gen k = Printf.sprintf "v%d.%d" gen k

(* Phase one: enough history (splits, a checkpoint, an abort) that the
   archive point lands well past zero once a second checkpoint completes. *)
let run_phase1 db =
  for k = 0 to 15 do
    Db.put db ~table ~key:k ~value:(value 0 k)
  done;
  let t1 = Db.begin_txn db in
  for k = 0 to 4 do
    ok (Db.update db t1 ~table ~key:k ~value:(value 1 k))
  done;
  Db.commit db t1;
  let t2 = Db.begin_txn db in
  for k = 100 to 109 do
    ok (Db.insert db t2 ~table ~key:k ~value:(value 2 k))
  done;
  Db.commit db t2;
  Db.checkpoint db;
  let t3 = Db.begin_txn db in
  for k = 5 to 9 do
    ok (Db.update db t3 ~table ~key:k ~value:(value 3 k))
  done;
  Db.abort db t3;
  Db.checkpoint db

(* Phase two: post-archiving activity, ending with an in-flight loser. *)
let run_phase2 db =
  let t4 = Db.begin_txn db in
  ok (Db.delete db t4 ~table ~key:1);
  ok (Db.delete db t4 ~table ~key:3);
  Db.commit db t4;
  let t5 = Db.begin_txn db in
  for k = 10 to 14 do
    ok (Db.update db t5 ~table ~key:k ~value:(value 5 k))
  done;
  Db.commit db t5;
  let t6 = Db.begin_txn db in
  ok (Db.update db t6 ~table ~key:4 ~value:"loser4");
  ok (Db.insert db t6 ~table ~key:110 ~value:"loser110")

let setup config =
  let db = Db.create ~config () in
  Db.create_table db ~table;
  db

(* The committed table-1 state a log prefix implies; [Log.iter
   ~from:Lsn.nil] spans archive segments and live bytes transparently, so
   the same fold works on truncated and untruncated images. *)
let committed log =
  List.filter_map
    (fun ((t, k), v) -> if t = table then Some (k, v) else None)
    (Fuzz.expected_of_log log)

let show_entries entries =
  String.concat "; " (List.map (fun (k, v) -> Printf.sprintf "%d=%s" k v) entries)

let recover_and_dump image m =
  let recovered, _stats = Db.recover image m in
  (match Db.check_integrity recovered with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: broken B-tree: %s" (Recovery.method_to_string m) msg);
  Db.dump_table recovered ~table

(* Identical workloads, one archiving + truncating and one untouched: every
   method must recover the same state from both crash images. *)
let test_truncated_equals_untruncated () =
  let db_a = setup archive_config in
  let db_u = setup base_config in
  run_phase1 db_a;
  run_phase1 db_u;
  Db.compact_log db_a;
  (* db_u deliberately not compacted: its log keeps the full history. *)
  run_phase2 db_a;
  run_phase2 db_u;
  let image_a = Db.crash db_a in
  let image_u = Db.crash db_u in
  check "live log was truncated" true (Log.base_lsn image_a.Crash_image.log > 0);
  (match Log.archive image_a.Crash_image.log with
  | Some a ->
      check "archive holds a sealed segment" true (Archive.segment_count a > 0);
      check_int "archive meets the truncation point" (Log.base_lsn image_a.Crash_image.log)
        (Archive.covered_upto a)
  | None -> Alcotest.fail "archiving config produced no archive");
  let expected = committed image_u.Crash_image.log in
  check_int "spanning scan sees the same history"
    (List.length expected)
    (List.length (committed image_a.Crash_image.log));
  List.iter
    (fun m ->
      let from_archive = recover_and_dump image_a m in
      let from_full = recover_and_dump image_u m in
      if from_archive <> from_full then
        Alcotest.failf "%s: truncated+archive differs from untruncated:\n  %s\n  %s"
          (Recovery.method_to_string m) (show_entries from_archive) (show_entries from_full);
      if from_archive <> expected then
        Alcotest.failf "%s: wrong state:\n  expected %s\n  got      %s"
          (Recovery.method_to_string m) (show_entries expected) (show_entries from_archive))
    Recovery.all_methods

(* Crash DURING archiving, at every step of the protocol: a segment
   half-written, a segment sealed but the live log untruncated, a torn
   truncation, and the completed cut.  Each image must recover to exactly
   the state of the untruncated log, under every method. *)
let test_crash_during_archiving () =
  let db = setup archive_config in
  let engine = Db.engine db in
  let log = engine.Engine.log in
  run_phase1 db;
  let images = ref [] in
  Log.set_archive_hook log
    (Some
       (fun step ->
         images := (step, Crash_image.capture engine) :: !images));
  Db.compact_log db;
  Log.set_archive_hook log None;
  let images = List.rev !images in
  let steps = List.map fst images in
  check "partial-segment crash point fired" true (List.mem Log.Archive_segment_partial steps);
  check "sealed-not-truncated crash point fired" true
    (List.mem Log.Archive_segment_sealed steps);
  check "torn-truncation crash point fired" true (List.mem Log.Archive_truncate_torn steps);
  check "completed-cut crash point fired" true (List.mem Log.Archive_truncated steps);
  let step_name = function
    | Log.Archive_segment_partial -> "segment-partial"
    | Log.Archive_segment_sealed -> "segment-sealed"
    | Log.Archive_truncate_torn -> "truncate-torn"
    | Log.Archive_truncated -> "truncated"
  in
  (* The reference state: same workload, never archived. *)
  let db_u = setup base_config in
  run_phase1 db_u;
  let image_u = Db.crash db_u in
  let expected = committed image_u.Crash_image.log in
  List.iter
    (fun (step, image) ->
      (match step with
      | Log.Archive_segment_partial ->
          check "partial: live log not yet cut" true
            (Log.base_lsn image.Crash_image.log = genesis);
          (match Log.archive image.Crash_image.log with
          | Some a -> check "partial: unsealed residue is not durable" true
                        (Archive.segment_count a = 0 && Archive.start_lsn a = None)
          | None -> Alcotest.fail "partial: archive missing from image")
      | Log.Archive_segment_sealed ->
          check "sealed: live log not yet cut" true
            (Log.base_lsn image.Crash_image.log = genesis)
      | Log.Archive_truncate_torn ->
          check "torn: live log partly cut" true
            (Log.base_lsn image.Crash_image.log > genesis)
      | Log.Archive_truncated -> ());
      List.iter
        (fun m ->
          let got = recover_and_dump image m in
          if got <> expected then
            Alcotest.failf "crash at %s, %s:\n  expected %s\n  got      %s" (step_name step)
              (Recovery.method_to_string m) (show_entries expected) (show_entries got))
        Recovery.all_methods)
    images

(* A damaged segment must stop recovery loudly, never degrade silently.
   Archive the whole log so the redo scan cannot avoid the segment, then
   flip one byte near the master record every method must read: the
   whole-segment checksum catches it before any frame is decoded. *)
let test_corrupt_segment_fails_loudly () =
  let db = setup archive_config in
  run_phase1 db;
  let log = (Db.engine db).Engine.log in
  check "whole log archived" true (Log.archive_to log ~upto:(Log.stable_lsn log));
  let image = Db.crash db in
  let a =
    match Log.archive image.Crash_image.log with
    | Some a -> a
    | None -> Alcotest.fail "no archive in image"
  in
  check "master record is archived" true (Archive.contains a image.Crash_image.master);
  Archive.corrupt_for_test a ~lsn:(image.Crash_image.master + 4);
  List.iter
    (fun m ->
      match Db.recover image m with
      | exception Archive.Corrupt_segment _ -> ()
      | _ -> Alcotest.failf "%s: recovered from a corrupt segment" (Recovery.method_to_string m))
    Recovery.all_methods

(* Archive everything up to the stable end: the live log is empty and
   recovery replays purely from segments. *)
let test_restart_from_archive_alone () =
  let db = setup archive_config in
  run_phase1 db;
  let before = Db.dump_table db ~table in
  let log = (Db.engine db).Engine.log in
  check "protocol ran" true (Log.archive_to log ~upto:(Log.stable_lsn log));
  check_int "live log is empty" (Log.end_lsn log) (Log.base_lsn log);
  let image = Db.crash db in
  check_int "crash image keeps the empty live log" (Log.end_lsn image.Crash_image.log)
    (Log.base_lsn image.Crash_image.log);
  List.iter
    (fun m ->
      let got = recover_and_dump image m in
      if got <> before then
        Alcotest.failf "%s: restart from archive alone lost state:\n  expected %s\n  got      %s"
          (Recovery.method_to_string m) (show_entries before) (show_entries got))
    Recovery.all_methods

(* Db.crash must hand recovery the archive exactly as a real restart finds
   the device: same sealed segments, checksums unverified, counters fresh. *)
let test_crash_preserves_archive () =
  let db = setup archive_config in
  run_phase1 db;
  Db.compact_log db;
  let live = match Log.archive (Db.engine db).Engine.log with
    | Some a -> a
    | None -> Alcotest.fail "no live archive"
  in
  let shape a = (Archive.segment_count a, Archive.start_lsn a, Archive.sealed_bytes a) in
  let live_shape = shape live in
  let live_covered = Archive.covered_upto live in
  check "something was archived" true (Archive.segment_count live > 0);
  let image = Db.crash db in
  let a =
    match Log.archive image.Crash_image.log with
    | Some a -> a
    | None -> Alcotest.fail "Db.crash dropped the archive"
  in
  check "same segments survive the crash" true (shape a = live_shape);
  check_int "same coverage" live_covered (Archive.covered_upto a);
  check_int "lifetime counters reset" 0 (Archive.seal_count a);
  (* Independence: corrupting the image's copy must not touch the live one. *)
  let lo = Option.get (Archive.start_lsn live) in
  Archive.corrupt_for_test a ~lsn:lo;
  ignore (Archive.locate live lo);
  check "image archive is a deep copy" true
    (match Archive.locate a lo with
    | exception Archive.Corrupt_segment _ -> true
    | _ -> false)

(* Instant recovery over a part-archived log: the redo range itself
   straddles the archive cut — the first post-checkpoint transaction's
   records live in a sealed segment, the second's (and the loser's) in
   the live tail.  Probe reads on keys whose history straddles the cut
   drive on-demand replay that must pull bytes back out of the archive
   device; the rest drains in the background.  Final state must equal the
   never-archived reference, and the stats must show both replay paths
   were exercised. *)
let test_instant_over_archive () =
  (* Wide values spread the post-checkpoint history over ~10 leaves —
     enough for both the on-demand and the background replay paths to
     fire.  [tail1] is the half that gets archived, [tail2] stays live. *)
  let wide gen k = Printf.sprintf "%s.%d.%d" (String.make 64 'w') gen k in
  let run_tail1 db =
    let t = Db.begin_txn db in
    for k = 0 to 15 do
      ok (Db.update db t ~table ~key:k ~value:(wide 7 k))
    done;
    for k = 200 to 239 do
      ok (Db.insert db t ~table ~key:k ~value:(wide 9 k))
    done;
    Db.commit db t
  in
  let run_tail2 db =
    let t = Db.begin_txn db in
    for k = 100 to 109 do
      ok (Db.update db t ~table ~key:k ~value:(wide 8 k))
    done;
    for k = 220 to 229 do
      ok (Db.update db t ~table ~key:k ~value:(wide 10 k))
    done;
    Db.commit db t;
    let tl = Db.begin_txn db in
    ok (Db.insert db tl ~table ~key:110 ~value:"loser110")
  in
  let db = setup archive_config in
  run_phase1 db;
  run_tail1 db;
  (* Archive the whole stable prefix — checkpoint and tail1 included — so
     the redo scan cannot stay inside the live log. *)
  let log = (Db.engine db).Engine.log in
  check "mid-tail cut ran" true (Log.archive_to log ~upto:(Log.stable_lsn log));
  run_tail2 db;
  let image = Db.crash db in
  (match Log.archive image.Crash_image.log with
  | Some a -> check "history is split across the cut" true (Archive.segment_count a > 0)
  | None -> Alcotest.fail "no archive in image");
  check "live tail is non-empty" true
    (Log.end_lsn image.Crash_image.log > Log.base_lsn image.Crash_image.log);
  let db_u = setup base_config in
  run_phase1 db_u;
  run_tail1 db_u;
  run_tail2 db_u;
  let expected = committed (Db.crash db_u).Crash_image.log in
  (* A first session drains page by page to count what is pending at open. *)
  let pending =
    let inst = Db.recover_instant image in
    let n = ref 0 in
    while Db.instant_step inst do
      incr n
    done;
    !n
  in
  check "several pages pending at open" true (pending >= 4);
  let inst = Db.recover_instant image in
  let rdb = Db.instant_db inst in
  (* One background step first (guaranteeing the drain path fires even if
     the probes cascade through the rest of the tree), then probe reads
     spread across the key ranges: keys 0–15 and 100–109 have history on
     both sides of the cut, 200–239 only in the live tail. *)
  ignore (Db.instant_step inst);
  List.iter (fun key -> ignore (Db.read rdb ~table ~key)) [ 0; 12; 104; 210; 230 ];
  let stats = Db.instant_finish inst in
  (match Db.check_integrity rdb with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "instant over archive: broken B-tree: %s" msg);
  let got = Db.dump_table rdb ~table in
  if got <> expected then
    Alcotest.failf "instant over archive:\n  expected %s\n  got      %s" (show_entries expected)
      (show_entries got);
  check "probe reads replayed pages on demand" true
    (stats.Recovery_stats.pages_ondemand >= 1);
  check "background drain replayed the rest" true
    (stats.Recovery_stats.pages_background >= 1);
  check "served before fully drained" true
    (stats.Recovery_stats.ttft_us < stats.Recovery_stats.drained_us);
  (* The recovered engine's devices start from zero, so any archive reads
     are recovery's own: the redo scan crossed into sealed segments. *)
  check "redo read from the archive device" true
    (Db.metric rdb "disk.archive.pages_read" > 0)

(* Unsealed segments are outside the durability contract. *)
let test_unsealed_segment_ignored () =
  let a = Archive.create ~page_size:1024 in
  Archive.begin_segment a ~lo:0 ~len:100;
  Archive.append_bytes a ~src:(Bytes.make 40 'x') ~src_off:0 ~len:40;
  check_int "no sealed segments" 0 (Archive.segment_count a);
  check "no coverage" true (Archive.start_lsn a = None && Archive.covered_upto a = 0);
  check "offset inside the open segment is not readable" false (Archive.contains a 10);
  let after_crash = Archive.crash a in
  check_int "crash keeps it unsealed" 0 (Archive.segment_count after_crash);
  (* The next cut discards the residue and re-copies from the same start. *)
  Archive.begin_segment a ~lo:0 ~len:60;
  Archive.append_bytes a ~src:(Bytes.make 60 'y') ~src_off:0 ~len:60;
  Archive.seal a;
  check_int "exactly the new segment" 1 (Archive.segment_count a);
  check_int "covered by the re-cut" 60 (Archive.covered_upto a)

(* A compaction at an archive point the archive already covers moves no
   bytes: the second cut seals no segment and leaves the live log as it
   was. *)
let test_second_compact_seals_nothing () =
  let db = setup archive_config in
  run_phase1 db;
  Db.compact_log db;
  let log = (Db.engine db).Engine.log in
  let a = Option.get (Log.archive log) in
  let segments = Archive.segment_count a and cuts = Archive.seal_count a in
  let base = Log.base_lsn log in
  check "the first compaction sealed a segment" true (segments > 0);
  Db.compact_log db;
  check_int "no new segment" segments (Archive.segment_count a);
  check_int "no new seal" cuts (Archive.seal_count a);
  check_int "live log untouched" base (Log.base_lsn log)

let suite =
  [
    Alcotest.test_case "truncated equals untruncated" `Quick test_truncated_equals_untruncated;
    Alcotest.test_case "crash at every archiving step" `Quick test_crash_during_archiving;
    Alcotest.test_case "corrupt segment fails loudly" `Quick test_corrupt_segment_fails_loudly;
    Alcotest.test_case "restart from archive alone" `Quick test_restart_from_archive_alone;
    Alcotest.test_case "crash preserves the archive" `Quick test_crash_preserves_archive;
    Alcotest.test_case "instant recovery over the archive" `Quick test_instant_over_archive;
    Alcotest.test_case "unsealed segment ignored" `Quick test_unsealed_segment_ignored;
    Alcotest.test_case "second compaction seals nothing" `Quick
      test_second_compact_seals_nothing;
  ]
