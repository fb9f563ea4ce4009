(* Crash-point recovery equivalence: capture a crash image at EVERY log
   record boundary of a seeded workload and recover each with every method,
   asserting the recovered B-tree equals the committed prefix of the log,
   key for key.

   Images are captured at append time (store clone + log truncated at the
   boundary) because truncating the final log after the fact is unsound:
   later flushes put post-boundary page images in the stable store, and the
   undo information for them would be missing from the prefix. *)

module Db = Deut_core.Db
module Config = Deut_core.Config
module Engine = Deut_core.Engine
module Recovery = Deut_core.Recovery
module Crash_image = Deut_core.Crash_image
module Fuzz = Deut_workload.Fuzz
module Log = Deut_wal.Log_manager

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let table = 1

let small_config =
  {
    Env.config with
    Config.page_size = 1024;
    pool_pages = 32;
    delta_period = 10;
    delta_capacity = 64;
    shards = 1;
  }

let ok = function Ok () -> () | Error e -> Alcotest.fail (Db.error_to_string e)
let value gen k = Printf.sprintf "v%d.%d" gen k

(* Deterministic workload touching every record type the log can carry:
   auto-commit load, multi-op transactions, B-tree splits (SMO records), a
   checkpoint straddled by activity, an abort (CLRs), deletes, and an
   uncommitted loser at the end. *)
let run_workload db =
  for k = 0 to 15 do
    Db.put db ~table ~key:k ~value:(value 0 k)
  done;
  let t1 = Db.begin_txn db in
  for k = 0 to 4 do
    ok (Db.update db t1 ~table ~key:k ~value:(value 1 k))
  done;
  Db.commit db t1;
  let t2 = Db.begin_txn db in
  for k = 100 to 104 do
    ok (Db.insert db t2 ~table ~key:k ~value:(value 2 k))
  done;
  Db.commit db t2;
  Db.checkpoint db;
  let t3 = Db.begin_txn db in
  for k = 5 to 9 do
    ok (Db.update db t3 ~table ~key:k ~value:(value 3 k))
  done;
  Db.abort db t3;
  let t4 = Db.begin_txn db in
  ok (Db.delete db t4 ~table ~key:1);
  ok (Db.delete db t4 ~table ~key:3);
  Db.commit db t4;
  let t5 = Db.begin_txn db in
  ok (Db.update db t5 ~table ~key:2 ~value:(value 5 2));
  ok (Db.insert db t5 ~table ~key:105 ~value:(value 5 105));
  ok (Db.delete db t5 ~table ~key:0);
  Db.commit db t5;
  Db.checkpoint db;
  let t6 = Db.begin_txn db in
  for k = 10 to 14 do
    ok (Db.update db t6 ~table ~key:k ~value:(value 6 k))
  done;
  Db.commit db t6;
  (* Loser: updates that must NOT survive any crash boundary. *)
  let t7 = Db.begin_txn db in
  ok (Db.update db t7 ~table ~key:4 ~value:"loser4");
  ok (Db.insert db t7 ~table ~key:106 ~value:"loser106")

(* Build the workload with an append hook that snapshots a crash image at
   every record boundary; returns images oldest-first. *)
let build_images () =
  let db = Db.create ~config:small_config () in
  Db.create_table db ~table;
  let engine = Db.engine db in
  let log = engine.Engine.log in
  let images = ref [] in
  Log.set_append_hook log
    (Some
       (fun _lsn -> images := Crash_image.capture ~upto:(Log.end_lsn log) engine :: !images));
  let records_before = Db.metric db "log.tc.records" in
  run_workload db;
  Log.set_append_hook log None;
  (Db.metric db "log.tc.records" - records_before, List.rev !images)

(* The committed table-1 state a prefix of the log implies. *)
let committed log =
  List.filter_map
    (fun ((t, k), v) -> if t = table then Some (k, v) else None)
    (Fuzz.expected_of_log log)

let show_entries entries =
  String.concat "; " (List.map (fun (k, v) -> Printf.sprintf "%d=%s" k v) entries)

let test_every_boundary_every_method () =
  let records_appended, images = build_images () in
  check "a substantial boundary set" true (List.length images > 60);
  check_int "one image per log record" records_appended (List.length images);
  List.iteri
    (fun idx image ->
      let expected = committed image.Crash_image.log in
      List.iter
        (fun m ->
          let recovered, _stats = Db.recover image m in
          (match Db.check_integrity recovered with
          | Ok () -> ()
          | Error msg ->
              Alcotest.failf "boundary %d, %s: broken B-tree: %s" idx
                (Recovery.method_to_string m) msg);
          let got = Db.dump_table recovered ~table in
          if got <> expected then
            Alcotest.failf "boundary %d, %s:\n  expected %s\n  got      %s" idx
              (Recovery.method_to_string m) (show_entries expected) (show_entries got))
        Recovery.all_methods_with_instant)
    images

let test_cross_method_equivalence () =
  (* All methods recovered from the same crash image must converge to the
     same logical state — here the final boundary, which has in-flight
     loser updates and a full history behind it. *)
  let _db, images = build_images () in
  let image = List.nth images (List.length images - 1) in
  let dumps =
    List.map
      (fun m ->
        let recovered, _ = Db.recover image m in
        (m, Db.dump_table recovered ~table))
      Recovery.all_methods_with_instant
  in
  match dumps with
  | [] -> ()
  | (m0, d0) :: rest ->
      List.iter
        (fun (m, d) ->
          if d <> d0 then
            Alcotest.failf "%s and %s disagree:\n  %s\n  %s" (Recovery.method_to_string m0)
              (Recovery.method_to_string m) (show_entries d0) (show_entries d))
        rest;
      check "loser update rolled back everywhere" false
        (List.mem_assoc 106 d0 || List.exists (fun (_, v) -> v = "loser4") d0)

(* Crash *again* in the middle of instant recovery — once while on-demand
   replay is being driven by reads, once partway through the background
   drain — and re-recover.  The double-crash result must be byte-identical
   to recovering the original image once.  Key safety property under test:
   the buffer pool never flushes a page whose redo is still pending (the
   flush hook replays it first), so the second image's stable pages are
   always fully redone and its Δ-derived DPT still covers the rest.  The
   mid-instant captures also must not disturb the live session, which
   finishes afterwards and is compared too. *)
let test_instant_double_crash () =
  let _n, images = build_images () in
  let images = Array.of_list images in
  let n = Array.length images in
  let idxs = List.sort_uniq compare (List.init 8 (fun i -> i * (n - 1) / 7)) in
  List.iter
    (fun idx ->
      let image = images.(idx) in
      let expected = committed image.Crash_image.log in
      let recheck what db =
        let got = Db.dump_table db ~table in
        if got <> expected then
          Alcotest.failf "boundary %d, %s:\n  expected %s\n  got      %s" idx what
            (show_entries expected) (show_entries got)
      in
      let rerecover what image2 =
        List.iter
          (fun m ->
            let recovered, _ = Db.recover image2 m in
            recheck (Printf.sprintf "%s, re-recovered with %s" what (Recovery.method_to_string m))
              recovered)
          [ Recovery.Log2; Recovery.InstantLog2 ]
      in
      (* (a) crash during on-demand replay: probe reads fault in some
         slices, then the "machine dies" with the rest still pending. *)
      let inst = Db.recover_instant image in
      let db = Db.instant_db inst in
      List.iter (fun key -> ignore (Db.read db ~table ~key)) [ 0; 5; 12; 102 ];
      rerecover "crash during on-demand replay" (Crash_image.capture (Db.engine db));
      ignore (Db.instant_finish inst);
      recheck "session continued after mid-ondemand capture" db;
      (* (b) crash partway through the background drain. *)
      let pending =
        let inst = Db.recover_instant image in
        let n = ref 0 in
        while Db.instant_step inst do
          incr n
        done;
        !n
      in
      let inst = Db.recover_instant image in
      let db = Db.instant_db inst in
      let half = pending / 2 in
      for _ = 1 to half do
        ignore (Db.instant_step inst)
      done;
      rerecover "crash mid background drain" (Crash_image.capture (Db.engine db));
      ignore (Db.instant_finish inst);
      recheck "session continued after mid-drain capture" db)
    idxs

let suite =
  [
    Alcotest.test_case "every boundary, every method" `Quick test_every_boundary_every_method;
    Alcotest.test_case "cross-method equivalence" `Quick test_cross_method_equivalence;
    Alcotest.test_case "instant recovery: double crash" `Quick test_instant_double_crash;
  ]
