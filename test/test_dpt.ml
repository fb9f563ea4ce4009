(* The DPT structure and the three construction algorithms on synthetic
   logs: SQL Server's Algorithm 3, the paper's Algorithm 4 (plus its
   Appendix D variants), and classic ARIES analysis. *)

module Dpt = Deut_core.Dpt
module Dc = Deut_core.Dc
module Engine = Deut_core.Engine
module Config = Deut_core.Config
module Recovery = Deut_core.Recovery
module Recovery_stats = Deut_core.Recovery_stats
module Lr = Deut_wal.Log_record
module Lsn = Deut_wal.Lsn
module Log = Deut_wal.Log_manager

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_dpt_structure () =
  let d = Dpt.create () in
  check_int "empty" 0 (Dpt.size d);
  check "min_rlsn nil when empty" true (Lsn.is_nil (Dpt.min_rlsn d));
  check "first add" true (Dpt.add d ~pid:1 ~lsn:100);
  check "re-add reports existing" false (Dpt.add d ~pid:1 ~lsn:200);
  (match Dpt.find d 1 with
  | Some (rlsn, last) ->
      check_int "rlsn keeps first mention" 100 rlsn;
      check_int "lastLSN raised" 200 last
  | None -> Alcotest.fail "entry missing");
  (* lastLSN is monotone. *)
  ignore (Dpt.add d ~pid:1 ~lsn:150);
  (match Dpt.find d 1 with
  | Some (_, last) -> check_int "lastLSN monotone" 200 last
  | None -> Alcotest.fail "entry missing");
  ignore (Dpt.add d ~pid:2 ~lsn:50);
  check_int "min rlsn" 50 (Dpt.min_rlsn d);
  ignore (Dpt.add d ~pid:2 ~lsn:90);
  (* A flush whose FW-LSN precedes the entry's last update floors its
     rLSN at FW-LSN. *)
  Dpt.apply_flush d ~pid:2 ~fw_lsn:80;
  check "FW-LSN floors rlsn" true (Option.map fst (Dpt.find d 2) = Some 80);
  Dpt.apply_flush d ~pid:2 ~fw_lsn:60;
  check "FW-LSN never lowers rlsn" true (Option.map fst (Dpt.find d 2) = Some 80);
  Dpt.apply_flush d ~pid:99 ~fw_lsn:10;
  check "flush of absent is noop" true (Dpt.find d 99 = None);
  Alcotest.(check (list int)) "entries_by_rlsn" [ 2; 1 ] (Dpt.entries_by_rlsn d);
  check "entry 1" true (Dpt.find d 1 = Some (100, 200));
  check "entry 2" true (Dpt.find d 2 = Some (80, 90));
  (* FW-LSN is exclusive: an update starting exactly at it is not covered. *)
  Dpt.apply_flush d ~pid:1 ~fw_lsn:200;
  check "FW-LSN = lastLSN keeps the entry" true (Dpt.find d 1 = Some (200, 200));
  Dpt.apply_flush d ~pid:1 ~fw_lsn:201;
  check_int "FW-LSN past lastLSN prunes" 1 (Dpt.size d);
  Dpt.prune d 2;
  check_int "pruned" 0 (Dpt.size d)

let update ~lsn:_ ~pid ?(txn = 1) ?(key = 0) () =
  Lr.Update_rec
    {
      txn;
      table = 1;
      key;
      op = Lr.Update;
      before = Some "a";
      after = Some "b";
      pid_hint = pid;
      prev_lsn = Lsn.nil;
    }

let build_log records =
  let log = Log.create ~page_size:4096 in
  let lsns = List.map (fun r -> Log.append log r) records in
  Log.force log;
  (log, Array.of_list lsns)

let test_sql_analysis_basic () =
  (* Pages 1,2,3 updated; 3 updated twice.  The BW window's first write
     happened between 3's two updates (fw between l2 and l3); pages 1 and 3
     were flushed in the window.  Expected: 1 pruned (its only update
     precedes fw); 2 untouched (not in the written set); 3 kept with its
     rLSN floored at fw. *)
  let probe, lsns =
    build_log
      [
        update ~lsn:0 ~pid:1 ();
        update ~lsn:1 ~pid:2 ();
        update ~lsn:2 ~pid:3 ();
        update ~lsn:3 ~pid:3 ();
      ]
  in
  ignore probe;
  let fw = lsns.(3) - 1 in
  let log, lsns =
    build_log
      [
        update ~lsn:0 ~pid:1 ();
        update ~lsn:1 ~pid:2 ();
        update ~lsn:2 ~pid:3 ();
        update ~lsn:3 ~pid:3 ();
        Lr.Bw { written = [| 1; 3 |]; fw_lsn = fw };
      ]
  in
  let stats = Recovery_stats.create () in
  let dpt, _ = Recovery.physiological_analysis ~aries:false log ~from:Lsn.nil ~stats in
  check "page 1 pruned (flushed after its last update)" false (Dpt.mem dpt 1);
  check "page 2 keeps its first-mention rlsn" true
    (Option.map fst (Dpt.find dpt 2) = Some lsns.(1));
  (match Dpt.find dpt 3 with
  | Some (rlsn, last) ->
      check_int "page 3 rlsn raised to fw" fw rlsn;
      check_int "page 3 last is the later update" lsns.(3) last
  | None -> Alcotest.fail "page 3 missing");
  check_int "bw counted" 1 stats.Recovery_stats.bws_seen;
  check_int "dpt size" 2 (Dpt.size dpt)

(* Algorithm 4 needs a DC; a tiny fresh engine provides one and the
   synthetic log carries only Δ records. *)
let small_config =
  { Env.config with Config.page_size = 512; pool_pages = 16; delta_period = 1000 }

let dc_dpt_of ?(bckpt = Lsn.nil) records =
  let log, lsns = build_log records in
  let engine = Engine.fresh small_config in
  let stats = Recovery_stats.create () in
  let from = if Lsn.is_nil bckpt then Lsn.nil else bckpt in
  let dc = (Engine.shard engine 0).Engine.s_dc in
  Dc.dc_recovery dc ~log ~from ~bckpt ~build_dpt:true ~stats;
  (dc, lsns, stats)

let delta ~dirty ~written ~fw_lsn ~first_dirty ~tc_lsn ?(dirty_lsns = [||]) () =
  Lr.Delta { dirty; written; fw_lsn; first_dirty; tc_lsn; dirty_lsns }

let test_algorithm4_standard () =
  (* Δ1: pages 1,2,3 dirtied, no flush.  Δ2: 3 re-dirtied and 4 dirtied
     after the first write; 1 flushed. *)
  let dc, _, stats =
    dc_dpt_of
      [
        delta ~dirty:[| 1; 2; 3 |] ~written:[||] ~fw_lsn:Lsn.nil ~first_dirty:3 ~tc_lsn:50 ();
        delta ~dirty:[| 3; 4 |] ~written:[| 1 |] ~fw_lsn:70 ~first_dirty:1 ~tc_lsn:100 ();
      ]
  in
  let dpt = Dc.dpt dc in
  check "page 1 pruned" false (Dpt.mem dpt 1);
  (* Pages from Δ1 get the previous record's TC-LSN (here the bckpt = nil)
     as rLSN — conservative. *)
  check "page 2 kept" true (Dpt.mem dpt 2);
  (match Dpt.find dpt 3 with
  | Some (rlsn, last) ->
      check "page 3 rlsn from first interval" true (rlsn <= 50);
      check_int "page 3 last raised by re-dirty (i < FirstDirty → prevΔ)" 50 last
  | None -> Alcotest.fail "page 3 missing");
  check "page 4 rlsn = FW-LSN (dirtied after first write)" true
    (Option.map fst (Dpt.find dpt 4) = Some 70);
  check_int "Δ records seen" 2 stats.Recovery_stats.deltas_seen;
  check_int "dpt size in stats" (Dpt.size dpt) stats.Recovery_stats.dpt_size

let test_algorithm4_redirty_not_pruned () =
  (* The paper's subtle case (§4.2): page dirtied both before and after the
     interval's first write, then flushed.  Its lastLSN becomes FW-LSN and
     the strict < test must NOT prune it. *)
  let dc, _, _ =
    dc_dpt_of
      [ delta ~dirty:[| 7; 7 |] ~written:[| 7 |] ~fw_lsn:60 ~first_dirty:1 ~tc_lsn:90 () ]
  in
  let dpt = Dc.dpt dc in
  check "re-dirtied page survives pruning" true (Dpt.mem dpt 7);
  check "its rlsn is floored at FW-LSN" true (Option.map fst (Dpt.find dpt 7) = Some 60)

let test_algorithm4_dirtied_before_fw_pruned () =
  (* Dirtied only before the first write, then flushed: pruned. *)
  let dc, _, _ =
    dc_dpt_of
      [ delta ~dirty:[| 5 |] ~written:[| 5 |] ~fw_lsn:60 ~first_dirty:1 ~tc_lsn:90 () ]
  in
  check "flushed-after-update page pruned" false (Dpt.mem (Dc.dpt dc) 5)

let test_algorithm4_bckpt_filter () =
  (* Δ records before the checkpoint (or carrying a TC-LSN at or below it)
     are ignored; the first live Δ's entries get the checkpoint as rLSN. *)
  let records =
    [
      delta ~dirty:[| 1 |] ~written:[||] ~fw_lsn:Lsn.nil ~first_dirty:1 ~tc_lsn:10 ();
      Lr.Begin_ckpt;
      delta ~dirty:[| 2 |] ~written:[||] ~fw_lsn:Lsn.nil ~first_dirty:1 ~tc_lsn:10_000 ();
    ]
  in
  let _, lsns = build_log records in
  let bckpt = lsns.(1) in
  let dc, _, stats = dc_dpt_of ~bckpt records in
  let dpt = Dc.dpt dc in
  check "pre-checkpoint Δ ignored" false (Dpt.mem dpt 1);
  check "post-checkpoint Δ applied" true (Dpt.mem dpt 2);
  check "its rlsn is the checkpoint" true (Option.map fst (Dpt.find dpt 2) = Some bckpt);
  check_int "only the live Δ counted" 1 stats.Recovery_stats.deltas_seen

let test_algorithm4_perfect () =
  (* Appendix D.1: exact dirtying LSNs allow exact rLSNs and SQL-grade
     pruning (strict <, since FW-LSN is an exclusive byte offset). *)
  let dc, _, _ =
    dc_dpt_of
      [
        delta ~dirty:[| 1; 2 |] ~written:[| 1 |] ~fw_lsn:150 ~first_dirty:2 ~tc_lsn:200
          ~dirty_lsns:[| 100; 140 |] ();
      ]
  in
  let dpt = Dc.dpt dc in
  check "flushed page pruned (exact lastLSN ≤ fw)" false (Dpt.mem dpt 1);
  check "kept page has its exact dirtying LSN (not in written set: no floor)" true
    (Option.map fst (Dpt.find dpt 2) = Some 140);
  (* An entry updated after fw keeps its exact rlsn. *)
  let dc2, _, _ =
    dc_dpt_of
      [
        delta ~dirty:[| 3 |] ~written:[||] ~fw_lsn:150 ~first_dirty:0 ~tc_lsn:300
          ~dirty_lsns:[| 280 |] ();
      ]
  in
  check "exact rlsn retained" true (Option.map fst (Dpt.find (Dc.dpt dc2) 3) = Some 280)

let test_algorithm4_reduced () =
  (* Appendix D.2: no FW-LSN; the written set prunes only entries from
     earlier Δ records. *)
  let dc, _, _ =
    dc_dpt_of
      [
        delta ~dirty:[| 1 |] ~written:[||] ~fw_lsn:Lsn.nil ~first_dirty:1 ~tc_lsn:50 ();
        (* Interval 2: 1 flushed (added earlier → pruned); 2 dirtied and
           flushed within the interval (NOT pruned — that is the price of
           reduced logging). *)
        delta ~dirty:[| 2 |] ~written:[| 1; 2 |] ~fw_lsn:Lsn.nil ~first_dirty:1 ~tc_lsn:120 ();
      ]
  in
  let dpt = Dc.dpt dc in
  check "earlier-interval entry pruned" false (Dpt.mem dpt 1);
  check "same-interval entry conservatively kept" true (Dpt.mem dpt 2);
  check "reduced rlsn is prevΔ TC-LSN" true (Option.map fst (Dpt.find dpt 2) = Some 50)

let test_fw_boundary_not_pruned () =
  (* Regression: LSNs are byte offsets, so FW-LSN (an end-of-stable-log) is
     exclusive.  A page whose last update record starts exactly at FW-LSN
     was updated AFTER the interval's first write — the flush cannot have
     captured it, and pruning it loses the update.  Found by the random
     crash-scenario property (a flush slipped between a commit force and
     the next append, so FW-LSN equalled the next record's offset). *)
  let probe, lsns = build_log [ update ~lsn:0 ~pid:5 (); update ~lsn:1 ~pid:5 () ] in
  ignore probe;
  let fw = lsns.(1) in
  (* Algorithm 3 (SQL): page 5 flushed before the record at [fw] existed. *)
  let log, _ =
    build_log
      [ update ~lsn:0 ~pid:5 (); update ~lsn:1 ~pid:5 (); Lr.Bw { written = [| 5 |]; fw_lsn = fw } ]
  in
  let stats = Recovery_stats.create () in
  let dpt, _ = Recovery.physiological_analysis ~aries:false log ~from:Lsn.nil ~stats in
  check "boundary record keeps the page in the SQL DPT" true (Dpt.mem dpt 5);
  (match Dpt.find dpt 5 with
  | Some (rlsn, _) -> check "rlsn does not pass the boundary record" true (rlsn <= fw)
  | None -> Alcotest.fail "entry missing");
  (* Algorithm 4, perfect variant (D.1): same boundary. *)
  let dc, _, _ =
    dc_dpt_of
      [
        delta ~dirty:[| 5; 5 |] ~written:[| 5 |] ~fw_lsn:fw ~first_dirty:1 ~tc_lsn:(fw + 500)
          ~dirty_lsns:[| lsns.(0); fw |] ();
      ]
  in
  check "boundary record keeps the page in the Δ DPT" true (Dpt.mem (Dc.dpt dc) 5)

let test_aries_analysis () =
  let ckpt_dpt = Lr.Aries_ckpt_dpt { entries = [| (10, 30, 30); (11, 40, 40) |] } in
  let log, lsns = build_log [ ckpt_dpt; update ~lsn:1 ~pid:12 (); update ~lsn:2 ~pid:10 () ] in
  let stats = Recovery_stats.create () in
  let dpt, redo_start = Recovery.physiological_analysis ~aries:true log ~from:Lsn.nil ~stats in
  check "seeded entry kept" true (Option.map fst (Dpt.find dpt 11) = Some 40);
  check "scan mention added" true (Option.map fst (Dpt.find dpt 12) = Some lsns.(1));
  check "seed rlsn wins over later mention" true (Option.map fst (Dpt.find dpt 10) = Some 30);
  check_int "redo starts at min rlsn" 30 redo_start;
  check_int "three entries" 3 (Dpt.size dpt)

let suite =
  [
    Alcotest.test_case "dpt structure" `Quick test_dpt_structure;
    Alcotest.test_case "algorithm 3 (SQL analysis)" `Quick test_sql_analysis_basic;
    Alcotest.test_case "algorithm 4 standard" `Quick test_algorithm4_standard;
    Alcotest.test_case "algorithm 4: re-dirtied page kept" `Quick test_algorithm4_redirty_not_pruned;
    Alcotest.test_case "algorithm 4: flushed page pruned" `Quick
      test_algorithm4_dirtied_before_fw_pruned;
    Alcotest.test_case "algorithm 4: checkpoint filter" `Quick test_algorithm4_bckpt_filter;
    Alcotest.test_case "algorithm 4: perfect DPT (D.1)" `Quick test_algorithm4_perfect;
    Alcotest.test_case "algorithm 4: reduced logging (D.2)" `Quick test_algorithm4_reduced;
    Alcotest.test_case "FW-LSN boundary not pruned (regression)" `Quick test_fw_boundary_not_pruned;
    Alcotest.test_case "ARIES checkpoint analysis" `Quick test_aries_analysis;
  ]
