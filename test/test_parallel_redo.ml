(* Partitioned parallel redo: the worker count is a pure timing knob.
   Application stays in log order, so the same crash image recovered with
   redo_workers in {1,2,4,8} must produce a byte-identical stable page
   store and identical apply counts; an SMO-heavy workload exercises the
   cross-partition barrier; tracing surfaces per-worker lanes. *)

module Db = Deut_core.Db
module Config = Deut_core.Config
module Engine = Deut_core.Engine
module Recovery = Deut_core.Recovery
module Rs = Deut_core.Recovery_stats
module Pool = Deut_buffer.Buffer_pool
module Page = Deut_storage.Page
module Page_store = Deut_storage.Page_store
module Workload = Deut_workload.Workload
module Driver = Deut_workload.Driver
module Trace = Deut_obs.Trace

let check = Alcotest.(check bool)
let worker_counts = [ 1; 2; 4; 8 ]

let small_config ?(tracing = false) ?(workers = 1) () =
  {
    Env.config with
    Config.page_size = 1024;
    pool_pages = 48;
    delta_period = 40;
    delta_capacity = 64;
    shards = 1;
    redo_workers = workers;
    (* The network lane would sit beyond the worker lanes. *)
    net = false;
    tracing;
    trace_capacity = 1 lsl 18;
  }

let make_crash ?(op_mix = Workload.Update_only) ?(rows = 1200) () =
  let spec = { Workload.default with Workload.rows; value_size = 16; op_mix; seed = 5 } in
  let driver = Driver.create ~config:(small_config ()) spec in
  Driver.run_crash_protocol driver ~checkpoints:3 ~interval:300 ~tail:15;
  Driver.start_loser driver ~ops:8;
  (driver, Driver.crash driver)

(* Digest of the stable page store after forcing every dirty frame out:
   the complete post-recovery database image, byte for byte. *)
let store_digest db =
  let sh0 = Engine.shard (Db.engine db) 0 in
  Pool.flush_all_dirty sh0.Engine.s_pool;
  let pages = ref [] in
  Page_store.iter_stable sh0.Engine.s_store (fun p ->
      pages := (p.Page.pid, Bytes.to_string p.Page.buf) :: !pages);
  let buf = Buffer.create 4096 in
  List.iter
    (fun (pid, bytes) ->
      Buffer.add_string buf (string_of_int pid);
      Buffer.add_char buf ':';
      Buffer.add_string buf bytes)
    (List.sort compare !pages);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* The redo decisions and undo work — everything that determines state.
   IO/prefetch/stall counters legitimately vary with the worker count. *)
let apply_counts (s : Rs.t) =
  [
    s.Rs.records_scanned;
    s.Rs.redo_candidates;
    s.Rs.redo_applied;
    s.Rs.skipped_dpt;
    s.Rs.skipped_rlsn;
    s.Rs.skipped_plsn;
    s.Rs.tail_records;
    s.Rs.dpt_size;
    s.Rs.smos_replayed;
    s.Rs.losers;
    s.Rs.clrs_written;
  ]

let recover_with driver image method_ workers =
  let db, stats = Db.recover ~config:(small_config ~workers ()) image method_ in
  (match Driver.verify_recovered driver db with
  | Ok () -> ()
  | Error msg ->
      Alcotest.failf "%s at %d workers: wrong state: %s" (Recovery.method_to_string method_)
        workers msg);
  (store_digest db, apply_counts stats, stats)

let check_deterministic driver image methods =
  List.iter
    (fun m ->
      let results = List.map (recover_with driver image m) worker_counts in
      match results with
      | [] -> ()
      | (digest1, counts1, _) :: rest ->
          List.iteri
            (fun i (digest, counts, _) ->
              let w = List.nth worker_counts (i + 1) in
              check
                (Printf.sprintf "%s: %d workers, byte-identical store"
                   (Recovery.method_to_string m) w)
                true (String.equal digest digest1);
              Alcotest.(check (list int))
                (Printf.sprintf "%s: %d workers, identical apply counts"
                   (Recovery.method_to_string m) w)
                counts1 counts)
            rest)
    methods

let test_workers_identical () =
  let driver, image = make_crash () in
  check_deterministic driver image Recovery.all_methods

let test_smo_heavy_barrier () =
  (* Insert-weighted churn splits leaves continuously, so the physiological
     methods hit the cross-partition SMO barrier while replaying; the final
     image must still be independent of the worker count. *)
  let driver, image =
    make_crash ~op_mix:(Workload.Mixed { update = 0.3; insert = 0.6; delete = 0.1; read = 0.0 })
      ~rows:800 ()
  in
  List.iter
    (fun m ->
      let _, _, stats = recover_with driver image m 4 in
      check
        (Printf.sprintf "%s: workload produced SMOs to replay" (Recovery.method_to_string m))
        true
        (stats.Rs.smos_replayed > 0))
    [ Recovery.Sql1; Recovery.Sql2 ];
  check_deterministic driver image [ Recovery.Sql1; Recovery.Sql2; Recovery.Log1 ]

let test_worker_trace_lanes () =
  let driver, image = make_crash () in
  let config = small_config ~tracing:true ~workers:4 () in
  let db, _stats = Db.recover ~config image Recovery.Log1 in
  (match Driver.verify_recovered driver db with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "traced parallel recovery wrong: %s" msg);
  let tr =
    match Engine.trace (Db.engine db) with
    | Some tr -> tr
    | None -> Alcotest.fail "tracing enabled but engine has no trace"
  in
  let events = Trace.events tr in
  let on_worker_lane name ev = ev.Trace.name = name && ev.Trace.track >= Trace.track_worker 0 in
  check "redo_op spans land on worker lanes" true
    (List.exists (on_worker_lane "redo_op") events);
  check "stall spans land on worker lanes" true (List.exists (on_worker_lane "stall") events);
  check "no event beyond the configured worker lanes" false
    (List.exists (fun ev -> ev.Trace.track > Trace.track_worker 3) events);
  let json = Trace.to_chrome_json tr in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  check "chrome export names the worker lanes" true (contains "redo-worker-" json)

let suite =
  [
    Alcotest.test_case "workers are timing-only" `Quick test_workers_identical;
    Alcotest.test_case "SMO barrier determinism" `Quick test_smo_heavy_barrier;
    Alcotest.test_case "worker trace lanes" `Quick test_worker_trace_lanes;
  ]
