(* oltp-mixed: normal execution on a freshly loaded 40,000-row table that
   stays inside a 1,024-page pool.  Four simulated clients share one OS
   thread through [Client_sched]: closed loop, strict 2PL, group commit 4,
   ten-op transactions (~50 % update, 10 % insert, 10 % delete, 30 %
   locked read).  A checkpoint with log compaction runs every
   [checkpoint_every] commits.

   The run is a series of identical epochs.  Each loads the table afresh
   (the set-up behind [setup_s]), runs [epoch_txns] transactions in timed
   batches of [batch_txns], then crashes and restarts the result
   [restarts] times, checking every restart against the oracle.  Epochs
   bound the table's growth from inserts, so it never outgrows the pool. *)

open Common

let name = "oltp-mixed"
let batch_txns = 8
let checkpoint_every = 400  (* commits: one batch in fifty checkpoints *)
let epoch_txns = 12_000
let restarts = 3

let spec ~seed =
  {
    Workload.default with
    Workload.rows = 40_000;
    tables = 1;
    ops_per_txn = 10;
    key_dist = Workload.Uniform;
    op_mix = Workload.Mixed { update = 0.5; insert = 0.1; delete = 0.1; read = 0.3 };
    seed = 23 + seed;
  }

let config ~seed =
  pin ~clients:4 ~locking:true ~group_commit:4
    { Config.default with Config.pool_pages = 1024; seed = 42 + seed }

type epoch = {
  load_s : float;
  batches : float list;
  stats : Client_sched.stats;
  normal : counters;  (* engine counters over the batches *)
  checkpoints : int;
  alloc_mb : float;
  majors : int;
  restarts_ : restart list;
  image_facts : (string * float) list;
      (* traced run, first epoch: the crash image's size and its recovery
         time under each paper method *)
}

and restart = {
  recover_ms : float;
  verify_ms : float;
  rstats : Rs.t;
  recovered : counters;
  ttft_us : float;  (* simulated clock when the first transaction committed *)
}

let run_epoch run t sp ~config ~spec ~index =
  Wall.settle ();
  let d, load_ms =
    Wall.timed (fun () -> Wall.span sp "setup.load" (fun () -> Driver.create ~config spec))
  in
  let db = Driver.db d and oracle = Driver.oracle d in
  let sched = Client_sched.create ~oracle db spec in
  let c0 = counters db in
  let g = Wall.gc_mark () in
  let batches = ref [] in
  let since_checkpoint = ref 0 in
  let checkpoints = ref 0 in
  for _ = 1 to epoch_txns / batch_txns do
    let (), ms =
      Wall.timed (fun () ->
          Wall.span sp "batch" (fun () ->
              Wall.span sp "client_sched.run" (fun () -> Client_sched.run sched ~txns:batch_txns);
              since_checkpoint := !since_checkpoint + batch_txns;
              if !since_checkpoint >= checkpoint_every then
                Wall.span sp "tc.checkpoint" (fun () ->
                    Client_sched.flush sched;
                    Driver.checkpoint d;
                    since_checkpoint := 0;
                    incr checkpoints)))
    in
    batches := ms :: !batches
  done;
  let alloc_mb, majors = Wall.gc_since g in
  let stats = Client_sched.stats sched in
  let normal = diff c0 (counters db) in
  t.attempted <- t.attempted + stats.Client_sched.committed_txns;
  (* Crash with every queued group commit durable, then restart. *)
  Client_sched.flush sched;
  Oracle.seal oracle;
  let image = Driver.crash d in
  if sp.Wall.enabled then image_layers sp image;
  (* The first transaction after each restart: a locked read of a seeded key. *)
  let probe =
    let key = Rng.int (stream_rng spec) spec.Workload.rows in
    Read { key; expect = Oracle.committed_value oracle ~table:1 ~key }
  in
  let restarts_ =
    List.init restarts (fun r ->
        Wall.settle ();
        t.attempted <- t.attempted + 1;
        let (db', rstats), recover_ms =
          Wall.timed (fun () -> Wall.span sp "recover" (fun () -> Db.recover image Recovery.Log2))
        in
        let recovered = counters db' in
        t.attempted <- t.attempted + 1;
        if not (run_op db' probe) then
          failure t (Printf.sprintf "%s epoch %d restart %d: first read served a wrong value" name index r);
        let ttft_us = Db.now_ms db' *. 1000.0 in
        if run.fault && index = 0 && r = 1 then corrupt db' ~key:1;
        let verdict, verify_ms =
          Wall.timed (fun () -> Wall.span sp "verify" (fun () -> verify sp oracle ~tables:[ 1 ] db'))
        in
        (match verdict with
        | Ok () -> ()
        | Error e -> failure t (Printf.sprintf "%s epoch %d restart %d: oracle check: %s" name index r e));
        ( { recover_ms; verify_ms; rstats; recovered; ttft_us },
          (Client_sched.logical_digest db', verdict = Ok ()) ))
  in
  (* Only an epoch whose restarts all checked out can serve as the run's
     reference fingerprint. *)
  let verified = List.for_all (fun (_, (_, ok)) -> ok) restarts_ in
  let fingerprint =
    ( List.map (fun (r, (digest, _)) -> (digest, r.rstats, r.recovered, r.ttft_us)) restarts_,
      (stats.Client_sched.committed_txns, stats.aborts, stats.conflicts, stats.makespan_ms),
      normal )
  in
  ( {
      load_s = load_ms /. 1000.0;
      batches = List.rev !batches;
      stats;
      normal;
      checkpoints = !checkpoints;
      alloc_mb;
      majors;
      restarts_ = List.map fst restarts_;
      image_facts =
        (if run.trace && index = 0 then
           ("storage.clone_mb", clone_mb image) :: five_methods image oracle ~tables:[ 1 ]
         else []);
    },
    verified,
    fingerprint )

let run_workload run =
  let t = tally () in
  let config = config ~seed:run.seed and spec = spec ~seed:run.seed in
  Printf.printf "# %s config: %s\n%!" name (describe config);
  let on = Wall.recorder ~enabled:run.trace in
  let off = Wall.recorder ~enabled:false in
  (* Epochs until [seconds] have passed, at least [setups] (each epoch's
     load is one set-up).  In the traced run odd epochs carry spans. *)
  let epochs = ref [] in
  let first = ref None in
  let start = Wall.now_ns () in
  let index = ref 0 in
  while !index < setups || Wall.ms_between start (Wall.now_ns ()) < run.seconds *. 1000.0 do
    let traced = run.trace && !index mod 2 = 1 in
    (match run_epoch run t (if traced then on else off) ~config ~spec ~index:!index with
    | exception e ->
        failure t (Printf.sprintf "%s epoch %d raised %s" name !index (Printexc.to_string e))
    | ep, verified, fingerprint ->
        epochs := (traced, ep) :: !epochs;
        check_batches t ~what:(Printf.sprintf "%s epoch %d" name !index) ep.batches;
        if verified then
          check_same first t
            ~what:(Printf.sprintf "%s epoch %d: digest or simulated stats" name !index)
            fingerprint);
    incr index
  done;
  let all = List.rev_map snd !epochs |> Array.of_list in
  if Array.length all = 0 then failwith (name ^ ": no epoch completed");
  let e0 = all.(0) in
  let r0 = List.hd e0.restarts_ in
  let restarts = Array.of_list (List.concat_map (fun e -> e.restarts_) (Array.to_list all)) in
  let batches = Array.of_list (List.concat_map (fun e -> e.batches) (Array.to_list all)) in
  let committed = Array.fold_left (fun n e -> n + e.stats.Client_sched.committed_txns) 0 all in
  Printf.eprintf "%s: %d epochs, %d batches, %d restarts\n%!" name (Array.length all)
    (Array.length batches) (Array.length restarts);
  let e2e =
    [
      ("setup_s", Wall.median (Array.map (fun e -> e.load_s) all));
      ("recover_ms.p50", Wall.median (Array.map (fun r -> r.recover_ms) restarts));
      ("open_ms.p50", Wall.median (Array.map (fun r -> r.recover_ms) restarts));
      ("verify_ms.p50", Wall.median (Array.map (fun r -> r.verify_ms) restarts));
      ("txn_per_s", float_of_int committed /. (Array.fold_left ( +. ) 0.0 batches /. 1000.0));
      ("batch_ms.p50", batch_percentile (Array.map (fun e -> e.batches) all) 50.0);
      ("batch_ms.p99", batch_percentile (Array.map (fun e -> e.batches) all) 99.0);
      ("sim_recovery_ms", Rs.total_ms r0.rstats);
      ("sim_ttft_ms", r0.ttft_us /. 1000.0);
      ("sim_txn_per_s", e0.stats.Client_sched.throughput_tps);
      ("peak_heap_mb", Wall.peak_heap_mb ());
    ]
  in
  let layers =
    if not run.trace then []
    else begin
      let pick traced = List.filter_map (fun (tr, e) -> if tr = traced then Some e else None) !epochs in
      let batch_wall es =
        Wall.median (Array.of_list (List.map (fun e -> List.fold_left ( +. ) 0.0 e.batches) es))
      in
      let self = Wall.self_times on in
      let med_self name = match self name with [||] -> 0.0 | xs -> Wall.median xs in
      let instantiate = med_self "crash_image.instantiate" in
      let recover_traced = Wall.median (Wall.durations on "recover") in
      let ops = e0.stats.Client_sched.committed_ops in
      [
        ("storage.clone_ms", med_self "storage.clone");
        ("crash_image.instantiate_ms", instantiate);
        ("recovery.rest_ms", recover_traced -. instantiate);
        ("wal.scan_ms", med_self "wal.scan");
        ("btree.integrity_ms", med_self "btree.integrity");
        ("oracle.verify_ms", med_self "oracle.verify");
        ("tc.checkpoint_ms", med_self "tc.checkpoint");
        ("tc.checkpoints", float_of_int e0.checkpoints);
        ("tc.abort_ratio", e0.stats.Client_sched.abort_rate);
        ("tc.lock_conflicts", float_of_int e0.stats.Client_sched.conflicts);
        ("client_sched.run_ms", med_self "client_sched.run");
        ("setup.load_s", med_self "setup.load" /. 1000.0);
        ("gc.alloc_mb", Wall.median (Array.map (fun e -> e.alloc_mb) all));
        ("gc.major_collections", Wall.median (Array.map (fun e -> float_of_int e.majors) all));
        ("trace.overhead_pct", (batch_wall (pick true) /. batch_wall (pick false) -. 1.0) *. 100.0);
      ]
      @ recovery_layers r0.rstats
      @ e0.image_facts
      @ pool_and_disk e0.normal
      @ write_path e0.normal ~ops ~user_bytes:(ops * (8 + spec.Workload.value_size))
          ~txns:e0.stats.Client_sched.committed_txns
    end
  in
  { tally = t; e2e; layers }
