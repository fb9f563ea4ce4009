(* The two restart workloads.  Both crash the paper's §5.2 database at 1/64
   scale (6,836 pages) and time restarts of that one image:

   - restart-paper: 1,024-page pool (15 % of the DB), standard checkpoint
     interval.  A sample is an offline Log2 recovery, a post-restart stream
     of single-key transactions, then the oracle check.
   - restart-instant: 4,096-page pool (60 %), 10x checkpoint interval.  A
     sample opens the database with [Db.recover_instant], interleaves one
     transaction per background [Db.instant_step] until redo has drained,
     finishes, and checks the result. *)

open Common

type kind = Paper | Instant

let name = function Paper -> "restart-paper" | Instant -> "restart-instant"

let setup_of run = function
  | Paper -> paper_setup ~seed:run.seed ~cache_mb:512 ~ckpt_multiplier:1
  | Instant -> paper_setup ~seed:run.seed ~cache_mb:2048 ~ckpt_multiplier:10

(* Batches are small enough that every sample alone supports a p99 (1,000
   batches): the run reports the median over samples of each sample's
   percentiles, so a slow stretch of the machine moves only its own
   samples. *)
let serve_txns = 2048  (* restart-paper: transactions served after each restart *)
let paper_batch = 2  (* restart-paper: transactions per timed batch *)
let instant_batch = 2  (* restart-instant: (transaction, instant_step) pairs per batch *)

(* EXPERIMENTS.md's Log2 cell at 512 MB: 82.8 ms analysis + 526.1 ms redo. *)
let paper_log2_sim_ms = "608.9"

(* [Experiment.build]'s steps, one span per [Driver] call. *)
let build sp (s : Experiment.scaled) =
  let d =
    Wall.span sp "setup.load" (fun () -> Driver.create ~config:s.Experiment.config s.Experiment.spec)
  in
  Wall.span sp "setup.warm" (fun () -> Driver.warm_to_equilibrium d);
  let p = s.Experiment.protocol in
  Wall.span sp "setup.protocol" (fun () ->
      Driver.run_crash_protocol d ~checkpoints:p.Experiment.checkpoints
        ~interval:p.Experiment.interval ~tail:p.Experiment.tail;
      Driver.start_loser d ~ops:p.Experiment.loser_ops);
  let image = Driver.crash d in
  let oracle = Driver.oracle d in
  Oracle.seal oracle;
  (oracle, image)

(* The instant workload's transaction stream, planned by one dry run: a
   transaction before every background step until redo drains.  The
   engine is deterministic, so every measured sample drains after exactly
   this many transactions. *)
let plan_instant image oracle spec =
  let inst = Db.recover_instant image in
  let db = Db.instant_db inst in
  let rng = stream_rng spec in
  let overlay = Hashtbl.create 4096 in
  let ops = ref [] in
  let draining = ref true in
  while !draining do
    let op = draw_op rng spec oracle overlay in
    if not (run_op db op) then failwith "restart-instant: planning run served a wrong value";
    ops := op :: !ops;
    draining := Db.instant_step inst
  done;
  ignore (Db.instant_finish inst);
  Array.of_list (List.rev !ops)

let plan_paper oracle spec =
  let rng = stream_rng spec in
  let overlay = Hashtbl.create 1024 in
  Array.init serve_txns (fun _ -> draw_op rng spec oracle overlay)

type sample = {
  wall_ms : float;  (* everything timed below, summed *)
  recover_ms : float;
  open_ms : float;
  verify_ms : float;
  batches : float list;
  txn_wall_ms : float;
  txn_sim_us : float;
  txn_in_recover_ms : float;
      (* wall time of the transactions served inside [recover_ms]: timed
         per transaction in traced restart-instant samples, 0 otherwise *)
  ttft_us : float;  (* simulated clock when the first transaction committed *)
  stats : Rs.t;
  recovered : counters;  (* engine counters when recovery finished *)
  served : counters;  (* engine counters over the transaction stream *)
  alloc_mb : float;
  majors : int;
  verdict : (unit, string) result;  (* the oracle check *)
  digest : string;  (* logical digest of the final state (untimed) *)
}

let run_batch t db ops ~ttft_us lo hi =
  for j = lo to hi - 1 do
    t.attempted <- t.attempted + 1;
    if not (run_op db ops.(j)) then
      failure t (Printf.sprintf "transaction %d served a wrong value" j);
    if j = 0 then ttft_us := Db.now_ms db *. 1000.0
  done

let timed_verify sp oracle db =
  Wall.timed (fun () -> Wall.span sp "verify" (fun () -> verify sp oracle ~tables:[ 1 ] db))

let paper_sample run t sp ~image ~oracle ~ops ~index =
  Wall.settle ();
  let g = Wall.gc_mark () in
  let (db, stats), recover_ms =
    Wall.timed (fun () -> Wall.span sp "recover" (fun () -> Db.recover image Recovery.Log2))
  in
  let recovered = counters db in
  let ttft_us = ref 0.0 in
  let batches = ref [] in
  let lo = ref 0 in
  while !lo < Array.length ops do
    let hi = Stdlib.min (Array.length ops) (!lo + paper_batch) in
    let (), ms =
      Wall.timed (fun () -> Wall.span sp "serve.batch" (fun () -> run_batch t db ops ~ttft_us !lo hi))
    in
    batches := ms :: !batches;
    lo := hi
  done;
  let served = diff recovered (counters db) in
  if run.fault && index = 1 then corrupt db ~key:0;
  let verdict, verify_ms = timed_verify sp oracle db in
  let alloc_mb, majors = Wall.gc_since g in
  let txn_wall_ms = List.fold_left ( +. ) 0.0 !batches in
  {
    wall_ms = recover_ms +. verify_ms +. txn_wall_ms;
    recover_ms;
    open_ms = recover_ms;
    verify_ms;
    batches = List.rev !batches;
    txn_wall_ms;
    txn_in_recover_ms = 0.0;
    txn_sim_us = served.now_us;
    ttft_us = !ttft_us;
    stats;
    recovered;
    served;
    alloc_mb;
    majors;
    verdict;
    digest = Client_sched.logical_digest db;
  }

let instant_sample run t sp ~image ~oracle ~ops ~index =
  Wall.settle ();
  let g = Wall.gc_mark () in
  let t0 = Wall.now_ns () in
  let inst, open_ms =
    Wall.timed (fun () -> Wall.span sp "recover_instant" (fun () -> Db.recover_instant image))
  in
  let db = Db.instant_db inst in
  let c0 = counters db in
  let ttft_us = ref 0.0 in
  let batches = ref [] in
  let n = Array.length ops in
  let j = ref 0 in
  let draining = ref true in
  (* The traced run times each transaction on its own, so that
     [recovery.rest_ms] can leave them out of the recovery's wall time. *)
  let txn_in_recover_ms = ref 0.0 in
  let serve j =
    if sp.Wall.enabled then begin
      let (), ms = Wall.timed (fun () -> run_batch t db ops ~ttft_us j (j + 1)) in
      txn_in_recover_ms := !txn_in_recover_ms +. ms
    end
    else run_batch t db ops ~ttft_us j (j + 1)
  in
  while !draining && !j < n do
    let (), ms =
      Wall.timed (fun () ->
          Wall.span sp "serve.batch" (fun () ->
              let hi = Stdlib.min n (!j + instant_batch) in
              while !draining && !j < hi do
                serve !j;
                incr j;
                draining := Db.instant_step inst
              done))
    in
    batches := ms :: !batches
  done;
  let drained_on_plan = (not !draining) && !j = n in
  let served = diff c0 (counters db) in
  let stats = Wall.span sp "instant_finish" (fun () -> Db.instant_finish inst) in
  let recover_ms = Wall.ms_between t0 (Wall.now_ns ()) in
  let recovered = counters db in
  if run.fault && index = 1 then corrupt db ~key:0;
  let verdict, verify_ms = timed_verify sp oracle db in
  let verdict =
    if drained_on_plan then verdict
    else Error (Printf.sprintf "redo drained after %d transactions, the plan has %d" !j n)
  in
  let alloc_mb, majors = Wall.gc_since g in
  {
    wall_ms = recover_ms +. verify_ms;
    recover_ms;
    open_ms;
    verify_ms;
    batches = List.rev !batches;
    txn_wall_ms = List.fold_left ( +. ) 0.0 !batches;
    txn_in_recover_ms = !txn_in_recover_ms;
    txn_sim_us = served.now_us;
    ttft_us = !ttft_us;
    stats;
    recovered;
    served;
    alloc_mb;
    majors;
    verdict;
    digest = Client_sched.logical_digest db;
  }

let run_workload kind run =
  let t = tally () in
  let s = setup_of run kind in
  Printf.printf "# %s config: %s\n%!" (name kind) (describe s.Experiment.config);
  let on = Wall.recorder ~enabled:run.trace in
  let off = Wall.recorder ~enabled:false in
  (* Set up [setups] times untraced, keeping the last build; the traced run
     builds once, with a span per [Driver] call. *)
  let built = ref None in
  let setup_s =
    Array.init
      (if run.trace then 1 else setups)
      (fun _ ->
        built := None;
        Wall.settle ();
        let b, ms = Wall.timed (fun () -> build on s) in
        built := Some b;
        ms /. 1000.0)
  in
  let oracle, image = Option.get !built in
  let five = if run.trace then five_methods image oracle ~tables:[ 1 ] else [] in
  let ops =
    match kind with
    | Paper -> plan_paper oracle s.Experiment.spec
    | Instant -> plan_instant image oracle s.Experiment.spec
  in
  (* Every sample serves [ops] before its oracle check. *)
  commit_stream oracle ops;
  (* Samples until [seconds] have passed, at least three.  In the traced
     run odd samples carry spans and even ones do not: the two halves give
     the tracing overhead. *)
  let sample = match kind with Paper -> paper_sample | Instant -> instant_sample in
  let samples = ref [] in
  let first = ref None in
  let start = Wall.now_ns () in
  let index = ref 0 in
  while !index < 3 || Wall.ms_between start (Wall.now_ns ()) < run.seconds *. 1000.0 do
    let traced = run.trace && !index mod 2 = 1 in
    let sp = if traced then on else off in
    if traced then image_layers sp image;
    t.attempted <- t.attempted + 1;
    (match sample run t sp ~image ~oracle ~ops ~index:!index with
    | exception e ->
        failure t (Printf.sprintf "%s sample %d raised %s" (name kind) !index (Printexc.to_string e))
    | smp -> (
        Printf.eprintf "%s sample %d%s: recover %.2f ms, open %.2f ms, verify %.1f ms, %d txns %.1f ms\n%!"
          (name kind) !index (if traced then " (traced)" else "") smp.recover_ms smp.open_ms
          smp.verify_ms (Array.length ops) smp.txn_wall_ms;
        samples := (traced, smp) :: !samples;
        check_batches t ~what:(Printf.sprintf "%s sample %d" (name kind) !index) smp.batches;
        match smp.verdict with
        | Error e -> failure t (Printf.sprintf "%s sample %d: oracle check: %s" (name kind) !index e)
        | Ok () ->
            check_same first t
              ~what:(Printf.sprintf "%s sample %d: digest or simulated stats" (name kind) !index)
              (smp.digest, smp.stats, smp.recovered, smp.served, smp.ttft_us)));
    incr index
  done;
  let all = List.rev_map snd !samples |> Array.of_list in
  if Array.length all = 0 then failwith (name kind ^ ": no sample completed");
  let pick f = Array.map f all in
  let med f = Wall.median (pick f) in
  let s0 = all.(0) in
  Printf.eprintf "%s: %d samples\n%!" (name kind) (Array.length all);
  let txns = float_of_int (Array.length ops) in
  let sim_recovery_ms =
    match kind with Paper -> Rs.total_ms s0.stats | Instant -> Rs.drained_ms s0.stats
  in
  if kind = Paper && run.seed = 0 && Printf.sprintf "%.1f" sim_recovery_ms <> paper_log2_sim_ms then
    failure t
      (Printf.sprintf "restart-paper: simulated Log2 recovery %.1f ms, EXPERIMENTS.md has %s ms"
         sim_recovery_ms paper_log2_sim_ms);
  let e2e =
    [
      ("setup_s", Wall.median setup_s);
      ("recover_ms.p50", med (fun x -> x.recover_ms));
      ("open_ms.p50", med (fun x -> x.open_ms));
      ("verify_ms.p50", med (fun x -> x.verify_ms));
      ( "txn_per_s",
        txns *. float_of_int (Array.length all)
        /. (Array.fold_left ( +. ) 0.0 (pick (fun x -> x.txn_wall_ms)) /. 1000.0) );
      ("batch_ms.p50", batch_percentile (pick (fun x -> x.batches)) 50.0);
      ("batch_ms.p99", batch_percentile (pick (fun x -> x.batches)) 99.0);
      ("sim_recovery_ms", sim_recovery_ms);
      ("sim_ttft_ms", s0.ttft_us /. 1000.0);
      ("sim_txn_per_s", txns /. (s0.txn_sim_us /. 1e6));
      ("peak_heap_mb", Wall.peak_heap_mb ());
    ]
  in
  let layers =
    if not run.trace then []
    else begin
      let traced = List.filter_map (fun (tr, x) -> if tr then Some x else None) !samples |> Array.of_list in
      let untraced = List.filter_map (fun (tr, x) -> if tr then None else Some x) !samples |> Array.of_list in
      let self = Wall.self_times on in
      let med_self name = match self name with [||] -> 0.0 | xs -> Wall.median xs in
      (* The recovery calls' share of [recover_ms]: on restart-instant the
         transactions served while redo drains are left out. *)
      let recovery_calls = Wall.median (Array.map (fun x -> x.recover_ms -. x.txn_in_recover_ms) traced) in
      let instantiate = med_self "crash_image.instantiate" in
      let wall xs = Wall.median (Array.map (fun x -> x.wall_ms) xs) in
      let writes = Array.fold_left (fun n op -> match op with Write _ -> n + 1 | Read _ -> n) 0 ops in
      let user_bytes = Array.fold_left (fun n op -> n + value_bytes op) 0 ops in
      [
        ("storage.clone_ms", med_self "storage.clone");
        ("storage.clone_mb", clone_mb image);
        ("crash_image.instantiate_ms", instantiate);
        ("recovery.rest_ms", recovery_calls -. instantiate);
        ("wal.scan_ms", med_self "wal.scan");
        ("btree.integrity_ms", med_self "btree.integrity");
        ("oracle.verify_ms", med_self "oracle.verify");
        ("setup.load_s", med_self "setup.load" /. 1000.0);
        ("setup.warm_s", med_self "setup.warm" /. 1000.0);
        ("setup.protocol_s", med_self "setup.protocol" /. 1000.0);
        ("gc.alloc_mb", med (fun x -> x.alloc_mb));
        ("gc.major_collections", med (fun x -> float_of_int x.majors));
        ("trace.overhead_pct", (wall traced /. wall untraced -. 1.0) *. 100.0);
      ]
      @ recovery_layers s0.stats @ five
      @ pool_and_disk s0.recovered
      @ write_path s0.served ~ops:writes ~user_bytes ~txns:(Array.length ops)
    end
  in
  { tally = t; e2e; layers }
