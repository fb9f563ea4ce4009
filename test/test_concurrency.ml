(* The multi-client scheduler: conflict/abort/retry convergence, commit
   latency measured to the log write, group-commit durability under a
   mid-run crash, and the determinism contract — the same seed must
   produce the identical committed state at any client count. *)

module Db = Deut_core.Db
module Config = Deut_core.Config
module Recovery = Deut_core.Recovery
module Recovery_stats = Deut_core.Recovery_stats
module Workload = Deut_workload.Workload
module Driver = Deut_workload.Driver
module Oracle = Deut_workload.Oracle
module Client_sched = Deut_workload.Client_sched

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let config ~clients ~group_commit =
  {
    Env.config with
    Config.page_size = 1024;
    pool_pages = 64;
    locking = true;
    shards = 1;
    clients;
    group_commit;
  }

let spec ~rows = { Workload.default with Workload.rows; seed = 11 }

let verified driver db =
  match Driver.verify_recovered driver db with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* High contention (few rows, many clients): conflicts must occur, losers
   must abort, back off, and retry — and every ticket still commits. *)
let test_conflict_abort_retry () =
  let driver = Driver.create ~config:(config ~clients:4 ~group_commit:1) (spec ~rows:16) in
  let sched = Driver.run_concurrent driver ~txns:60 in
  Client_sched.flush sched;
  let s = Client_sched.stats sched in
  check_int "every ticket committed" 60 s.Client_sched.committed_txns;
  check "contention produced conflicts" true (s.Client_sched.conflicts > 0);
  check "conflicts produced aborts" true (s.Client_sched.aborts > 0);
  check "retries converged (abort rate < 1)" true (s.Client_sched.abort_rate < 1.0);
  (* A commit is durable only once its force's log write completes, so no
     commit takes less than one log-page transfer. *)
  check "commit latency covers the log write" true
    (s.Client_sched.commit_p50_us >= Config.log_disk.Deut_sim.Disk.transfer_us);
  check "commit percentiles ordered" true
    (s.Client_sched.commit_p50_us <= s.Client_sched.commit_p95_us
    && s.Client_sched.commit_p95_us <= s.Client_sched.commit_p99_us);
  verified driver (Driver.db driver)

(* Crash mid-run with group commit batching across clients: transactions
   left open on two clients have records in the durable log (a group force
   ran while they were open) and are losers; a commit still queued in the
   volatile tail is lost.  The durable-prefix-aware oracle and all five
   recovery methods must agree on the surviving state. *)
let test_group_commit_crash () =
  let driver = Driver.create ~config:(config ~clients:4 ~group_commit:4) (spec ~rows:200) in
  let db = Driver.db driver and oracle = Driver.oracle driver in
  let sched = Driver.run_concurrent driver ~txns:50 in
  check "some tickets committed before the crash" true
    ((Client_sched.stats sched).Client_sched.committed_txns > 0);
  let write txn ~key =
    let value = Printf.sprintf "txn%d-key%d" (Db.Txn.id txn) key in
    (match Db.update db txn ~table:1 ~key ~value with
    | Ok () -> ()
    | Error e -> Alcotest.fail (Db.error_to_string e));
    Oracle.buffer_put oracle ~txn:(Db.Txn.id txn) ~table:1 ~key ~value
  in
  let open_txn ~client =
    let txn = Db.begin_txn ~client db in
    Oracle.begin_txn oracle (Db.Txn.id txn);
    txn
  in
  let t0 = open_txn ~client:0 and t1 = open_txn ~client:1 in
  write t0 ~key:10;
  write t1 ~key:20;
  Client_sched.flush sched;
  write t0 ~key:30;
  let queued = open_txn ~client:2 in
  write queued ~key:40;
  check "the last commit is only queued" false (Db.commit_durable db queued);
  Oracle.commit_queued oracle ~txn:(Db.Txn.id queued);
  let queued_value = Some (Printf.sprintf "txn%d-key40" (Db.Txn.id queued)) in
  let image = Driver.crash driver in
  let digests =
    List.map
      (fun m ->
        let recovered, stats = Db.recover image m in
        verified driver recovered;
        check_int "the two open transactions are losers" 2 stats.Recovery_stats.losers;
        check "the queued commit is lost" true (Db.read recovered ~table:1 ~key:40 <> queued_value);
        Client_sched.logical_digest recovered)
      Recovery.all_methods
  in
  List.iter
    (fun d -> check_string "all methods recover the same committed prefix" (List.hd digests) d)
    (List.tl digests)

(* The determinism contract: same seed ⇒ byte-identical logical digest and
   identical committed txn/op counts at 1, 4, and 8 clients. *)
let test_determinism_across_client_counts () =
  let run n =
    let driver = Driver.create ~config:(config ~clients:n ~group_commit:2) (spec ~rows:120) in
    let sched = Driver.run_concurrent driver ~txns:50 in
    Client_sched.flush sched;
    verified driver (Driver.db driver);
    let s = Client_sched.stats sched in
    (Client_sched.logical_digest (Driver.db driver), s.Client_sched.committed_txns,
     s.Client_sched.committed_ops)
  in
  let d1, t1, o1 = run 1 in
  let d4, t4, o4 = run 4 in
  let d8, t8, o8 = run 8 in
  check_int "same txns at 1 vs 4 clients" t1 t4;
  check_int "same txns at 1 vs 8 clients" t1 t8;
  check_int "same ops at 1 vs 4 clients" o1 o4;
  check_int "same ops at 1 vs 8 clients" o1 o8;
  check_string "digest invariant 1 vs 4 clients" d1 d4;
  check_string "digest invariant 1 vs 8 clients" d1 d8

(* Mixed workloads (inserts/deletes draw fresh keys from the shared stream)
   keep the invariant too. *)
let test_determinism_mixed_mix () =
  let mixed =
    { (spec ~rows:150) with
      Workload.op_mix = Workload.Mixed { update = 0.5; insert = 0.2; delete = 0.2; read = 0.1 }
    }
  in
  let run n =
    let driver = Driver.create ~config:(config ~clients:n ~group_commit:1) mixed in
    let sched = Driver.run_concurrent driver ~txns:40 in
    Client_sched.flush sched;
    verified driver (Driver.db driver);
    Client_sched.logical_digest (Driver.db driver)
  in
  check_string "mixed-mix digest invariant" (run 1) (run 8)

let suite =
  [
    Alcotest.test_case "conflict, abort, backoff, retry" `Quick test_conflict_abort_retry;
    Alcotest.test_case "group-commit crash mid-run" `Quick test_group_commit_crash;
    Alcotest.test_case "determinism across client counts" `Quick
      test_determinism_across_client_counts;
    Alcotest.test_case "determinism with a mixed op mix" `Quick test_determinism_mixed_mix;
  ]
