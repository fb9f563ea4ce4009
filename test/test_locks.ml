(* Key locking (strict 2PL, no-wait): the lock table, and its integration
   with transactions, aborts, and recovery. *)

module Db = Deut_core.Db
module Config = Deut_core.Config
module Tc = Deut_core.Tc
module Lock_table = Deut_core.Lock_table
module Recovery = Deut_core.Recovery

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_lock_table_basics () =
  let t = Lock_table.create () in
  check "x grant" true (Lock_table.acquire t ~txn:1 ~table:1 ~key:5 Lock_table.Exclusive = Ok ());
  check "x re-grant to holder" true
    (Lock_table.acquire t ~txn:1 ~table:1 ~key:5 Lock_table.Exclusive = Ok ());
  check "x blocks x" true
    (Lock_table.acquire t ~txn:2 ~table:1 ~key:5 Lock_table.Exclusive = Error 1);
  check "x blocks s" true (Lock_table.acquire t ~txn:2 ~table:1 ~key:5 Lock_table.Shared = Error 1);
  check "different key free" true
    (Lock_table.acquire t ~txn:2 ~table:1 ~key:6 Lock_table.Exclusive = Ok ());
  check "different table free" true
    (Lock_table.acquire t ~txn:2 ~table:2 ~key:5 Lock_table.Exclusive = Ok ());
  Lock_table.release_all t ~txn:1;
  check "freed for others" true
    (Lock_table.acquire t ~txn:2 ~table:1 ~key:5 Lock_table.Exclusive = Ok ());
  (* Txn 2 now holds three locks; releasing it frees every one. *)
  let held_by_2 = [ (1, 5); (1, 6); (2, 5) ] in
  List.iter
    (fun (table, key) ->
      check "holders tracked" true
        (Lock_table.acquire t ~txn:3 ~table ~key Lock_table.Shared = Error 2))
    held_by_2;
  Lock_table.release_all t ~txn:2;
  List.iter
    (fun (table, key) ->
      check "released" true (Lock_table.acquire t ~txn:3 ~table ~key Lock_table.Exclusive = Ok ()))
    held_by_2

let test_shared_locks () =
  let t = Lock_table.create () in
  check "s grant" true (Lock_table.acquire t ~txn:1 ~table:1 ~key:1 Lock_table.Shared = Ok ());
  check "s shares" true (Lock_table.acquire t ~txn:2 ~table:1 ~key:1 Lock_table.Shared = Ok ());
  check "x blocked by sharers" true
    (match Lock_table.acquire t ~txn:3 ~table:1 ~key:1 Lock_table.Exclusive with
    | Error (1 | 2) -> true
    | _ -> false);
  check "upgrade blocked while shared" true
    (match Lock_table.acquire t ~txn:1 ~table:1 ~key:1 Lock_table.Exclusive with
    | Error 2 -> true
    | _ -> false);
  Lock_table.release_all t ~txn:2;
  check "sole sharer upgrades" true
    (Lock_table.acquire t ~txn:1 ~table:1 ~key:1 Lock_table.Exclusive = Ok ());
  check "upgraded lock excludes" true
    (Lock_table.acquire t ~txn:3 ~table:1 ~key:1 Lock_table.Shared = Error 1);
  Lock_table.release_all t ~txn:1;
  Lock_table.release_all t ~txn:3;
  check_int "empty table" 0 (Lock_table.locked_keys t)

let locking_config =
  { Env.config with Config.page_size = 1024; pool_pages = 32; locking = true }

let test_txn_conflicts_and_release () =
  let db = Db.create ~config:locking_config () in
  Db.create_table db ~table:1;
  let t1 = Db.begin_txn db in
  (match Db.insert db t1 ~table:1 ~key:1 ~value:"a" with Ok () -> () | Error e -> Alcotest.fail (Db.error_to_string e));
  let t2 = Db.begin_txn db in
  (* Writer/writer conflict fails fast. *)
  (match Db.update db t2 ~table:1 ~key:1 ~value:"b" with
  | Error (Db.Lock_conflict { holder }) ->
      check_int "conflict names the holder" (Db.Txn.id t1) holder
  | Error e -> Alcotest.failf "unexpected error: %s" (Db.error_to_string e)
  | Ok () -> Alcotest.fail "conflicting write must be refused");
  (* Reader blocked by the exclusive holder too. *)
  (match Db.read_locked db t2 ~table:1 ~key:1 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "locked read must conflict");
  (* Unlocked reads bypass locking by design. *)
  check "unlocked read sees through" true (Db.read db ~table:1 ~key:1 = Some "a");
  Db.commit db t1;
  (* Commit released the lock; t2 can proceed now. *)
  (match Db.update db t2 ~table:1 ~key:1 ~value:"b" with Ok () -> () | Error e -> Alcotest.fail (Db.error_to_string e));
  Db.commit db t2;
  check "final value" true (Db.read db ~table:1 ~key:1 = Some "b")

let test_abort_releases_locks () =
  let db = Db.create ~config:locking_config () in
  Db.create_table db ~table:1;
  Db.put db ~table:1 ~key:7 ~value:"base";
  let t1 = Db.begin_txn db in
  (match Db.update db t1 ~table:1 ~key:7 ~value:"doomed" with Ok () -> () | Error e -> Alcotest.fail (Db.error_to_string e));
  let probe = Db.begin_txn db in
  check "lock held" true
    (match Db.update db probe ~table:1 ~key:7 ~value:"probe" with
    | Error (Db.Lock_conflict { holder }) -> holder = Db.Txn.id t1
    | _ -> false);
  Db.abort db probe;
  Db.abort db t1;
  (* t2 writes the key t1 held: the abort released it. *)
  let t2 = Db.begin_txn db in
  (match Db.update db t2 ~table:1 ~key:7 ~value:"next" with Ok () -> () | Error e -> Alcotest.fail (Db.error_to_string e));
  Db.commit db t2;
  check "abort restored then t2 applied" true (Db.read db ~table:1 ~key:7 = Some "next")

let test_locking_crash_recovery () =
  (* Locks are volatile; recovery of a locking engine works like any other
     and the recovered engine accepts new locked transactions. *)
  let db = Db.create ~config:locking_config () in
  Db.create_table db ~table:1;
  for k = 0 to 199 do
    Db.put db ~table:1 ~key:k ~value:"v"
  done;
  Db.checkpoint db;
  let loser = Db.begin_txn db in
  (match Db.update db loser ~table:1 ~key:0 ~value:"LOSER" with Ok () -> () | Error e -> Alcotest.fail (Db.error_to_string e));
  Deut_wal.Log_manager.force (Db.engine db).Deut_core.Engine.log;
  let image = Db.crash db in
  let recovered, stats = Db.recover image Recovery.Log1 in
  check "loser undone" true (Db.read recovered ~table:1 ~key:0 = Some "v");
  check_int "one loser" 1 stats.Deut_core.Recovery_stats.losers;
  let t = Db.begin_txn recovered in
  (match Db.update recovered t ~table:1 ~key:0 ~value:"post" with Ok () -> () | Error e -> Alcotest.fail (Db.error_to_string e));
  Db.commit recovered t;
  check "post-recovery locking works" true (Db.read recovered ~table:1 ~key:0 = Some "post")

let suite =
  [
    Alcotest.test_case "lock table basics" `Quick test_lock_table_basics;
    Alcotest.test_case "shared locks + upgrade" `Quick test_shared_locks;
    Alcotest.test_case "txn conflicts and release" `Quick test_txn_conflicts_and_release;
    Alcotest.test_case "abort releases locks" `Quick test_abort_releases_locks;
    Alcotest.test_case "crash recovery with locking" `Quick test_locking_crash_recovery;
  ]
