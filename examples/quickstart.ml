(* Quickstart: a transactional KV store that survives a crash.

   Run with:  dune exec examples/quickstart.exe *)

module Db = Deut_core.Db
module Config = Deut_core.Config
module Recovery = Deut_core.Recovery
module Recovery_stats = Deut_core.Recovery_stats

let () =
  (* A small engine: 1 KiB pages, a 64-page cache, the DEUT_* knobs. *)
  let config = { (Config.of_env Config.default) with Config.page_size = 1024; pool_pages = 64 } in
  let db = Db.create ~config () in
  let table = 1 in
  Db.create_table db ~table;

  (* Committed work: survives the crash. *)
  let txn = Db.begin_txn db in
  List.iter
    (fun (k, v) ->
      match Db.insert db txn ~table ~key:k ~value:v with
      | Ok () -> ()
      | Error e -> failwith (Db.error_to_string e))
    [ (1, "apples"); (2, "bread"); (3, "cheese") ];
  Db.commit db txn;

  let txn = Db.begin_txn db in
  (match Db.update db txn ~table ~key:2 ~value:"baguette" with Ok () -> () | Error e -> failwith (Db.error_to_string e));
  (match Db.delete db txn ~table ~key:3 with Ok () -> () | Error e -> failwith (Db.error_to_string e));
  Db.commit db txn;

  (* A checkpoint bounds how much log recovery must replay. *)
  Db.checkpoint db;

  (* Uncommitted work: must be rolled back by recovery's undo pass. *)
  let loser = Db.begin_txn db in
  (match Db.update db loser ~table ~key:1 ~value:"POISON" with Ok () -> () | Error e -> failwith (Db.error_to_string e));
  (* Force the log so the loser's records survive and undo has work to do. *)
  Deut_wal.Log_manager.force (Db.engine db).Deut_core.Engine.log;

  (* Pull the plug. *)
  let image = Db.crash db in
  print_endline "crashed.";

  (* Recover with logical redo + DPT + prefetch (the paper's Log2). *)
  let db', stats = Db.recover image Recovery.Log2 in
  Printf.printf "recovered in %.1f simulated ms (%d records scanned, %d losers undone)\n"
    (Recovery_stats.total_ms stats) stats.Recovery_stats.records_scanned
    stats.Recovery_stats.losers;

  List.iter
    (fun k ->
      Printf.printf "  key %d -> %s\n" k
        (match Db.read db' ~table ~key:k with Some v -> v | None -> "<absent>"))
    [ 1; 2; 3 ];

  assert (Db.read db' ~table ~key:1 = Some "apples") (* loser rolled back *);
  assert (Db.read db' ~table ~key:2 = Some "baguette");
  assert (Db.read db' ~table ~key:3 = None);
  print_endline "state is exactly the committed state. ok."
