(* Bank transfers under key locking: atomicity + durability end to end.

   Transfers move money between accounts inside transactions, with strict
   2PL key locks (a conflict aborts and the transfer retries).  The
   invariant — total money is conserved — must hold at every observable
   point: before the crash, and after recovery, which rolls back the
   in-flight transfer caught by the crash.

   Run with:  dune exec examples/bank.exe *)

module Db = Deut_core.Db
module Config = Deut_core.Config
module Recovery = Deut_core.Recovery
module Rng = Deut_sim.Rng

let accounts = 200
let initial_balance = 1_000
let table = 1

let balance db key =
  match Db.read db ~table ~key with
  | Some v -> int_of_string v
  | None -> failwith (Printf.sprintf "account %d missing" key)

let total db = Db.fold_table db ~table ~init:0 ~f:(fun acc _ v -> acc + int_of_string v)

let transfer db rng =
  let src = Rng.int rng accounts and dst = Rng.int rng accounts in
  if src = dst then ()
  else begin
    let txn = Db.begin_txn db in
    let attempt =
      (* Locked reads, then locked writes: all-or-nothing under 2PL. *)
      match (Db.read_locked db txn ~table ~key:src, Db.read_locked db txn ~table ~key:dst) with
      | Ok (Some s), Ok (Some d) ->
          let amount = 1 + Rng.int rng 50 in
          let s = int_of_string s and d = int_of_string d in
          if s < amount then Ok () (* insufficient funds: empty transaction *)
          else
            let ( let* ) r f = Result.bind r f in
            let* () = Db.update db txn ~table ~key:src ~value:(string_of_int (s - amount)) in
            Db.update db txn ~table ~key:dst ~value:(string_of_int (d + amount))
      | Error e, _ | _, Error e -> Error e
      | Ok None, _ | _, Ok None -> failwith "account vanished"
    in
    match attempt with
    | Ok () -> Db.commit db txn
    | Error (Db.Lock_conflict _) -> Db.abort db txn (* no-wait 2PL: abort, move on *)
    | Error e -> failwith (Db.error_to_string e)
  end

let () =
  let config =
    { (Config.of_env Config.default) with Config.page_size = 1024; pool_pages = 64; locking = true }
  in
  let db = Db.create ~config () in
  Db.create_table db ~table;
  for k = 0 to accounts - 1 do
    Db.put db ~table ~key:k ~value:(string_of_int initial_balance)
  done;
  Db.checkpoint db;
  let expected_total = accounts * initial_balance in
  assert (total db = expected_total);

  let rng = Rng.create ~seed:4242 in
  for _ = 1 to 2_000 do
    transfer db rng
  done;
  Printf.printf "after 2000 transfers: total = %d (conserved: %b)\n%!" (total db)
    (total db = expected_total);
  assert (total db = expected_total);

  (* Crash with a transfer in flight: debit applied, credit not yet. *)
  let txn = Db.begin_txn db in
  (match Db.read_locked db txn ~table ~key:0 with
  | Ok (Some s) ->
      (match Db.update db txn ~table ~key:0 ~value:(string_of_int (int_of_string s - 500)) with
      | Ok () -> ()
      | Error e -> failwith (Db.error_to_string e))
  | _ -> failwith "read failed");
  Deut_wal.Log_manager.force (Db.engine db).Deut_core.Engine.log;
  let half_done = balance db 0 in
  Printf.printf "crash with a debit in flight (account 0: %d, money missing!)\n%!" half_done;
  let image = Db.crash db in

  let recovered, stats = Db.recover image Recovery.Log2 in
  Printf.printf "recovered: %d losers undone, account 0 restored to %d\n%!"
    stats.Deut_core.Recovery_stats.losers (balance recovered 0);
  assert (total recovered = expected_total);
  Printf.printf "invariant holds after recovery: total = %d\n\n%!" (total recovered);
  print_string (Db.stats_string recovered)
