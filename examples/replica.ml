(* Log-shipping to a physically different replica — the paper's §1.1
   motivation: because TC log records are logical (table + key, no page
   ids), they can be applied to a replica with a completely different
   physical configuration.  Here the primary uses 4 KiB pages and the
   replica 1 KiB pages: different page counts, different B-tree shapes,
   identical logical contents.

   Run with:  dune exec examples/replica.exe *)

module Db = Deut_core.Db
module Config = Deut_core.Config
module Engine = Deut_core.Engine
module Crash_image = Deut_core.Crash_image
module Lr = Deut_wal.Log_record
module Lsn = Deut_wal.Lsn
module Log = Deut_wal.Log_manager
module Rng = Deut_sim.Rng

let table = 1

(* Apply the committed transactions of a (crashed primary's) log to any Db
   through its public, purely logical API.  Two passes: find the committed
   transaction ids, then replay their operations in log order. *)
let apply_logical_log log (replica : Db.t) =
  let committed = Hashtbl.create 256 in
  Log.iter log ~from:Lsn.nil (fun _ record ->
      match record with
      | Lr.Commit { txn } -> Hashtbl.replace committed txn ()
      | _ -> ());
  let applied = ref 0 in
  Log.iter log ~from:Lsn.nil (fun _ record ->
      match record with
      | Lr.Update_rec u when Hashtbl.mem committed u.Lr.txn ->
          let txn = Db.begin_txn replica in
          let result =
            match (u.Lr.op, u.Lr.after) with
            | Lr.Insert, Some v -> Db.insert replica txn ~table:u.Lr.table ~key:u.Lr.key ~value:v
            | Lr.Update, Some v -> Db.update replica txn ~table:u.Lr.table ~key:u.Lr.key ~value:v
            | Lr.Delete, _ -> Db.delete replica txn ~table:u.Lr.table ~key:u.Lr.key
            | (Lr.Insert | Lr.Update), None -> failwith "replica apply: malformed record"
          in
          (match result with
          | Ok () -> incr applied
          | Error e -> failwith ("replica apply: " ^ Db.error_to_string e));
          Db.commit replica txn
      | _ -> ());
  !applied

let () =
  let env = Config.of_env Config.default in
  (* Primary: 4 KiB pages. *)
  let primary_config = { env with Config.page_size = 4096; pool_pages = 64 } in
  let primary = Db.create ~config:primary_config () in
  Db.create_table primary ~table;
  let rng = Rng.create ~seed:2026 in
  for k = 0 to 1999 do
    Db.put primary ~table ~key:k ~value:(Printf.sprintf "row-%06d" k)
  done;
  for _ = 1 to 300 do
    let txn = Db.begin_txn primary in
    for _ = 1 to 10 do
      let k = Rng.int rng 2000 in
      match Db.update primary txn ~table ~key:k ~value:(Printf.sprintf "v2-%07d" (Rng.int rng 1_000_000)) with
      | Ok () -> ()
      | Error e -> failwith (Db.error_to_string e)
    done;
    Db.commit primary txn
  done;
  (* An uncommitted transaction: the replica must never see it. *)
  let loser = Db.begin_txn primary in
  (match Db.update primary loser ~table ~key:0 ~value:"UNCOMMITTED" with
  | Ok () -> ()
  | Error e -> failwith (Db.error_to_string e));
  Log.force (Db.engine primary).Engine.log;

  let image = Db.crash primary in
  Printf.printf "primary crashed: %d pages of %d bytes\n"
    (Deut_storage.Page_store.allocated_count image.Crash_image.store)
    primary_config.Config.page_size;

  (* Replica: 1 KiB pages — a disparate physical configuration. *)
  let replica_config = { env with Config.page_size = 1024; pool_pages = 256 } in
  let replica = Db.create ~config:replica_config () in
  Db.create_table replica ~table;
  let applied = apply_logical_log image.Crash_image.log replica in
  Printf.printf "replica built: %d pages of %d bytes, %d logical operations applied\n"
    (Db.metric replica "store.allocated") replica_config.Config.page_size applied;

  (* The physical layouts differ... *)
  assert (
    Db.metric replica "store.allocated"
    <> Deut_storage.Page_store.allocated_count image.Crash_image.store);

  (* ...but the logical contents are identical to the primary's committed
     state, which we obtain by recovering the primary image. *)
  let recovered_primary, _ = Db.recover image Deut_core.Recovery.Log1 in
  let primary_state = Db.dump_table recovered_primary ~table in
  let replica_state = Db.dump_table replica ~table in
  assert (List.length primary_state = 2000);
  assert (primary_state = replica_state);
  assert (Db.read replica ~table ~key:0 <> Some "UNCOMMITTED");
  (match Db.check_integrity replica with Ok () -> () | Error e -> failwith e);
  Printf.printf "replica state == primary committed state (%d rows). ok.\n"
    (List.length replica_state)
