module Db = Deut_core.Db
module Config = Deut_core.Config
module Rng = Deut_sim.Rng
module Pool = Deut_buffer.Buffer_pool

type t = {
  db : Db.t;
  spec : Workload.spec;
  rng : Rng.t;
  zipf : Rng.Zipf.dist option;
  oracle : Oracle.t;
  mutable updates : int;
  mutable next_fresh_key : int;  (* for insert workloads *)
  mutable seq_cursor : int;
}

let db t = t.db
let oracle t = t.oracle
let spec t = t.spec
let updates_done t = t.updates

let table_of t =
  if t.spec.Workload.tables = 1 then 1 else 1 + Rng.int t.rng t.spec.Workload.tables

let key_of t =
  match t.spec.Workload.key_dist with
  | Workload.Uniform -> Rng.int t.rng t.spec.Workload.rows
  | Workload.Zipf _ -> Rng.Zipf.sample t.rng (Option.get t.zipf)
  | Workload.Sequential ->
      let k = t.seq_cursor in
      t.seq_cursor <- (t.seq_cursor + 1) mod t.spec.Workload.rows;
      k

let fail_op what = function
  | Ok () -> ()
  | Error e -> failwith (Printf.sprintf "Driver: %s failed: %s" what (Db.error_to_string e))

let create ~config spec =
  let database = Db.create ~config () in
  let rng = Rng.create ~seed:spec.Workload.seed in
  let zipf =
    match spec.Workload.key_dist with
    | Workload.Zipf theta -> Some (Rng.Zipf.create ~n:spec.Workload.rows ~theta)
    | Workload.Uniform | Workload.Sequential -> None
  in
  let oracle = Oracle.create () in
  let t =
    {
      db = database;
      spec;
      rng;
      zipf;
      oracle;
      updates = 0;
      next_fresh_key = spec.Workload.rows;
      seq_cursor = 0;
    }
  in
  (* Bulk load: sequential keys in commit batches; archive the log as we
     go so SMO page images from the load do not accumulate in memory. *)
  for table = 1 to spec.Workload.tables do
    Db.create_table database ~table;
    let batch = 1000 in
    let k = ref 0 in
    while !k < spec.Workload.rows do
      let txn = Db.begin_txn database in
      Oracle.begin_txn oracle (Db.Txn.id txn);
      let upper = Stdlib.min (!k + batch) spec.Workload.rows in
      while !k < upper do
        let value = Workload.value_of rng ~size:spec.Workload.value_size in
        fail_op "load insert" (Db.insert database txn ~table ~key:!k ~value);
        Oracle.buffer_put oracle ~txn:(Db.Txn.id txn) ~table ~key:!k ~value;
        incr k
      done;
      Db.commit database txn;
      Oracle.commit oracle ~txn:(Db.Txn.id txn);
      if !k mod 100_000 = 0 then begin
        Db.checkpoint database;
        Db.compact_log database
      end
    done
  done;
  Db.checkpoint database;
  Db.compact_log database;
  t

let apply_one t txn ~table =
  let key = key_of t in
  match t.spec.Workload.op_mix with
  | Workload.Update_only ->
      let value = Workload.value_of t.rng ~size:t.spec.Workload.value_size in
      fail_op "update" (Db.update t.db txn ~table ~key ~value);
      Oracle.buffer_put t.oracle ~txn:(Db.Txn.id txn) ~table ~key ~value;
      t.updates <- t.updates + 1
  | Workload.Mixed { update; insert; delete; read } ->
      let total = update +. insert +. delete +. read in
      let x = Rng.float t.rng total in
      if x < update then begin
        let value = Workload.value_of t.rng ~size:t.spec.Workload.value_size in
        match Db.update t.db txn ~table ~key ~value with
        | Ok () ->
            Oracle.buffer_put t.oracle ~txn:(Db.Txn.id txn) ~table ~key ~value;
            t.updates <- t.updates + 1
        | Error _ -> ()  (* key deleted earlier: treat as a no-op *)
      end
      else if x < update +. insert then begin
        let key = t.next_fresh_key in
        t.next_fresh_key <- key + 1;
        let value = Workload.value_of t.rng ~size:t.spec.Workload.value_size in
        fail_op "insert" (Db.insert t.db txn ~table ~key ~value);
        Oracle.buffer_put t.oracle ~txn:(Db.Txn.id txn) ~table ~key ~value;
        t.updates <- t.updates + 1
      end
      else if x < update +. insert +. delete then begin
        match Db.delete t.db txn ~table ~key with
        | Ok () ->
            Oracle.buffer_delete t.oracle ~txn:(Db.Txn.id txn) ~table ~key;
            t.updates <- t.updates + 1
        | Error _ -> ()  (* already gone *)
      end
      else ignore (Db.read t.db ~table ~key)

let run_txn t =
  let txn = Db.begin_txn t.db in
  Oracle.begin_txn t.oracle (Db.Txn.id txn);
  let table = table_of t in
  for _ = 1 to t.spec.Workload.ops_per_txn do
    apply_one t txn ~table
  done;
  Db.commit t.db txn;
  Oracle.commit t.oracle ~txn:(Db.Txn.id txn)

let run_updates t ~updates =
  let target = t.updates + updates in
  while t.updates < target do
    run_txn t
  done

let run_concurrent t ~txns =
  let sched = Client_sched.create ~oracle:t.oracle t.db t.spec in
  Client_sched.run sched ~txns;
  t.updates <- t.updates + (Client_sched.stats sched).Client_sched.committed_ops;
  sched

let checkpoint t =
  Db.checkpoint t.db;
  Db.compact_log t.db

let warm_to_equilibrium t =
  let pool = (Deut_core.Engine.shard (Db.engine t.db) 0).Deut_core.Engine.s_pool in
  let capacity = Pool.capacity pool in
  (* "A workload runs for double the time needed to fill the cache":
     touching ~2× capacity pages under the update workload, with periodic
     checkpoints, brings occupancy, dirtiness, and the flush monitors to
     steady state. *)
  let chunk = Stdlib.max 500 (capacity / 2) in
  let rounds = Stdlib.max 4 (2 * capacity / chunk) in
  for _ = 1 to rounds do
    run_updates t ~updates:chunk;
    checkpoint t
  done

let start_loser t ~ops =
  let txn = Db.begin_txn t.db in
  Oracle.begin_txn t.oracle (Db.Txn.id txn);
  let table = table_of t in
  for _ = 1 to ops do
    let value = String.make t.spec.Workload.value_size 'X' in
    (* Mixed workloads may have deleted the drawn key; try another. *)
    let rec attempt tries =
      if tries > 100 then failwith "Driver.start_loser: no updatable key found";
      match Db.update t.db txn ~table ~key:(key_of t) ~value with
      | Ok () -> ()
      | Error _ -> attempt (tries + 1)
    in
    attempt 0
  done;
  Oracle.abort t.oracle ~txn:(Db.Txn.id txn);
  (* Force so the loser's records survive the crash and exercise undo. *)
  Deut_wal.Log_manager.force (Db.engine t.db).Deut_core.Engine.log

let run_crash_protocol t ~checkpoints ~interval ~tail =
  for _ = 1 to checkpoints do
    run_updates t ~updates:interval;
    checkpoint t
  done;
  (* One more interval, ending [tail] updates after a periodic Δ/BW
     emission: the checkpoint reset the emission counter, so running a
     multiple of [delta_period] updates ends exactly on an emission. *)
  let period = (Db.config t.db).Config.delta_period in
  let body = Stdlib.max period (interval / period * period) in
  run_updates t ~updates:body;
  run_updates t ~updates:tail

let crash t = Db.crash t.db

let verify_recovered t recovered =
  match Db.check_integrity recovered with
  | Error msg -> Error ("integrity: " ^ msg)
  | Ok () ->
      let tables = List.init t.spec.Workload.tables (fun i -> i + 1) in
      Oracle.verify t.oracle recovered ~tables
