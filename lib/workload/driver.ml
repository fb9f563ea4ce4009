module Db = Deut_core.Db
module Config = Deut_core.Config
module Rng = Deut_sim.Rng
module Pool = Deut_buffer.Buffer_pool

type t = {
  db : Db.t;
  spec : Workload.spec;
  stream : Workload.stream;  (* continues the load's rng *)
  oracle : Oracle.t;
  mutable updates : int;
}

let db t = t.db
let oracle t = t.oracle
let spec t = t.spec
let updates_done t = t.updates

let create ~config spec =
  let database = Db.create ~config () in
  let rng = Rng.create ~seed:spec.Workload.seed in
  let oracle = Oracle.create () in
  let t = { db = database; spec; stream = Workload.stream spec rng; oracle; updates = 0 } in
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
        let row = { Workload.table; key = !k; action = Workload.Ins value } in
        if Workload.exec database ~oracle spec txn row <> Workload.Wrote then
          failwith "Driver: load insert refused";
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

(* One transaction of [ops_per_txn] operations on one table, committed,
   mirrored in the oracle.  One transaction runs at a time, so a lock
   conflict cannot be resolved by waiting: it fails. *)
let run_txn t =
  let txn = Db.begin_txn t.db in
  Oracle.begin_txn t.oracle (Db.Txn.id txn);
  let table = Workload.draw_table t.stream in
  for _ = 1 to t.spec.Workload.ops_per_txn do
    match Workload.exec t.db ~oracle:t.oracle t.spec txn (Workload.draw_op t.stream ~table) with
    | Workload.Wrote -> t.updates <- t.updates + 1
    | Workload.Skipped -> ()
    | Workload.Conflict holder -> failwith (Printf.sprintf "Driver: lock held by txn %d" holder)
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
  let table = Workload.draw_table t.stream in
  let action = Workload.Upd (String.make t.spec.Workload.value_size 'X') in
  for _ = 1 to ops do
    (* Mixed workloads may have deleted the drawn key; try another. *)
    let rec attempt tries =
      if tries > 100 then failwith "Driver.start_loser: no updatable key found";
      let op = { Workload.table; key = Workload.draw_key t.stream; action } in
      match Workload.exec t.db t.spec txn op with
      | Workload.Wrote -> ()
      | Workload.Skipped -> attempt (tries + 1)
      | Workload.Conflict holder ->
          failwith (Printf.sprintf "Driver.start_loser: lock held by txn %d" holder)
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
