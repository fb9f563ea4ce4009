module Lr = Deut_wal.Log_record
module Log_manager = Deut_wal.Log_manager
module Pool = Deut_buffer.Buffer_pool
module Btree = Deut_btree.Btree

type t = {
  engine : Engine.t;
  mutable crashed : bool;
  (* The instant-recovery session while redo is still pending: keyed
     client operations are gated on it (a touch of a key some loser wrote
     forces rollback first), whole-table scans force rollback outright. *)
  mutable instant_sess : Recovery.instant option;
}

let touch_gate t ~table ~key =
  match t.instant_sess with
  | Some sess -> Recovery.instant_touch_key sess ~table ~key
  | None -> ()

let scan_gate t =
  match t.instant_sess with Some sess -> Recovery.instant_force_undo sess | None -> ()

type error = Db_error.t =
  | Lock_conflict of { holder : int }
  | Txn_finished
  | No_such_table of int
  | Duplicate_key of { table : int; key : int }
  | Missing_key of { table : int; key : int }
  | Shard_down of int

let error_to_string = Db_error.to_string

module Txn = struct
  type db = t
  type t = { id : int; db : db; client : int; mutable finished : bool }

  let id t = t.id
  let client t = t.client
  let finished t = t.finished
end

let of_engine engine = { engine; crashed = false; instant_sess = None }
let create ?(config = Config.default) () = of_engine (Engine.fresh config)
let engine t = t.engine
let config t = t.engine.Engine.config

let live t =
  if t.crashed then
    invalid_arg "Db: handle used after Db.crash — recover from the crash image instead"

(* A finished handle is a soft error on the data path ([Txn_finished]);
   a handle from another db is a hard bug, reported immediately. *)
let check_txn t (txn : Txn.t) =
  live t;
  if txn.Txn.db != t then
    invalid_arg "Db: transaction handle belongs to a different db than this one";
  txn.Txn.finished

let guarded t txn f = if check_txn t txn then Error Db_error.Txn_finished else f ()

let router t = Engine.router t.engine

(* Shard 0's DC: the whole data side when [shards = 1]. *)
let dc0 t = (Engine.shard t.engine 0).Engine.s_dc

(* Inspection and maintenance refuse to run with a shard down rather than
   hand back a partial view that looks like data loss. *)
let require_all_up t what =
  let e = t.engine in
  for i = 0 to Engine.shard_count e - 1 do
    if not (Engine.shard_up e i) then
      invalid_arg (Printf.sprintf "Db.%s: shard %d is down — recover it first" what i)
  done

let create_table t ~table =
  live t;
  require_all_up t "create_table";
  (* Every shard carries the catalog entry: the table's keys stripe across
     all of them. *)
  Dc_access.iter_endpoints (router t) (fun ep -> Dc_access.create_table ep ~table)

let tables t =
  live t;
  require_all_up t "tables";
  Dc.tables (dc0 t)

let begin_txn ?(client = 0) t =
  live t;
  { Txn.id = Tc.begin_txn t.engine.Engine.tc; db = t; client; finished = false }

let insert t txn ~table ~key ~value =
  guarded t txn (fun () ->
      touch_gate t ~table ~key;
      Tc.execute t.engine.Engine.tc (router t) ~txn:txn.Txn.id ~table ~key
        ~op:Lr.Insert ~value:(Some value))

let update t txn ~table ~key ~value =
  guarded t txn (fun () ->
      touch_gate t ~table ~key;
      Tc.execute t.engine.Engine.tc (router t) ~txn:txn.Txn.id ~table ~key
        ~op:Lr.Update ~value:(Some value))

let delete t txn ~table ~key =
  guarded t txn (fun () ->
      touch_gate t ~table ~key;
      Tc.execute t.engine.Engine.tc (router t) ~txn:txn.Txn.id ~table ~key
        ~op:Lr.Delete ~value:None)

let read t ~table ~key =
  live t;
  touch_gate t ~table ~key;
  Dc_access.read (Dc_access.endpoint_for (router t) ~table ~key) ~table ~key

let read_locked t txn ~table ~key =
  guarded t txn (fun () ->
      match Tc.read_lock t.engine.Engine.tc ~txn:txn.Txn.id ~table ~key with
      | Ok () -> Ok (read t ~table ~key)
      | Error _ as e -> e)

let finish_txn t (txn : Txn.t) what =
  if check_txn t txn then
    invalid_arg (Printf.sprintf "Db.%s: transaction %d already finished" what txn.Txn.id);
  txn.Txn.finished <- true

let commit_durable t txn =
  finish_txn t txn "commit";
  Tc.commit t.engine.Engine.tc (router t) ~txn:txn.Txn.id

let commit t txn = ignore (commit_durable t txn)

let flush_commits t =
  live t;
  Tc.flush_commits t.engine.Engine.tc (router t)

let abort t txn =
  finish_txn t txn "abort";
  Tc.abort t.engine.Engine.tc (router t) ~txn:txn.Txn.id

let put t ~table ~key ~value =
  let txn = begin_txn t in
  let result =
    match read t ~table ~key with
    | Some _ -> update t txn ~table ~key ~value
    | None -> insert t txn ~table ~key ~value
  in
  (match result with
  | Ok () -> commit t txn
  | Error e ->
      abort t txn;
      failwith ("Db.put: " ^ Db_error.to_string e));
  ()

(* Maintenance that flushes or truncates is deferred while instant
   recovery is still draining: a checkpoint would flush the whole dirty
   set (forcing every pending page through on-demand replay at once,
   defeating the availability story), and log compaction must not cut
   records the drain still has to read. *)
let no_maintenance_while_draining t what =
  if Option.is_some t.instant_sess then
    invalid_arg
      (Printf.sprintf "Db.%s: instant recovery still draining — finish it first" what)

let checkpoint t =
  live t;
  no_maintenance_while_draining t "checkpoint";
  (* RSSP must flush every shard: a checkpoint taken around a down shard
     would advance the master past records that shard still needs. *)
  require_all_up t "checkpoint";
  Tc.checkpoint t.engine.Engine.tc (router t)

let compact_log t =
  live t;
  no_maintenance_while_draining t "compact_log";
  let tc_point = Tc.log_archive_point t.engine.Engine.tc in
  (* In ARIES-checkpointing mode the redo scan can start at the minimum
     rLSN of the runtime DPT, which precedes the checkpoint; keep the log
     back to there. *)
  let point =
    match (config t).Config.checkpoint_mode with
    | Config.Penultimate -> tc_point
    | Config.Aries_fuzzy ->
        Array.fold_left
          (fun acc (_, rlsn, _) -> Deut_wal.Lsn.min acc rlsn)
          tc_point
          (Monitor.runtime_dpt (Dc.monitor (dc0 t)))
  in
  (if not (Deut_wal.Lsn.is_nil point) then
     let log = t.engine.Engine.log in
     match Log_manager.archive log with
     | Some _ ->
         (* Archiving on: seal the prefix into a segment before cutting
            (never drop bytes). *)
         ignore (Log_manager.archive_to log ~upto:point)
     | None -> Log_manager.compact log ~keep_from:point);
  if Engine.split t.engine then
    for i = 0 to Engine.shard_count t.engine - 1 do
      let sh = Engine.shard t.engine i in
      if Engine.shard_up t.engine i then begin
        let dc_point = Dc.dc_archive_point sh.Engine.s_dc in
        if not (Deut_wal.Lsn.is_nil dc_point) then
          Log_manager.compact sh.Engine.s_dc_log ~keep_from:dc_point
      end
    done

let crash t =
  live t;
  t.crashed <- true;
  (* Mark the crash in the black box before the snapshot rides out in the
     image, so a forensic dump ends on the crash record itself. *)
  (match Engine.flight t.engine with
  | Some f -> Deut_obs.Flight.record f ~comp:Deut_obs.Flight.tc Deut_obs.Flight.Crash "crash" ()
  | None -> ());
  Crash_image.capture t.engine

let recover ?config image method_ =
  let engine, stats = Recovery.recover ?config image method_ in
  (of_engine engine, stats)

(* Staged instant recovery: the db is usable immediately; callers
   interleave client work with [instant_step] and close with
   [instant_finish]. *)
type instant = { i_db : t; i_sess : Recovery.instant }

let recover_instant ?config ?undo_fault_after_clrs image =
  let sess = Recovery.recover_instant ?config ?undo_fault_after_clrs image in
  let db = of_engine (Recovery.instant_engine sess) in
  { i_db = { db with instant_sess = Some sess }; i_sess = sess }

let instant_db i = i.i_db
let instant_step i = Recovery.instant_step i.i_sess

let instant_finish i =
  let stats = Recovery.instant_finish i.i_sess in
  i.i_db.instant_sess <- None;
  stats

(* {2 Per-shard crash and recovery} *)

let shard_count t = Engine.shard_count t.engine

let crash_shard t ~shard =
  live t;
  if Tc.active_txns t.engine.Engine.tc <> [||] then
    invalid_arg
      "Db.crash_shard: active transactions would be orphaned — commit or abort them first";
  Engine.crash_shard t.engine shard

let recover_shard t ~shard =
  live t;
  Recovery.recover_shard t.engine shard

(* {2 Inspection} *)

(* A whole-table view over shards is the key-sorted merge of each shard's
   disjoint stripe. *)
let merged_entries t ~table ~fold =
  let e = t.engine in
  let per =
    List.init (Engine.shard_count e) (fun i ->
        let tree = Dc.tree (Engine.shard e i).Engine.s_dc ~table in
        List.rev (fold tree ~init:[] ~f:(fun acc k v -> (k, v) :: acc)))
  in
  List.sort (fun (a, _) (b, _) -> compare a b) (List.concat per)

(* One shard folds its tree directly: the restart digests fold whole
   tables through here, and the merge would copy and sort every row. *)
let fold_table t ~table ~init ~f =
  live t;
  scan_gate t;
  if shard_count t = 1 then Btree.fold_entries (Dc.tree (dc0 t) ~table) ~init ~f
  else begin
    require_all_up t "fold_table";
    List.fold_left
      (fun acc (k, v) -> f acc k v)
      init
      (merged_entries t ~table ~fold:Btree.fold_entries)
  end

let fold_range t ~table ~lo ~hi ~init ~f =
  live t;
  scan_gate t;
  require_all_up t "fold_range";
  List.fold_left
    (fun acc (k, v) -> f acc k v)
    init
    (merged_entries t ~table ~fold:(Btree.fold_range ~lo ~hi))

let scan t ~table ~lo ~hi =
  List.rev (fold_range t ~table ~lo ~hi ~init:[] ~f:(fun acc k v -> (k, v) :: acc))

let dump_table t ~table =
  List.rev (fold_table t ~table ~init:[] ~f:(fun acc key value -> (key, value) :: acc))

let iter_leaves t ~table ~shard f =
  live t;
  scan_gate t;
  require_all_up t "iter_leaves";
  Btree.fold_leaves (Dc.tree (Engine.shard t.engine shard).Engine.s_dc ~table) ~init:()
    ~f:(fun () page -> f page)

let check_integrity t =
  require_all_up t "check_integrity";
  let e = t.engine in
  let check_shard i =
    let dc = (Engine.shard e i).Engine.s_dc in
    let rec go = function
      | [] -> Ok ()
      | table :: rest -> (
          match Btree.check_tree (Dc.tree dc ~table) with
          | Ok () -> go rest
          | Error msg -> Error (Printf.sprintf "shard %d table %d: %s" i table msg))
    in
    go (Dc.tables dc)
  in
  let rec shards i =
    if i >= Engine.shard_count e then Ok ()
    else match check_shard i with Ok () -> shards (i + 1) | Error _ as err -> err
  in
  shards 0

let metric t name = Deut_obs.Metrics.read_int (Engine.metrics t.engine) name
let now_ms t = Deut_sim.Clock.now_ms t.engine.Engine.clock
let stats_string t = Deut_obs.Metrics.render (Engine.metrics t.engine)
