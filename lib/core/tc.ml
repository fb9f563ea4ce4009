module Lr = Deut_wal.Log_record
module Lsn = Deut_wal.Lsn
module Log_manager = Deut_wal.Log_manager

type t = {
  config : Config.t;
  log : Log_manager.t;
  trace : Deut_obs.Trace.t option;
  flight : Deut_obs.Flight.t option;
  mutable next_txn : int;
  active : (int, Lsn.t) Hashtbl.t;  (* txn -> lastLSN of its chain *)
  starts : (int, Lsn.t) Hashtbl.t;  (* txn -> first LSN ([nil] = unknown) *)
  locks : Lock_table.t;
  mutable queued_commits : int;
  mutable master : Lsn.t;
  mutable commits : int;  (* commits this engine lifetime *)
  mutable aborts : int;  (* explicit aborts (recovery undo not counted) *)
}

let create ?trace ?flight ~config ~log () =
  {
    config;
    log;
    trace;
    flight;
    next_txn = 1;
    active = Hashtbl.create 32;
    starts = Hashtbl.create 32;
    locks = Lock_table.create ();
    queued_commits = 0;
    master = Lsn.nil;
    commits = 0;
    aborts = 0;
  }
let master t = t.master
let set_master t lsn = t.master <- lsn

let begin_txn t =
  let txn = t.next_txn in
  t.next_txn <- txn + 1;
  Hashtbl.replace t.active txn Lsn.nil;
  txn

let active_txns t =
  Hashtbl.fold (fun txn last acc -> (txn, last) :: acc) t.active []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> Array.of_list

let restore_txn_state t ~losers ~next_txn =
  Hashtbl.reset t.active;
  Hashtbl.reset t.starts;
  List.iter
    (fun (txn, last) ->
      Hashtbl.replace t.active txn last;
      (* First LSN unknown for a loser; [nil] blocks log archiving until
         the undo pass finishes it. *)
      Hashtbl.replace t.starts txn Lsn.nil)
    losers;
  t.next_txn <- next_txn

(* The log may be archived up to here: no recovery scan (master) nor undo
   chain (active transactions' first records) can reach further back. *)
let log_archive_point t =
  Hashtbl.fold (fun _ first acc -> Lsn.min first acc) t.starts t.master

let last_lsn_of t txn =
  match Hashtbl.find_opt t.active txn with
  | Some lsn -> lsn
  | None -> invalid_arg (Printf.sprintf "Tc: transaction %d is not active" txn)

let lock t ~txn ~table ~key mode =
  if not t.config.Config.locking then Ok ()
  else
    match Lock_table.acquire t.locks ~txn ~table ~key mode with
    | Ok () -> Ok ()
    | Error holder -> Error (Db_error.Lock_conflict { holder })

let read_lock t ~txn ~table ~key = lock t ~txn ~table ~key Lock_table.Shared
let lock_conflicts t = Lock_table.conflicts t.locks
let locked_keys t = Lock_table.locked_keys t.locks
let commit_count t = t.commits
let abort_count t = t.aborts

(* One data operation, end to end over the protocol: route the key to its
   shard, [Prepare] there (before-image back), log the logical record on
   the TC log, [Apply] under the record's LSN (the apply message carries
   the Δ-monitor tick).  A crashed shard surfaces as [Shard_down] — the
   transaction can abort while siblings keep serving. *)
let execute t router ~txn ~table ~key ~op ~value =
  let prev_lsn = last_lsn_of t txn in
  let value_len = match value with Some v -> String.length v | None -> 0 in
  try
    let ep = Dc_access.endpoint_for router ~table ~key in
    if not (Dc_access.has_table ep ~table) then Error (Db_error.No_such_table table)
    else
    match lock t ~txn ~table ~key Lock_table.Exclusive with
    | Error _ as e -> e
    | Ok () ->
    match Dc_access.prepare ep ~table ~key ~op ~value_len with
    | Deut_btree.Btree.Duplicate_key -> Error (Db_error.Duplicate_key { table; key })
    | Deut_btree.Btree.Missing_key -> Error (Db_error.Missing_key { table; key })
    | Deut_btree.Btree.Leaf { pid; before } ->
        let lsn =
          Log_manager.append t.log
            (Lr.Update_rec { txn; table; key; op; before; after = value; pid_hint = pid; prev_lsn })
        in
        if Lsn.is_nil prev_lsn then Hashtbl.replace t.starts txn lsn;
        Hashtbl.replace t.active txn lsn;
        Dc_access.apply ep ~table ~pid ~key ~op ~value ~lsn ~tick:true;
        Ok ()
  with Dc_access.Unavailable shard -> Error (Db_error.Shard_down shard)

let force_now t router =
  Log_manager.force t.log;
  t.queued_commits <- 0;
  (* EOSL to every live shard; a crashed one is re-seeded at recovery. *)
  Dc_access.broadcast_eosl router (Log_manager.stable_lsn t.log)

let flush_commits t router = force_now t router

let commit t router ~txn =
  ignore (last_lsn_of t txn);
  ignore (Log_manager.append t.log (Lr.Commit { txn }));
  Hashtbl.remove t.active txn;
  Hashtbl.remove t.starts txn;
  Lock_table.release_all t.locks ~txn;
  t.commits <- t.commits + 1;
  t.queued_commits <- t.queued_commits + 1;
  if t.queued_commits >= Stdlib.max 1 t.config.Config.group_commit then begin
    force_now t router;
    true
  end
  else false

exception Undo_interrupted of int

(* Follow [txn]'s backward chain from [last]: an update goes to [update],
   then the walk steps to its [prev_lsn]; a CLR goes to [clr], then the
   walk jumps to its [undo_next].  [before] runs ahead of every step,
   including the last.  [what] names the caller in the error raised on a
   record that does not belong to the chain. *)
let walk_chain ?(before = ignore) t ~what ~txn ~last ~update ~clr =
  let rec walk lsn =
    before ();
    if not (Lsn.is_nil lsn) then
      match fst (Log_manager.read_at t.log lsn) with
      | Lr.Update_rec u when u.Lr.txn = txn ->
          update u;
          walk u.Lr.prev_lsn
      | Lr.Clr c when c.Lr.txn = txn ->
          clr c;
          walk c.Lr.undo_next
      | other ->
          failwith
            (Printf.sprintf "Tc.%s: unexpected record in txn %d chain: %s" what txn
               (Lr.describe other))
  in
  walk last

(* Walk the backward chain, compensating each update.  CLRs are redo-only:
   their undo-next pointer lets a crash-interrupted undo resume where it
   left off instead of compensating twice. *)
let undo_txn ?fault_after_clrs t router ~txn ~last =
  let clrs = ref 0 in
  let maybe_fault () =
    match fault_after_clrs with
    | Some n when !clrs >= n ->
        (* Simulated crash mid-undo: the CLRs written so far are on the
           log; the transaction stays unresolved. *)
        Log_manager.force t.log;
        raise (Undo_interrupted !clrs)
    | Some _ | None -> ()
  in
  let compensate (u : Lr.update) =
    let op, value =
      match u.Lr.op with
      | Lr.Insert -> (Lr.Delete, None)
      | Lr.Update -> (Lr.Update, u.Lr.before)
      | Lr.Delete -> (Lr.Insert, u.Lr.before)
    in
    let value_len = match value with Some v -> String.length v | None -> 0 in
    let ep = Dc_access.endpoint_for router ~table:u.Lr.table ~key:u.Lr.key in
    match Dc_access.prepare ep ~table:u.Lr.table ~key:u.Lr.key ~op ~value_len with
    | Deut_btree.Btree.Leaf { pid; _ } ->
        let lsn =
          Log_manager.append t.log
            (Lr.Clr
               {
                 txn;
                 table = u.Lr.table;
                 key = u.Lr.key;
                 op;
                 value;
                 pid_hint = pid;
                 undo_next = u.Lr.prev_lsn;
               })
        in
        Hashtbl.replace t.active txn lsn;
        (* Compensations do not tick the Δ monitor, as before. *)
        Dc_access.apply ep ~table:u.Lr.table ~pid ~key:u.Lr.key ~op ~value ~lsn ~tick:false;
        incr clrs
    | Deut_btree.Btree.Duplicate_key | Deut_btree.Btree.Missing_key ->
        failwith "Tc.undo_txn: compensation rejected — state diverged from the log"
  in
  walk_chain t ~what:"undo_txn" ~before:maybe_fault ~txn ~last ~update:compensate ~clr:ignore;
  ignore (Log_manager.append t.log (Lr.Abort { txn }));
  Hashtbl.remove t.active txn;
  Hashtbl.remove t.starts txn;
  Lock_table.release_all t.locks ~txn;
  force_now t router;
  !clrs

(* The (table, key) pairs a loser transaction wrote, gathered from the same
   backward chain [undo_txn] compensates.  Pure in-memory log reads — no
   page is touched.  Instant recovery uses this as its lock substitute:
   key locks are not persisted (§2.1), so the set of keys whose rollback
   is still outstanding must be reconstructed from the log before new
   transactions are admitted. *)
let loser_keys t ~txn ~last =
  let keys = ref [] in
  walk_chain t ~what:"loser_keys" ~txn ~last
    ~update:(fun u -> keys := (u.Lr.table, u.Lr.key) :: !keys)
    ~clr:(fun c -> keys := (c.Lr.table, c.Lr.key) :: !keys);
  !keys

let abort t router ~txn =
  t.aborts <- t.aborts + 1;
  ignore (undo_txn t router ~txn ~last:(last_lsn_of t txn))

let flight_ckpt t what ~lsn =
  match t.flight with
  | Some f -> Deut_obs.Flight.record f ~comp:Deut_obs.Flight.tc Deut_obs.Flight.Ckpt what ~lsn ()
  | None -> ()

let checkpoint t router =
  let ts0 = match t.trace with Some tr -> Deut_obs.Trace.now tr | None -> 0.0 in
  let bckpt = Log_manager.append t.log Lr.Begin_ckpt in
  flight_ckpt t "begin_ckpt" ~lsn:bckpt;
  force_now t router;
  (match t.config.Config.checkpoint_mode with
  | Config.Penultimate ->
      (* RSSP to every shard: each must flush everything dirtied before
         [bckpt] before the checkpoint may complete.  A crashed shard
         cannot honour it, so the [Unavailable] propagates — checkpoints
         wait until every shard is back. *)
      Dc_access.iter_endpoints router (fun ep -> Dc_access.rssp ep bckpt)
  | Config.Aries_fuzzy ->
      (* Single-shard only (the assembly bars it otherwise): the captured
         DPT holds physical pids, meaningless across shards. *)
      let entries = Dc_access.runtime_dpt router.Dc_access.endpoints.(0) in
      ignore (Log_manager.append t.log (Lr.Aries_ckpt_dpt { entries })));
  ignore (Log_manager.append t.log (Lr.End_ckpt { bckpt; active = active_txns t }));
  force_now t router;
  t.master <- bckpt;
  flight_ckpt t "end_ckpt" ~lsn:bckpt;
  match t.trace with
  | Some tr ->
      Deut_obs.Trace.span tr ~name:"ckpt" ~cat:"recovery" ~track:Deut_obs.Trace.track_recovery
        ~ts:ts0
        ~dur:(Deut_obs.Trace.now tr -. ts0)
        ~args:[ ("bckpt", bckpt) ] ()
  | None -> ()
