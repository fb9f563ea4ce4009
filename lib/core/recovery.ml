module Lr = Deut_wal.Log_record
module Lsn = Deut_wal.Lsn
module Log_manager = Deut_wal.Log_manager
module Clock = Deut_sim.Clock
module Disk = Deut_sim.Disk
module Pool = Deut_buffer.Buffer_pool
module Trace = Deut_obs.Trace
module Flight = Deut_obs.Flight

type method_ = Log0 | Log1 | Log2 | Sql1 | Sql2 | Aries_ckpt | InstantLog2

let method_to_string = function
  | Log0 -> "Log0"
  | Log1 -> "Log1"
  | Log2 -> "Log2"
  | Sql1 -> "SQL1"
  | Sql2 -> "SQL2"
  | Aries_ckpt -> "ARIES-ckpt"
  | InstantLog2 -> "InstantLog2"

let all_methods = [ Log0; Log1; Sql1; Log2; Sql2 ]
let all_methods_with_instant = all_methods @ [ InstantLog2 ]

let is_logical = function
  | Log0 | Log1 | Log2 | InstantLog2 -> true
  | Sql1 | Sql2 | Aries_ckpt -> false

type scan_result = {
  records : (Lsn.t * Lr.t) array;
  losers : (int * Lsn.t) list;
  max_txn : int;
}

(* Materialise the redo range once (charging its log IO) and reconstruct
   the transaction table: losers are transactions with logged work but no
   commit/abort, seeded from the end-checkpoint's captured table for
   transactions whose records all precede the scan start. *)
let scan_log log ~from =
  let records = ref [] in
  let n = ref 0 in
  let last = Hashtbl.create 32 in
  let finished = Hashtbl.create 32 in
  let max_txn = ref 0 in
  let note_txn txn = if txn > !max_txn then max_txn := txn in
  let track lsn record =
    match record with
    | Lr.Update_rec u ->
        note_txn u.Lr.txn;
        Hashtbl.replace last u.Lr.txn lsn
    | Lr.Clr c ->
        note_txn c.Lr.txn;
        Hashtbl.replace last c.Lr.txn lsn
    | Lr.Commit { txn } | Lr.Abort { txn } ->
        note_txn txn;
        Hashtbl.remove last txn;
        Hashtbl.replace finished txn ()
    | Lr.End_ckpt { active; _ } ->
        Array.iter
          (fun (txn, last_lsn) ->
            note_txn txn;
            if (not (Hashtbl.mem finished txn)) && not (Hashtbl.mem last txn) then
              if not (Lsn.is_nil last_lsn) then Hashtbl.replace last txn last_lsn)
          active
    | Lr.Begin_ckpt | Lr.Aries_ckpt_dpt _ | Lr.Bw _ | Lr.Delta _ | Lr.Smo _ -> ()
  in
  Log_manager.iter log ~from (fun lsn record ->
      records := (lsn, record) :: !records;
      incr n;
      track lsn record);
  let arr = Array.make !n (Lsn.nil, Lr.Begin_ckpt) in
  let () =
    (* The list is in reverse scan order. *)
    List.iteri (fun i entry -> arr.(!n - 1 - i) <- entry) !records
  in
  let losers =
    Hashtbl.fold (fun txn lsn acc -> (txn, lsn) :: acc) last []
    |> List.sort (fun (_, a) (_, b) -> Lsn.compare b a)
  in
  { records = arr; losers; max_txn = !max_txn }

(* The analysis arm both physiological analyses share: every update, CLR
   and SMO page is a mention for ADDENTRY. *)
let add_mentions dpt lsn = function
  | Lr.Update_rec u -> ignore (Dpt.add dpt ~pid:u.Lr.pid_hint ~lsn)
  | Lr.Clr c -> ignore (Dpt.add dpt ~pid:c.Lr.pid_hint ~lsn)
  | Lr.Smo smo -> Array.iter (fun (pid, _) -> ignore (Dpt.add dpt ~pid ~lsn)) smo.Lr.pages
  | Lr.Commit _ | Lr.Abort _ | Lr.Begin_ckpt | Lr.End_ckpt _ | Lr.Aries_ckpt_dpt _ | Lr.Bw _
  | Lr.Delta _ ->
      ()

(* Algorithm 3: SQL Server's analysis pass. *)
let sql_analysis ?trace log ~from ~(stats : Recovery_stats.t) =
  let dpt = Dpt.create () in
  Log_manager.iter log ~from (fun lsn record ->
      match record with
      | Lr.Bw b ->
          stats.bws_seen <- stats.bws_seen + 1;
          Array.iter (fun pid -> Dpt.apply_flush ?trace dpt ~pid ~fw_lsn:b.Lr.fw_lsn) b.Lr.written
      | Lr.Delta _ -> stats.deltas_seen <- stats.deltas_seen + 1
      | _ -> add_mentions dpt lsn record);
  stats.dpt_size <- stats.dpt_size + Dpt.size dpt;
  dpt

(* §3.1: classic ARIES analysis — seed from the checkpoint-captured DPT,
   add first mentions, no flush-based pruning. *)
let aries_analysis log ~from ~(stats : Recovery_stats.t) =
  let dpt = Dpt.create () in
  let seeded = ref false in
  Log_manager.iter log ~from (fun lsn record ->
      match record with
      | Lr.Aries_ckpt_dpt { entries } when not !seeded ->
          seeded := true;
          Array.iter
            (fun (pid, rlsn, last_lsn) ->
              match Dpt.find dpt pid with
              | Some (existing_rlsn, _) when existing_rlsn <= rlsn -> ()
              | Some _ | None -> Dpt.add_exact dpt ~pid ~rlsn ~last_lsn)
            entries
      | Lr.Bw _ -> stats.bws_seen <- stats.bws_seen + 1
      | Lr.Delta _ -> stats.deltas_seen <- stats.deltas_seen + 1
      | _ -> add_mentions dpt lsn record);
  stats.dpt_size <- stats.dpt_size + Dpt.size dpt;
  let redo_start =
    let m = Dpt.min_rlsn dpt in
    if Lsn.is_nil m then from else if Lsn.is_nil from then m else Lsn.min m from
  in
  (dpt, redo_start)

(* Data-page prefetch driver for Log2 (Appendix A.2): keep the in-flight
   set topped up from either the PF-list (the paper's log-driven choice,
   deduplicated DirtySets in update order, skipping entries since pruned
   from the DPT) or the DPT itself in ascending rLSN order (the discussed
   alternative). *)
let make_pf_prefetcher dc ~lane ~workers =
  let pf =
    match (Dc.config dc).Config.prefetch_source with
    | Config.Pf_list -> Dc.pf_list dc
    | Config.Dpt_order -> Array.of_list (Dpt.entries_by_rlsn (Dc.dpt dc))
  in
  let pool = Dc.pool dc in
  let config = Dc.config dc in
  (* Each worker owns a contiguous segment of the PF list: segments keep
     the list's update-order locality, so per-worker batches still coalesce
     on the disk the way the single sequential pipeline's did. *)
  let len = Array.length pf in
  let hi = len * (lane + 1) / workers in
  let pos = ref (len * lane / workers) in
  fun () ->
    if Pool.in_flight_count ~lane pool < config.Config.prefetch_window then begin
      let chunk = ref [] in
      let picked = ref 0 in
      while !picked < config.Config.prefetch_chunk && !pos < hi do
        let pid = pf.(!pos) in
        incr pos;
        if Dpt.mem (Dc.dpt dc) pid then begin
          chunk := pid :: !chunk;
          incr picked
        end
      done;
      if !chunk <> [] then Pool.prefetch pool ~lane (List.rev !chunk)
    end

(* Log-driven prefetch for SQL2 (Appendix A.2): examine records ahead of
   the redo cursor; pids that pass the DPT/rLSN test are prefetched.
   [owns] restricts the window to the records this worker will replay. *)
let make_log_prefetcher dc ~lane ?owns (records : (Lsn.t * Lr.t) array) =
  let pool = Dc.pool dc in
  let config = Dc.config dc in
  let ahead = ref 0 in
  fun current_index ->
    if Pool.in_flight_count ~lane pool < config.Config.prefetch_window then begin
      if !ahead <= current_index then ahead := current_index + 1;
      let horizon = min (Array.length records) (current_index + config.Config.prefetch_lookahead) in
      let chunk = ref [] in
      let picked = ref 0 in
      while !picked < config.Config.prefetch_chunk && !ahead < horizon do
        let i = !ahead in
        let lsn, record = records.(i) in
        incr ahead;
        if match owns with None -> true | Some f -> f i then
          match Lr.redo_view record with
          | Some view -> (
              match Dpt.find (Dc.dpt dc) view.Lr.rv_pid with
              | Some (rlsn, _) when lsn >= rlsn ->
                  chunk := view.Lr.rv_pid :: !chunk;
                  incr picked
              | Some _ | None -> ())
          | None -> ()
      done;
      if !chunk <> [] then Pool.prefetch pool ~lane (List.rev !chunk)
    end

(* Record-to-worker assignment.  Physiological methods partition by page
   id; logical methods slice each table's observed key range into
   [workers] contiguous bands (a table offset spreads small tables).  The
   assignment only decides whose simulated time a record is charged to —
   application always happens in log order. *)
let make_partitioner method_ ~workers (records : (Lsn.t * Lr.t) array) =
  if not (is_logical method_) then fun (v : Lr.redo_view) -> v.Lr.rv_pid mod workers
  else begin
    let ranges = Hashtbl.create 8 in
    Array.iter
      (fun (_, record) ->
        match Lr.redo_view record with
        | Some v ->
            let lo, hi =
              match Hashtbl.find_opt ranges v.Lr.rv_table with
              | Some (lo, hi) -> (min lo v.Lr.rv_key, max hi v.Lr.rv_key)
              | None -> (v.Lr.rv_key, v.Lr.rv_key)
            in
            Hashtbl.replace ranges v.Lr.rv_table (lo, hi)
        | None -> ())
      records;
    fun (v : Lr.redo_view) ->
      match Hashtbl.find_opt ranges v.Lr.rv_table with
      | None -> 0
      | Some (lo, hi) ->
          let band = (v.Lr.rv_key - lo) * workers / (hi - lo + 1) in
          (min band (workers - 1) + v.Lr.rv_table) mod workers
  end

(* Phase 1 for one shard: the method's analysis.  The logical methods
   recover the DC (SMO replay, DPT from Δ/BW records) over its own
   records: the shared log from the checkpoint when integrated, the whole
   short private log when split.  The SQL Server and ARIES analyses read
   page ids off the TC log, so they only run integrated, on one shard.
   Log2 also preloads the index levels; instant recovery defers that to
   the first page demand.  Returns where the redo scan starts. *)
let analyse method_ (engine : Engine.t) (sh : Engine.shard) ~bckpt ~stats =
  let dc = sh.Engine.s_dc in
  let dc_recovery ~build_dpt =
    let from = if Engine.split engine then Lsn.nil else bckpt in
    Dc.dc_recovery dc ~log:sh.Engine.s_dc_log ~from ~bckpt ~build_dpt ~stats
  in
  match method_ with
  | Log0 ->
      dc_recovery ~build_dpt:false;
      bckpt
  | Log1 | InstantLog2 ->
      dc_recovery ~build_dpt:true;
      bckpt
  | Log2 ->
      dc_recovery ~build_dpt:true;
      Dc.preload_indexes dc ~stats;
      bckpt
  | Sql1 | Sql2 ->
      Dc.set_dpt dc (sql_analysis ?trace:(Engine.trace engine) engine.Engine.log ~from:bckpt ~stats);
      bckpt
  | Aries_ckpt ->
      let dpt, redo_start = aries_analysis engine.Engine.log ~from:bckpt ~stats in
      Dc.set_dpt dc dpt;
      redo_start

(* Replay one shard's stripe of the materialised redo range — the records
   the router places on it, all of them at one shard — on
   [Config.redo_workers] simulated workers, through the shard's
   {!Dc_access} endpoint.  Records are processed in global log order;
   each is charged to its partition's worker by entering that worker's
   {!Clock.Cursor} (the shared clock jumps to its timeline) before
   replaying it.  The disk keeps its own monotonic busy horizon, so IO
   requests from workers at earlier cursors still queue behind in-flight
   service — contention on the single device is preserved — while CPU
   charges and page-fetch stalls on different workers overlap.  Because
   application order is log order regardless of the partitioning, the
   recovered state and the apply-count statistics are identical for every
   worker count; with one worker the loop is exactly the sequential pass.
   SMO records barrier: every worker joins (the clock advances to the
   latest cursor) before the page images are installed, and all cursors
   restart from the completed replay. *)
let redo_pass method_ (engine : Engine.t) (sh : Engine.shard) (scan : scan_result)
    ~(stats : Recovery_stats.t) =
  let dc = sh.Engine.s_dc in
  let clock = engine.Engine.clock in
  let pool = sh.Engine.s_pool in
  let router = Engine.router engine in
  let ep = router.Dc_access.endpoints.(sh.Engine.s_id) in
  let mine (v : Lr.redo_view) =
    router.Dc_access.route ~table:v.Lr.rv_table ~key:v.Lr.rv_key = sh.Engine.s_id
  in
  let workers = max 1 engine.Engine.config.Config.redo_workers in
  let records = scan.records in
  let assign = Array.make (Array.length records) (-1) in
  let partition = make_partitioner method_ ~workers records in
  Array.iteri
    (fun i (_, record) ->
      match Lr.redo_view record with Some v -> assign.(i) <- partition v | None -> ())
    records;
  let parallel = workers > 1 in
  let cursors = Array.init workers (fun _ -> Clock.Cursor.make clock) in
  let enter w =
    if parallel then begin
      Clock.Cursor.enter cursors.(w);
      Pool.set_stall_track pool (Some (Trace.track_worker w));
      Dc.set_redo_track dc (Some (Trace.track_worker w))
    end
  in
  let leave w = if parallel then Clock.Cursor.leave cursors.(w) in
  let barrier () =
    if parallel then
      Array.iter (fun c -> Clock.advance_to clock (Clock.Cursor.time c)) cursors
  in
  let release_all () =
    if parallel then Array.iter (fun c -> Clock.Cursor.advance_to c (Clock.now clock)) cursors
  in
  let prefetch_pf =
    if method_ = Log2 then
      Some (Array.init workers (fun lane -> make_pf_prefetcher dc ~lane ~workers))
    else None
  in
  let prefetch_log =
    if method_ = Sql2 then
      Some
        (Array.init workers (fun lane ->
             let owns = if parallel then Some (fun i -> assign.(i) = lane) else None in
             make_log_prefetcher dc ~lane ?owns records))
    else None
  in
  let pump w i =
    (match prefetch_pf with Some fs -> fs.(w) () | None -> ());
    match prefetch_log with Some fs -> fs.(w) i | None -> ()
  in
  Array.iteri
    (fun i (lsn, record) ->
      match record with
      | Lr.Smo smo when not (is_logical method_) ->
          (* Physiological redo replays SMOs in log order under the DPT
             test; the multi-page image is a cross-partition write, so all
             workers synchronise around it. *)
          barrier ();
          pump (i mod workers) i;
          Dc_access.redo_smo ep ~lsn ~smo ~dpt_test:true ~stats;
          release_all ()
      | _ -> (
          match Lr.redo_view record with
          | Some view when not (mine view) -> ()
          | None ->
              (* Control records, and SMOs the logical methods replayed in
                 the DC pass. *)
              let w = i mod workers in
              enter w;
              pump w i;
              leave w
          | Some view ->
              let w = assign.(i) in
              enter w;
              pump w i;
              (match method_ with
              | Log0 -> Dc_access.redo_logical ep ~lsn ~view ~use_dpt:false ~stats
              | Log1 | Log2 -> Dc_access.redo_logical ep ~lsn ~view ~use_dpt:true ~stats
              | Sql1 | Sql2 | Aries_ckpt ->
                  Dc_access.redo_physiological ep ~lsn ~view ~use_dpt:true ~stats
              | InstantLog2 ->
                  (* Instant recovery never takes the offline redo pass. *)
                  assert false);
              leave w))
    records;
  (* Redo completes when the slowest worker does. *)
  barrier ();
  if parallel then begin
    Pool.set_stall_track pool None;
    Dc.set_redo_track dc None
  end

(* ---------- The restart steps every driver shares ---------- *)

(* Close a span that opened at [ts0] on the engine's clock. *)
let close_span (engine : Engine.t) ~name ~cat ~track ?args ~ts0 () =
  match Engine.trace engine with
  | Some tr ->
      Trace.span tr ~name ~cat ~track ~ts:ts0 ~dur:(Clock.now engine.Engine.clock -. ts0) ?args ()
  | None -> ()

(* Close a phase: a span on the recovery lane, and a flight record so a
   post-crash dump shows how far a recovery got before dying. *)
let phase (engine : Engine.t) name ~ts0 =
  (match Engine.flight engine with
  | Some f -> Flight.record f ~comp:Flight.tc Flight.Phase name ()
  | None -> ());
  close_span engine ~name ~cat:"phase" ~track:Trace.track_recovery ~ts0 ()

(* Run one per-shard step on every shard, overlapped on the clock: rewind
   to the step's start for each shard and resume at the slowest cursor, so
   the step costs what the slowest shard costs.  At one shard this is just
   the call. *)
let overlapped (engine : Engine.t) f =
  let clock = engine.Engine.clock in
  let t0 = Clock.now clock in
  let horizon = ref t0 in
  let results =
    Array.map
      (fun sh ->
        Clock.set clock t0;
        let r = f sh in
        horizon := Float.max !horizon (Clock.now clock);
        r)
      engine.Engine.shards
  in
  Clock.set clock !horizon;
  results

(* Quiesce every shard for replay: fresh IO counters, no lazy writer, and
   no merges — redo must not reorganise a tree whose logged SMOs are still
   being replayed. *)
let begin_replay (engine : Engine.t) =
  Array.iter
    (fun sh ->
      Pool.reset_counters sh.Engine.s_pool;
      Pool.set_lazy_writer_enabled sh.Engine.s_pool false;
      Dc.set_merge_allowed sh.Engine.s_dc false)
    engine.Engine.shards

(* Logical undo of the losers (§2.1, identical across methods) through the
   router, so each compensation reaches whichever shard holds its key —
   exactly like a live abort.  [fault] stops the pass once that many CLRs
   have been written in total: a crash in the middle of undo. *)
let undo_losers ?fault (engine : Engine.t) losers ~(stats : Recovery_stats.t) =
  let clock = engine.Engine.clock in
  let t0 = Clock.now clock in
  (try
     List.iter
       (fun (txn, last) ->
         let budget = Option.map (fun n -> n - stats.clrs_written) fault in
         stats.clrs_written <-
           stats.clrs_written
           + Tc.undo_txn ?fault_after_clrs:budget engine.Engine.tc (Engine.router engine) ~txn
               ~last)
       losers
   with Tc.Undo_interrupted n -> stats.clrs_written <- stats.clrs_written + n);
  stats.undo_us <- Clock.now clock -. t0;
  phase engine "undo" ~ts0:t0

(* Finalise a recovery's IO accounting, summed over every shard's cache
   and DC-log device, plus the TC log's device and the archive's (archived
   pages a restart scan reads are log pages on another device). *)
let account_io (engine : Engine.t) ~(stats : Recovery_stats.t) =
  let fetches = ref 0 and stall = ref 0.0 and issued = ref 0 and hits = ref 0 in
  let stalls = ref 0 and log_reads = ref 0 in
  let pages_read = function Some d -> (Disk.counters d).Disk.pages_read | None -> 0 in
  Array.iter
    (fun sh ->
      let c = Pool.counters sh.Engine.s_pool in
      fetches := !fetches + c.Pool.misses + c.Pool.prefetch_hits;
      stall := !stall +. c.Pool.stall_us;
      issued := !issued + c.Pool.prefetch_issued;
      hits := !hits + c.Pool.prefetch_hits;
      stalls := !stalls + c.Pool.stalls;
      log_reads := !log_reads + pages_read sh.Engine.s_dc_log_disk)
    engine.Engine.shards;
  stats.data_page_fetches <- stats.data_page_fetches + !fetches - stats.index_page_fetches;
  stats.data_stall_us <- !stall -. stats.index_stall_us;
  stats.log_pages_read <-
    stats.log_pages_read + !log_reads
    + (Disk.counters engine.Engine.log_disk).Disk.pages_read
    + pages_read engine.Engine.archive_disk;
  stats.prefetch_issued <- stats.prefetch_issued + !issued;
  stats.prefetch_hits <- stats.prefetch_hits + !hits;
  stats.stalls <- stats.stalls + !stalls

(* The opening every restart shares: instantiate the image, quiesce every
   shard, run the method's analysis on each (overlapped), then materialise
   the redo range from the earliest start in one sequential read of the TC
   log, and hand the TC the transaction table the scan rebuilt.  More than
   one shard forces the split layout, so the methods that need page ids on
   the TC log are refused by the same check that refuses them in a split
   single-shard engine; instant recovery needs one shard.  Returns the
   engine, its stats, the scan, and the clock at the start of analysis and
   of the scan. *)
let open_restart ?config image method_ =
  let engine = Crash_image.instantiate ?config image in
  (match method_ with
  | InstantLog2 when Engine.shard_count engine > 1 ->
      invalid_arg
        "Recovery.recover_instant: instant recovery needs a single data component (shards = 1)"
  | _ when Engine.split engine && not (is_logical method_) ->
      invalid_arg
        (Printf.sprintf
           "Recovery.recover: %s needs page ids on the TC log and cannot run in the split-log \
            layout (§5.1)"
           (method_to_string method_))
  | _ -> ());
  let clock = engine.Engine.clock in
  let stats = Recovery_stats.create ~metrics:(Engine.metrics engine) () in
  let bckpt = Crash_image.master image in
  begin_replay engine;
  (* Phase 1: analysis / DC recovery, per shard. *)
  let t0 = Clock.now clock in
  let starts = overlapped engine (fun sh -> analyse method_ engine sh ~bckpt ~stats) in
  let redo_start = Array.fold_left Lsn.min starts.(0) starts in
  stats.analysis_us <- Clock.now clock -. t0;
  phase engine "analysis" ~ts0:t0;
  (* Phase 2: materialise the redo range. *)
  let t1 = Clock.now clock in
  let scan = scan_log engine.Engine.log ~from:redo_start in
  phase engine "log_scan" ~ts0:t1;
  Tc.restore_txn_state engine.Engine.tc ~losers:scan.losers ~next_txn:(scan.max_txn + 1);
  Tc.set_master engine.Engine.tc bckpt;
  stats.losers <- stats.losers + List.length scan.losers;
  (engine, stats, scan, t0, t1)

(* ---------- Offline recovery ---------- *)

(* The restart of §2.1 at any shard count: each shard runs the method's
   analysis, one sequential scan reads the single TC log, each shard
   replays its stripe of it through its endpoint, and undo runs once
   through the router.  The per-shard steps overlap on the clock, which is
   the point of recovering shards in parallel. *)
let recover_offline ?config ?undo_fault_after_clrs image method_ =
  let engine, stats, scan, _, t1 = open_restart ?config image method_ in
  let clock = engine.Engine.clock in
  (* Phase 3: redo.  The redo span and [redo_us] both cover the scan. *)
  stats.records_scanned <- stats.records_scanned + Array.length scan.records;
  ignore (overlapped engine (fun sh -> redo_pass method_ engine sh scan ~stats));
  stats.redo_us <- Clock.now clock -. t1;
  phase engine "redo" ~ts0:t1;
  (* Phase 4: undo.  The tree is fully replayed now; maintenance may
     resume. *)
  Array.iter (fun sh -> Dc.set_merge_allowed sh.Engine.s_dc true) engine.Engine.shards;
  undo_losers ?fault:undo_fault_after_clrs engine scan.losers ~stats;
  Array.iter (fun sh -> Pool.set_lazy_writer_enabled sh.Engine.s_pool true) engine.Engine.shards;
  account_io engine ~stats;
  (* Close the trace window before reopening the catalog below: the span
     accounting (page_fetch ≡ fetches, redo_op ≡ candidates) holds exactly
     over the recovery interval, and [open_tables] does cache work that is
     not part of it. *)
  Option.iter Trace.stop (Engine.trace engine);
  Array.iter (fun sh -> Dc.open_tables sh.Engine.s_dc) engine.Engine.shards;
  (engine, stats)

(* ---------- Instant recovery (InstantLog2) ---------- *)

(* An open-for-business engine with redo still pending.  [i_pending] maps a
   leaf pid to that page's slice of the redo range (in log order);
   [i_order] remembers the pids by first appearance in the log — the
   background drain replays them in that order, which matches the page
   order the offline pass would have first touched them in.

   Both the history index and the loser rollback are deferred past the
   open: [i_records] holds the raw redo range until the first page demand
   builds the index ([ensure_history]), and [i_losers] wait un-undone
   until background work or a conflicting key touch forces them
   ([ensure_undo]).  [i_loser_keys] is the lock substitute meanwhile: any
   client touch of a key a loser wrote must run rollback first. *)
type instant = {
  i_engine : Engine.t;
  i_stats : Recovery_stats.t;
  i_pending : (int, (Lsn.t * Lr.redo_view) list) Hashtbl.t;
  mutable i_order : int list;
  mutable i_records : (Lsn.t * Lr.t) array;  (* redo range, unindexed until first demand *)
  mutable i_built : bool;
  mutable i_building : bool;
  i_losers : (int * Lsn.t) list;
  i_loser_keys : (int * int, unit) Hashtbl.t;
  mutable i_undone : bool;
  i_undo_fault : int option;
  mutable i_finished : bool;
  i_t0 : float;  (* clock at recovery start; ttft/drained are relative to it *)
}

let instant_engine sess = sess.i_engine

(* Replay one page's whole slice through the ordinary Log2 redo operator.
   [Dc.redo_logical] is self-contained — it charges the per-record CPU,
   re-locates the leaf, applies the tail/DPT/rLSN/pLSN tests and keeps
   every counter — so replaying each record exactly once, grouped by page
   instead of globally by LSN, produces the same page trajectories and the
   same statistics as the offline pass (the tree shape is final after
   analysis and merges stay disabled until the drain completes, so a key's
   leaf is constant; a page's content depends only on its own records in
   log order).  Removing the page from the pending set {e first} makes the
   buffer-pool hook re-entrant: the nested [get]s below settle without
   recursing. *)
let replay_page sess ~background pid =
  match Hashtbl.find_opt sess.i_pending pid with
  | None -> ()
  | Some slice ->
      Hashtbl.remove sess.i_pending pid;
      let engine = sess.i_engine in
      let dc = (Engine.shard engine 0).Engine.s_dc in
      let clock = engine.Engine.clock in
      let stats = sess.i_stats in
      let t0 = Clock.now clock in
      List.iter (fun (lsn, view) -> Dc.redo_logical dc ~lsn ~view ~use_dpt:true ~stats) slice;
      stats.redo_us <- stats.redo_us +. (Clock.now clock -. t0);
      if background then stats.pages_background <- stats.pages_background + 1
      else stats.pages_ondemand <- stats.pages_ondemand + 1;
      close_span engine ~name:"replay_page" ~cat:"recovery"
        ~track:(if background then Trace.track_recovery else Trace.track_ondemand)
        ~args:[ ("pid", pid); ("records", List.length slice) ]
        ~ts0:t0 ()

(* Build the per-page history index on first demand, after the engine is
   already open.  Warms the internal levels with one batched preload so
   every locate below is cache-hot, then assigns each redo-view record to
   its leaf's slice.  The tree shape is final after analysis and merges
   stay disabled until the drain completes, so a key's leaf is constant —
   building late yields the same slices building eagerly would have.
   Re-entrancy: the preload/locates below fault only internal pages, which
   are never in [i_pending]; [i_building] stops the nested hook calls they
   trigger from recursing into the build. *)
let ensure_history sess =
  if (not sess.i_built) && not sess.i_building then begin
    sess.i_building <- true;
    let engine = sess.i_engine in
    let dc = (Engine.shard engine 0).Engine.s_dc in
    let clock = engine.Engine.clock in
    let stats = sess.i_stats in
    let t0 = Clock.now clock in
    Dc.preload_indexes dc ~stats;
    let order = ref [] in
    Array.iter
      (fun (lsn, record) ->
        stats.records_scanned <- stats.records_scanned + 1;
        match Lr.redo_view record with
        | None -> ()
        | Some view ->
            let tr = Dc.tree dc ~table:view.Lr.rv_table in
            let pid = Deut_btree.Btree.locate_leaf tr ~key:view.Lr.rv_key in
            (match Hashtbl.find_opt sess.i_pending pid with
            | Some slice -> Hashtbl.replace sess.i_pending pid ((lsn, view) :: slice)
            | None ->
                order := pid :: !order;
                Hashtbl.replace sess.i_pending pid [ (lsn, view) ]))
      sess.i_records;
    Hashtbl.filter_map_inplace (fun _ slice -> Some (List.rev slice)) sess.i_pending;
    sess.i_order <- List.rev !order;
    sess.i_records <- [||];
    sess.i_built <- true;
    sess.i_building <- false;
    close_span engine ~name:"history_build" ~cat:"phase" ~track:Trace.track_recovery ~ts0:t0 ()
  end

(* Roll the losers back, once.  Deferred past the open: new transactions
   only wait on it when they touch a key a loser wrote (the [i_loser_keys]
   gate), or when background work reaches it.  Undo's own page touches
   drive on-demand replay through the buffer-pool hook, so compensations
   always apply to fully-redone pages regardless of when this runs. *)
let ensure_undo sess =
  if not sess.i_undone then begin
    sess.i_undone <- true;
    undo_losers ?fault:sess.i_undo_fault sess.i_engine sess.i_losers ~stats:sess.i_stats;
    Hashtbl.reset sess.i_loser_keys
  end

let instant_pending_pages sess =
  ensure_history sess;
  Hashtbl.length sess.i_pending

(* The admission gate: a client touch of a key some loser wrote forces
   rollback before the touch proceeds — the in-memory stand-in for the
   persistent locks real instant recovery reacquires during analysis. *)
let instant_touch_key sess ~table ~key =
  if (not sess.i_undone) && Hashtbl.mem sess.i_loser_keys (table, key) then ensure_undo sess

let instant_force_undo sess = ensure_undo sess

(* Open the engine for transactions right after analysis, leaving redo to
   the fault hook and the background drain, the history index to the first
   page demand, and loser rollback to the first conflicting key touch (or
   background work).  Time-to-first-transaction is analysis + the
   sequential log scan + the in-memory loser-key walk — no data-page IO at
   all. *)
let recover_instant ?config ?undo_fault_after_clrs image =
  (* Analysis runs exactly as Log2's minus the index preload; the per-page
     index over the scanned redo range is built lazily, on the first page
     demand.  Merges stay off until the drain completes: a merge would move
     keys between leaves and invalidate the page slices.  (Splits by
     admitted transactions are safe — splitting a page first touches it,
     which replays its slice.) *)
  let engine, stats, scan, t0, _ = open_restart ?config image InstantLog2 in
  let sh = Engine.shard engine 0 in
  let clock = engine.Engine.clock in
  let tc = engine.Engine.tc in
  (* Collect each loser's written keys from its backward chain (in-memory
     log reads only).  Those keys stay blocked until rollback runs — the
     lock substitute that lets undo itself move past the open. *)
  let loser_keys : (int * int, unit) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (txn, last) ->
      List.iter (fun tk -> Hashtbl.replace loser_keys tk ()) (Tc.loser_keys tc ~txn ~last))
    scan.losers;
  let sess =
    {
      i_engine = engine;
      i_stats = stats;
      i_pending = Hashtbl.create 256;
      i_order = [];
      i_records = scan.records;
      i_built = false;
      i_building = false;
      i_losers = scan.losers;
      i_loser_keys = loser_keys;
      i_undone = scan.losers = [];
      i_undo_fault = undo_fault_after_clrs;
      i_finished = false;
      i_t0 = t0;
    }
  in
  (* Reopen the catalog before the hook goes in: [open_tables] touches
     only the catalog page, which is never a data leaf, and doing it here
     keeps the touch from counting as the first page demand. *)
  Dc.open_tables sh.Engine.s_dc;
  (* From here, any page touch — a client read, an undo compensation, an
     eviction or lazy-writer flush — builds the history index if needed
     and replays that page's slice first.  (The filter cannot be "is the
     pid in the DPT": a pre-crash split can leave a key's final leaf
     different from the pid its Δ record dirtied, so a pending leaf need
     not appear in the DPT at all — only the built index knows.) *)
  Pool.set_redo_hook sh.Engine.s_pool
    (Some
       (fun pid ->
         ensure_history sess;
         replay_page sess ~background:false pid));
  Pool.set_lazy_writer_enabled sh.Engine.s_pool true;
  (* Open for business: time-to-first-transaction is now. *)
  stats.ttft_us <- Clock.now clock -. t0;
  (match Engine.trace engine with
  | Some tr ->
      Trace.instant tr ~name:"open_for_business" ~cat:"recovery" ~track:Trace.track_recovery
        ~args:[ ("redo_records", Array.length scan.records); ("losers", List.length scan.losers) ]
        ()
  | None -> ());
  sess

(* One background-drain step: finish any deferred recovery work first
   (history index, loser rollback), then replay the next still-pending
   page in log first-touch order.  Returns [false] once nothing is
   pending. *)
let instant_step sess =
  ensure_history sess;
  ensure_undo sess;
  let rec go = function
    | [] ->
        sess.i_order <- [];
        false
    | pid :: rest ->
        if Hashtbl.mem sess.i_pending pid then begin
          sess.i_order <- rest;
          replay_page sess ~background:true pid;
          true
        end
        else go rest
  in
  go sess.i_order

let instant_drain sess = while instant_step sess do () done

(* Close the recovery: drain whatever is left, re-enable maintenance,
   uninstall the hook and finalise the IO accounting.  Idempotent. *)
let instant_finish sess =
  let engine = sess.i_engine in
  let sh = Engine.shard engine 0 in
  let stats = sess.i_stats in
  if not sess.i_finished then begin
    sess.i_finished <- true;
    (* The drain's first step also builds the history index and rolls the
       losers back. *)
    instant_drain sess;
    Pool.set_redo_hook sh.Engine.s_pool None;
    Dc.set_merge_allowed sh.Engine.s_dc true;
    stats.drained_us <- Clock.now engine.Engine.clock -. sess.i_t0;
    account_io engine ~stats;
    Option.iter Trace.stop (Engine.trace engine)
  end;
  stats

let recover ?config ?undo_fault_after_clrs image method_ =
  match method_ with
  | InstantLog2 ->
      (* The offline-equivalent form: open, then drain fully before any
         client work — the determinism gate that pins InstantLog2's final
         state to Log2's, byte for byte. *)
      let sess = recover_instant ?config ?undo_fault_after_clrs image in
      let stats = instant_finish sess in
      (sess.i_engine, stats)
  | _ -> recover_offline ?config ?undo_fault_after_clrs image method_

(* ---------- Live single-shard recovery ---------- *)

(* The availability story (§6 directions): one data component died, the TC
   and the sibling shards never stopped.  Replay the crashed shard's own
   DC log (SMO images + DPT), then its stripe of the TC log from the
   master record — the TC is alive, so its in-memory tail is readable and
   nothing any sibling committed is lost — and rejoin.  There is no undo:
   [Db.crash_shard] requires a quiesced transaction table, so every
   replayed record belongs to a winner.  Idempotence comes from the same
   pLSN tests normal logical redo uses. *)
let recover_shard engine i =
  let sh = Engine.shard engine i in
  if sh.Engine.s_up then
    invalid_arg (Printf.sprintf "Recovery.recover_shard: shard %d is not down" i);
  let clock = engine.Engine.clock in
  let log = engine.Engine.log in
  let stats = Recovery_stats.create () in
  let t0 = Clock.now clock in
  (* Flip up first: recovery replays through the shard's own endpoint, the
     same protocol channel normal redo drives a remote DC with. *)
  sh.Engine.s_up <- true;
  Pool.set_lazy_writer_enabled sh.Engine.s_pool false;
  Dc.set_merge_allowed sh.Engine.s_dc false;
  let bckpt = Tc.master engine.Engine.tc in
  ignore (analyse Log1 engine sh ~bckpt ~stats);
  stats.analysis_us <- Clock.now clock -. t0;
  let t1 = Clock.now clock in
  let scan = scan_log log ~from:bckpt in
  stats.records_scanned <- stats.records_scanned + Array.length scan.records;
  redo_pass Log1 engine sh scan ~stats;
  stats.redo_us <- Clock.now clock -. t1;
  Dc.set_merge_allowed sh.Engine.s_dc true;
  Pool.set_lazy_writer_enabled sh.Engine.s_pool true;
  Dc.open_tables sh.Engine.s_dc;
  (* Re-seed the end-of-stable-log notifications the shard missed while
     down. *)
  Dc_access.eosl (Engine.router engine).Dc_access.endpoints.(i) (Log_manager.stable_lsn log);
  close_span engine ~name:"shard_recovery" ~cat:"shard" ~track:(Trace.track_shard i)
    ~args:[ ("shard", i) ] ~ts0:t0 ();
  stats
