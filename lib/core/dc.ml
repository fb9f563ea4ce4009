module Page = Deut_storage.Page
module Page_store = Deut_storage.Page_store
module Pool = Deut_buffer.Buffer_pool
module Btree = Deut_btree.Btree
module Lr = Deut_wal.Log_record
module Lsn = Deut_wal.Lsn
module Log_manager = Deut_wal.Log_manager
module Clock = Deut_sim.Clock
module Disk = Deut_sim.Disk
module Ivec = Deut_sim.Ivec
module Trace = Deut_obs.Trace

type t = {
  config : Config.t;
  clock : Clock.t;
  disk : Disk.t;
  store : Page_store.t;
  pool : Pool.t;
  trees : (int, Btree.t) Hashtbl.t;
  heights : (int, int) Hashtbl.t;
  monitor : Monitor.t;
  dc_log : Log_manager.t;
  elsn_ref : Lsn.t ref;
  mutable dc_archive : Lsn.t;
  mutable dpt : Dpt.t;
  mutable pf : int array;
  mutable last_delta_tclsn : Lsn.t;
  mutable ticks : int;
  merge_allowed : bool ref;
  trace : Trace.t option;
  mutable redo_track : int option;  (* trace lane override for redo_op spans *)
}

let create ?trace ~config ~clock ~disk ~store ~pool ~dc_log ~tc () =
  let elsn_ref = ref Lsn.nil in
  let monitor =
    Monitor.create ?trace ~config
      ~log_append:(fun r ->
        let lsn = Log_manager.append dc_log r in
        (* With its own log, the DC must make Δ/BW records durable itself —
           nothing else forces that log between checkpoints, and a Δ lost
           in the volatile tail degrades every covered operation to the
           basic-redo fallback.  In the integrated layout they ride the
           TC's commit forces, as in the paper's prototype. *)
        (match config.Config.log_layout with
        | Config.Split -> Log_manager.force dc_log
        | Config.Integrated -> ());
        lsn)
      ~stable_lsn:(fun () -> !elsn_ref)
      ()
  in
  let t =
    {
      config;
      clock;
      disk;
      store;
      pool;
      trees = Hashtbl.create 8;
      heights = Hashtbl.create 8;
      monitor;
      dc_log;
      elsn_ref;
      dc_archive = Lsn.nil;
      dpt = Dpt.create ();
      pf = [||];
      last_delta_tclsn = Lsn.nil;
      ticks = 0;
      merge_allowed = ref true;
      trace;
      redo_track = None;
    }
  in
  Pool.set_hooks pool
    {
      Pool.on_dirty = (fun ~pid ~lsn -> Monitor.on_dirty monitor ~pid ~lsn);
      on_flush = (fun ~pid -> Monitor.on_flush monitor ~pid);
      ensure_stable =
        (fun ~tc_lsn ~dc_lsn ->
          (* WAL on both LSN domains; one shared log in the integrated
             layout just gets forced twice.  The TC-side force is a
             [Force_upto] message — the only request a DC ever makes
             against the TC. *)
          ignore (Dc_access.force_upto tc tc_lsn);
          Log_manager.force_upto dc_log dc_lsn;
          (* The force response carries the new end-of-stable-log. *)
          if tc_lsn > !elsn_ref then elsn_ref := tc_lsn);
    };
  t

let config t = t.config
let pool t = t.pool
let store t = t.store
let monitor t = t.monitor
let clock t = t.clock
let dpt t = t.dpt
let pf_list t = t.pf
let last_delta_tclsn t = t.last_delta_tclsn
let set_dpt t dpt = t.dpt <- dpt
let dc_archive_point t = t.dc_archive
let dc_log t = t.dc_log

(* Append the SMO record, then stamp every touched page with its LSN in
   the DC domain.  The dirty-event value fed to the Δ monitor stays in the
   TC domain: the record's own LSN when the logs are one, the TC
   end-of-stable-log when they are separate. *)
let log_smo t (smo : Lr.smo) =
  let lsn = Log_manager.append t.dc_log (Lr.Smo smo) in
  let event_lsn =
    match t.config.Config.log_layout with
    | Config.Integrated -> lsn
    | Config.Split ->
        (* An SMO is a system transaction that commits synchronously: with
           a separate DC log, a TC commit no longer forces DC records, so a
           transactional operation that depends on this structure change
           could otherwise become durable while the change itself sat in
           the DC log's volatile tail — unrecoverable placement.  SMOs are
           rare, so the force is cheap. *)
        Log_manager.force t.dc_log;
        !(t.elsn_ref)
  in
  Array.iter
    (fun (pid, _) -> Pool.mark_dirty_dc t.pool ~pid ~dc_lsn:lsn ~event_lsn)
    smo.Lr.pages;
  lsn

let format t = Btree.format_store ~pool:t.pool ~log_smo:(log_smo t)

let create_table t ~table =
  let tree =
    Btree.create ~merge_allowed:t.merge_allowed ~pool:t.pool ~table ~log_smo:(log_smo t) ()
  in
  Hashtbl.replace t.trees table tree

let tree t ~table =
  match Hashtbl.find_opt t.trees table with
  | Some tr -> tr
  | None ->
      let tr =
        Btree.open_existing ~merge_allowed:t.merge_allowed ~pool:t.pool ~table
          ~log_smo:(log_smo t) ()
      in
      Hashtbl.replace t.trees table tr;
      tr

let open_tables t =
  let catalog = Pool.get t.pool Btree.catalog_pid in
  List.iter
    (fun (table, _root) -> ignore (tree t ~table))
    (Deut_btree.Catalog.tables catalog)

let tables t =
  let catalog = Pool.get t.pool Btree.catalog_pid in
  List.map fst (Deut_btree.Catalog.tables catalog)

let has_table t ~table =
  Hashtbl.mem t.trees table
  ||
  let catalog = Pool.get t.pool Btree.catalog_pid in
  List.mem_assoc table (Deut_btree.Catalog.tables catalog)

(* {2 Normal execution} *)

let prepare t ~table ~key ~op ~value_len = Btree.prepare_write (tree t ~table) ~key ~op ~value_len

let apply t ~table ~pid ~key ~op ~value ~lsn =
  let tr = tree t ~table in
  match (op, value) with
  | Lr.Insert, Some v -> Btree.apply_insert tr ~pid ~key ~value:v ~lsn
  | Lr.Update, Some v -> Btree.apply_update tr ~pid ~key ~value:v ~lsn
  | Lr.Delete, _ -> Btree.apply_delete tr ~pid ~key ~lsn
  | (Lr.Insert | Lr.Update), None -> invalid_arg "Dc.apply: insert/update without a value"

let read t ~table ~key = Btree.lookup (tree t ~table) ~key

let eosl t lsn = if lsn > !(t.elsn_ref) then t.elsn_ref := lsn

let rssp t _rssp_lsn =
  (* Everything the DC logged before this point will be reflected in
     stable pages once the flush below completes, so the DC log may later
     be archived up to here. *)
  let archive = Log_manager.end_lsn t.dc_log in
  Pool.begin_checkpoint_epoch t.pool;
  Pool.flush_previous_epoch t.pool;
  (* Put the checkpoint's own flush events on the log before end-ckpt, and
     make them durable: the TC writes end-checkpoint only after this call
     returns, so checkpoint completion implies a durable Δ trail. *)
  Monitor.emit_pending t.monitor;
  Log_manager.force t.dc_log;
  t.dc_archive <- archive

let set_merge_allowed t enabled = t.merge_allowed := enabled

let tick_update t =
  t.ticks <- t.ticks + 1;
  Monitor.tick_update t.monitor

(* {2 Recovery} *)

(* Wrap an index traversal so its page fetches and stalls are attributed to
   index IO in the stats (§5.3 reports index waits separately) and its
   page_fetch spans carry the [index] arg the trace profiler splits on. *)
let tracked_index (stats : Recovery_stats.t) (pool : Pool.t) f =
  let c = Pool.counters pool in
  let fetches0 = c.Pool.misses + c.Pool.prefetch_hits in
  let stall0 = c.Pool.stall_us in
  Pool.set_fetch_index pool true;
  let result = Fun.protect ~finally:(fun () -> Pool.set_fetch_index pool false) f in
  stats.index_page_fetches <-
    stats.index_page_fetches + c.Pool.misses + c.Pool.prefetch_hits - fetches0;
  stats.index_stall_us <- stats.index_stall_us +. (c.Pool.stall_us -. stall0);
  result

let height_of t ~table =
  match Hashtbl.find_opt t.heights table with
  | Some h -> h
  | None ->
      let h = Btree.height (tree t ~table) in
      Hashtbl.replace t.heights table h;
      h

(* Reinstall an SMO page image.  The image's embedded TC pLSN (captured
   when the SMO ran) is authoritative for the transactional redo test; the
   DC pLSN is stamped with this record's LSN.  The monitor event stays in
   the TC domain, as in [log_smo]. *)
let install_image t ~pid ~image ~lsn =
  let event_lsn =
    match t.config.Config.log_layout with
    | Config.Integrated -> lsn
    | Config.Split -> !(t.elsn_ref)
  in
  match Pool.get_if_cached t.pool pid with
  | Some page ->
      Page.set_bytes page ~off:0 image;
      Pool.mark_dirty_dc t.pool ~pid ~dc_lsn:lsn ~event_lsn
  | None ->
      let page = Page.of_image ~pid image in
      Page.set_dc_plsn page lsn;
      Pool.install t.pool page ~dirty:true ~event_lsn

let redo_smo t ~lsn ~(smo : Lr.smo) ~dpt_test ~(stats : Recovery_stats.t) =
  stats.smos_replayed <- stats.smos_replayed + 1;
  (match t.trace with
  | Some tr ->
      Trace.instant tr ~name:"smo_replay" ~cat:"recovery" ~track:Trace.track_recovery
        ~args:[ ("lsn", lsn); ("pages", Array.length smo.Lr.pages) ]
        ()
  | None -> ());
  Array.iter
    (fun (pid, image) ->
      Page_store.note_allocated t.store pid;
      if dpt_test && not (Dpt.mem t.dpt pid) then ()
      else
        match Pool.get_if_cached t.pool pid with
        | Some page -> if Page.dc_plsn page < lsn then install_image t ~pid ~image ~lsn
        | None ->
            if Page_store.exists t.store pid then begin
              let page = Pool.get t.pool pid in
              if Page.dc_plsn page < lsn then install_image t ~pid ~image ~lsn
            end
            else install_image t ~pid ~image ~lsn)
    smo.Lr.pages

let process_delta t ~pf ~prev_delta (d : Lr.delta) =
  let dpt = t.dpt in
  let add_entry pid rlsn = if Dpt.add dpt ~pid ~lsn:rlsn then Ivec.push pf pid in
  let apply_flush () =
    if not (Lsn.is_nil d.Lr.fw_lsn) then
      Array.iter
        (fun pid -> Dpt.apply_flush ?trace:t.trace dpt ~pid ~fw_lsn:d.Lr.fw_lsn)
        d.Lr.written
  in
  if Array.length d.Lr.dirty_lsns > 0 then begin
    (* Appendix D.1 "perfect DPT": exact dirtying LSNs, SQL-grade pruning. *)
    Array.iteri (fun i pid -> add_entry pid d.Lr.dirty_lsns.(i)) d.Lr.dirty;
    apply_flush ()
  end
  else if Lsn.is_nil d.Lr.fw_lsn && Array.length d.Lr.written > 0 then begin
    (* Appendix D.2 reduced logging: no FW-LSN/FirstDirty.  Every dirty
       entry is stamped with the previous record's TC-LSN; the written set
       may prune only entries last touched before this interval. *)
    Array.iter (fun pid -> add_entry pid prev_delta) d.Lr.dirty;
    Array.iter
      (fun pid ->
        match Dpt.find dpt pid with
        | Some (_, last) when last < prev_delta -> Dpt.prune ?trace:t.trace dpt pid
        | Some _ | None -> ())
      d.Lr.written
  end
  else begin
    (* Algorithm 4.  Entries dirtied before the interval's first flush get
       the previous Δ record's TC-LSN as rLSN; later ones get FW-LSN. *)
    Array.iteri
      (fun i pid -> add_entry pid (if i < d.Lr.first_dirty then prev_delta else d.Lr.fw_lsn))
      d.Lr.dirty;
    apply_flush ()
  end

let dc_recovery t ~log ~from ~bckpt ~build_dpt ~(stats : Recovery_stats.t) =
  Hashtbl.reset t.heights;
  t.dpt <- Dpt.create ();
  let pf = Ivec.create ~capacity:1024 () in
  let prev_delta = ref bckpt in
  Log_manager.iter log ~from (fun lsn record ->
      match record with
      | Lr.Smo smo -> redo_smo t ~lsn ~smo ~dpt_test:false ~stats
      | Lr.Delta d when d.Lr.tc_lsn > bckpt ->
          stats.deltas_seen <- stats.deltas_seen + 1;
          if build_dpt then process_delta t ~pf ~prev_delta:!prev_delta d;
          prev_delta := d.Lr.tc_lsn
      | Lr.Delta _ -> ()
      | Lr.Bw _ -> stats.bws_seen <- stats.bws_seen + 1
      | Lr.Update_rec _ | Lr.Commit _ | Lr.Abort _ | Lr.Clr _ | Lr.Begin_ckpt | Lr.End_ckpt _
      | Lr.Aries_ckpt_dpt _ ->
          ());
  t.last_delta_tclsn <- !prev_delta;
  t.pf <- Ivec.to_array pf;
  if build_dpt then stats.dpt_size <- stats.dpt_size + Dpt.size t.dpt

let preload_indexes t ~stats =
  List.iter
    (fun table -> tracked_index stats t.pool (fun () -> Btree.preload_index (tree t ~table)))
    (tables t)

let apply_view t ~(view : Lr.redo_view) ~pid ~lsn =
  let tr = tree t ~table:view.Lr.rv_table in
  match (view.Lr.rv_op, view.Lr.rv_value) with
  | Lr.Insert, Some v -> Btree.apply_insert tr ~pid ~key:view.Lr.rv_key ~value:v ~lsn
  | Lr.Update, Some v -> Btree.apply_update tr ~pid ~key:view.Lr.rv_key ~value:v ~lsn
  | Lr.Delete, _ -> Btree.apply_delete tr ~pid ~key:view.Lr.rv_key ~lsn
  | (Lr.Insert | Lr.Update), None -> invalid_arg "Dc.apply_view: insert/update without a value"

(* The pLSN test (sound because a zero-initialised page header reports
   pLSN 0 and the log reserves offset 0 — no record ever carries lsn 0,
   so a fresh page always tests strictly below every record). *)
let fetch_and_test_then_apply t ~lsn ~view ~pid ~(stats : Recovery_stats.t) =
  let page = Pool.get t.pool pid in
  if lsn <= Page.plsn page then stats.skipped_plsn <- stats.skipped_plsn + 1
  else begin
    apply_view t ~view ~pid ~lsn;
    stats.redo_applied <- stats.redo_applied + 1
  end

(* One "redo_op" span per redo candidate, covering CPU charge, index
   traversal (logical) and any page fetch.  Recovery's span accounting
   relies on redo_op spans ≡ redo_candidates. *)
let note_redo_op t ~lsn ~pid ~ts0 =
  match t.trace with
  | Some tr ->
      let track = Option.value t.redo_track ~default:Trace.track_recovery in
      Trace.span tr ~name:"redo_op" ~cat:"recovery" ~track ~ts:ts0
        ~dur:(Clock.now t.clock -. ts0)
        ~args:[ ("lsn", lsn); ("pid", pid) ]
        ()
  | None -> ()

let set_redo_track t track = t.redo_track <- track

let redo_logical t ~lsn ~(view : Lr.redo_view) ~use_dpt ~(stats : Recovery_stats.t) =
  stats.redo_candidates <- stats.redo_candidates + 1;
  let ts0 = Clock.now t.clock in
  let height = height_of t ~table:view.Lr.rv_table in
  Clock.advance t.clock
    (Config.cpu_op_us +. (Config.cpu_index_level_us *. float_of_int height));
  (* The traversal that turns the logical key into a PID — the extra work
     logical redo cannot avoid (§1.3). *)
  let tr = tree t ~table:view.Lr.rv_table in
  let pid = tracked_index stats t.pool (fun () -> Btree.locate_leaf tr ~key:view.Lr.rv_key) in
  let in_tail = Lsn.is_nil t.last_delta_tclsn || lsn >= t.last_delta_tclsn in
  if use_dpt && in_tail then stats.tail_records <- stats.tail_records + 1;
  (if use_dpt && not in_tail then begin
     match Dpt.find t.dpt pid with
     | None -> stats.skipped_dpt <- stats.skipped_dpt + 1
     | Some (rlsn, _) when lsn < rlsn -> stats.skipped_rlsn <- stats.skipped_rlsn + 1
     | Some _ -> fetch_and_test_then_apply t ~lsn ~view ~pid ~stats
   end
   else fetch_and_test_then_apply t ~lsn ~view ~pid ~stats);
  note_redo_op t ~lsn ~pid ~ts0

let redo_physiological t ~lsn ~(view : Lr.redo_view) ~use_dpt ~(stats : Recovery_stats.t) =
  stats.redo_candidates <- stats.redo_candidates + 1;
  let ts0 = Clock.now t.clock in
  Clock.advance t.clock Config.cpu_op_us;
  let pid = view.Lr.rv_pid in
  (if use_dpt then begin
     match Dpt.find t.dpt pid with
     | None -> stats.skipped_dpt <- stats.skipped_dpt + 1
     | Some (rlsn, _) when lsn < rlsn -> stats.skipped_rlsn <- stats.skipped_rlsn + 1
     | Some _ -> fetch_and_test_then_apply t ~lsn ~view ~pid ~stats
   end
   else fetch_and_test_then_apply t ~lsn ~view ~pid ~stats);
  note_redo_op t ~lsn ~pid ~ts0

(* {2 The protocol server} *)

(* Serve one [Dc_access] request.  This is the only entry the transports
   call: every protocol interaction — in-process or networked — lands
   here and dispatches to the operations above, so the message API and
   the direct API cannot drift apart. *)
let handle t (req : Dc_access.request) : Dc_access.reply =
  match req with
  | Dc_access.Prepare { table; key; op; value_len } ->
      Dc_access.Prepared (prepare t ~table ~key ~op ~value_len)
  | Dc_access.Apply { table; pid; key; op; value; lsn; tick } ->
      apply t ~table ~pid ~key ~op ~value ~lsn;
      if tick then tick_update t;
      Dc_access.Ack
  | Dc_access.Read { table; key } -> Dc_access.Value (read t ~table ~key)
  | Dc_access.Eosl lsn ->
      eosl t lsn;
      Dc_access.Ack
  | Dc_access.Rssp lsn ->
      rssp t lsn;
      Dc_access.Ack
  | Dc_access.Create_table table ->
      create_table t ~table;
      Dc_access.Ack
  | Dc_access.Has_table table -> Dc_access.Known (has_table t ~table)
  | Dc_access.Runtime_dpt -> Dc_access.Dpt_entries (Monitor.runtime_dpt t.monitor)
  | Dc_access.Redo_logical { lsn; view; use_dpt; stats } ->
      redo_logical t ~lsn ~view ~use_dpt ~stats;
      Dc_access.Ack
  | Dc_access.Redo_physiological { lsn; view; use_dpt; stats } ->
      redo_physiological t ~lsn ~view ~use_dpt ~stats;
      Dc_access.Ack
  | Dc_access.Redo_smo { lsn; smo; dpt_test; stats } ->
      redo_smo t ~lsn ~smo ~dpt_test ~stats;
      Dc_access.Ack
