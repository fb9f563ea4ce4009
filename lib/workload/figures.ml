module Config = Deut_core.Config
module Db = Deut_core.Db
module Engine = Deut_core.Engine
module Recovery = Deut_core.Recovery
module Rs = Deut_core.Recovery_stats

let paper_cache_sizes = [ 64; 128; 256; 512; 1024; 2048 ]
let no_progress _ = ()

(* The sweeps below evaluate independent cells — separate engines sharing
   nothing but the build cache (itself a monitor) — so with domains > 1
   they fan cells across real OS-level domains via {!Deut_sim.Domain_pool}.
   Results come back in input order, and each cell's simulated numbers are
   byte-identical to a sequential run (the domain count never reaches a
   recovery), so harness parallelism buys wall clock only.  Progress lines are serialised so concurrent cells cannot
   interleave output. *)
let fan ~domains f items =
  Deut_sim.Domain_pool.map (Deut_sim.Domain_pool.create ~domains) f items

let progress_lock = Mutex.create ()

let serial progress msg =
  Mutex.lock progress_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock progress_lock) (fun () -> progress msg)

(* The determinism gate every sweep enforces: each (coordinates, digest)
   pair must carry the first pair's digest. *)
let digests_agree sweep cells =
  match cells with
  | [] -> ()
  | (coord0, d0) :: rest ->
      List.iter
        (fun (coord, d) ->
          if d <> d0 then
            failwith
              (Printf.sprintf "%s: digest diverged — %s gave %s, %s gave %s" sweep coord0 d0
                 coord d))
        rest

(* A fresh database for one OLTP sweep cell: the paper setup's config with
   2PL locking plus the sweep's [tweak], on a table 1/16 the size of the
   crash experiments' (the load dominates otherwise) and one seed shared by
   every cell, so the committed stream — hence the final digest — does not
   depend on the sweep coordinates. *)
let oltp_driver ~scale ~cache_mb tweak =
  let setup = Experiment.paper_setup ~scale ~cache_mb () in
  let spec = setup.Experiment.spec in
  Driver.create
    ~config:(tweak { setup.Experiment.config with Config.locking = true })
    { spec with Workload.rows = Stdlib.max 2_000 (spec.Workload.rows / 16); seed = 1903 }

let plural n = if n = 1 then "" else "s"

(* The paper crash at [cache_mb]: (cache_mb, run, real seconds the build
   took). *)
let crash ?cache ~scale ~progress sweep cache_mb =
  serial progress (Printf.sprintf "%s: cache %d MB (scale 1/%d)" sweep cache_mb scale);
  let t0 = Unix.gettimeofday () in
  let run = Experiment.build ?cache (Experiment.paper_setup ~scale ~cache_mb ()) in
  (cache_mb, run, Unix.gettimeofday () -. t0)

(* Every (crash, task) recovery is independent — the crash image is copied
   before recovery mutates anything and the oracle is sealed — so the full
   grid fans out flat. *)
let grid ~domains crashes tasks f =
  fan ~domains
    (fun (cache_mb, run, task) -> f cache_mb run task)
    (List.concat_map (fun (cache_mb, run, _) -> List.map (fun t -> (cache_mb, run, t)) tasks) crashes)

let image_config run = run.Experiment.image.Deut_core.Crash_image.config

type fig2_cell = {
  cache_mb : int;
  pool_pages : int;
  db_pages : int;
  dirty_pct : float;
  deltas_seen : int;
  bws_seen : int;
  methods : (Recovery.method_ * Rs.t) list;
  build_wall_s : float;  (* real seconds to build workload + crash image *)
  method_walls : (Recovery.method_ * float) list;  (* real seconds per recover+verify *)
  digests : (Recovery.method_ * (string * string)) list;
      (* (store, logical) digest of each method's recovered state — what the
         cross-domain determinism gate compares *)
}

let stats_of cell m = List.assoc m cell.methods
let redo_ms_of cell m = Rs.redo_ms (stats_of cell m)

let run_fig2 ?cache ?(scale = 64) ?(cache_sizes = paper_cache_sizes)
    ?(methods = Recovery.all_methods) ?(progress = no_progress)
    ?(domains = Config.default.Config.domains) () =
  let builds = fan ~domains (crash ?cache ~scale ~progress "fig2") cache_sizes in
  let timed =
    grid ~domains builds methods (fun cache_mb run m ->
        let t0 = Unix.gettimeofday () in
        let recovered, stats = Experiment.recover_verified run m in
        let wall = Unix.gettimeofday () -. t0 in
        let digest =
          (Experiment.store_digest recovered, Client_sched.logical_digest recovered)
        in
        (cache_mb, m, stats, wall, digest))
  in
  List.map
    (fun (cache_mb, run, build_wall_s) ->
      let mine = List.filter (fun (mb, _, _, _, _) -> mb = cache_mb) timed in
      let results = List.map (fun (_, m, s, _, _) -> (m, s)) mine in
      (* Δ/BW analysis counts come from any DPT-building method's stats. *)
      let counting =
        match List.find_opt (fun (m, _) -> m = Recovery.Log1) results with
        | Some (_, s) -> s
        | None -> snd (List.hd results)
      in
      {
        cache_mb;
        pool_pages = (image_config run).Config.pool_pages;
        db_pages = run.Experiment.db_pages;
        dirty_pct = 100.0 *. run.Experiment.dirty_fraction;
        deltas_seen = counting.Rs.deltas_seen;
        bws_seen = counting.Rs.bws_seen;
        methods = results;
        build_wall_s;
        method_walls = List.map (fun (_, m, _, w, _) -> (m, w)) mine;
        digests = List.map (fun (_, m, _, _, d) -> (m, d)) mine;
      })
    builds

(* A text table from (header, renderer) columns, one row per item. *)
let columns ~title cols items =
  Report.table ~title ~header:(List.map fst cols)
    ~rows:(List.map (fun item -> List.map (fun (_, render) -> render item) cols) items)
    ()

let method_columns cells =
  match cells with [] -> [] | cell :: _ -> List.map fst cell.methods

let cache_col = ("Cache (MB)", fun cell -> Report.i cell.cache_mb)

let fig2a cells =
  columns
    ~title:
      "Figure 2(a) — redo recovery time (simulated ms) vs cache size\n\
       (paper: Log1~SQL1; prefetch helps more at larger caches; only Log0 is\n\
       insensitive to cache growth)"
    (cache_col
    :: List.map
         (fun m -> (Recovery.method_to_string m, fun cell -> Report.ms (redo_ms_of cell m)))
         (method_columns cells))
    cells

let phase_table cells =
  let phase name f = (name, fun (cell, m) -> Report.ms (f (stats_of cell m))) in
  columns
    ~title:
      "Per-phase breakdown — simulated ms spent in analysis / redo / undo\n\
       (redo dominates everywhere; analysis differences separate the DPT\n\
       construction costs of §3 vs §4)"
    [
      ("Cache (MB)", fun (cell, _) -> Report.i cell.cache_mb);
      ("Method", fun (_, m) -> Recovery.method_to_string m);
      phase "analysis" Rs.analysis_ms;
      phase "redo" Rs.redo_ms;
      phase "undo" Rs.undo_ms;
      phase "total (ms)" Rs.total_ms;
    ]
    (List.concat_map (fun cell -> List.map (fun m -> (cell, m)) (method_columns cells)) cells)

let fig2b cells =
  columns
    ~title:
      "Figure 2(b) — dirty part of the cache at crash (%)\n\
       (paper: ~30% at 64MB falling to ~10% at 2048MB)"
    [
      cache_col;
      ("dirty % of cache", fun cell -> Report.pct cell.dirty_pct);
      ( "DPT size",
        fun cell ->
          match List.assoc_opt Recovery.Log1 cell.methods with
          | Some s -> Report.i s.Rs.dpt_size
          | None -> "0" );
      ("cache pages", fun cell -> Report.i cell.pool_pages);
      ("db pages", fun cell -> Report.i cell.db_pages);
    ]
    cells

let fig2c cells =
  columns
    ~title:
      "Figure 2(c) — Δ- and BW-log records seen by the analysis pass\n\
       (paper: Δ ≤ 1.5 × BW up to 1024MB; some Δ records carry only dirty pages)"
    [
      cache_col;
      ("Δ records", fun cell -> Report.i cell.deltas_seen);
      ("BW records", fun cell -> Report.i cell.bws_seen);
      ( "Δ/BW",
        fun cell ->
          if cell.bws_seen = 0 then "-"
          else Printf.sprintf "%.2f" (float_of_int cell.deltas_seen /. float_of_int cell.bws_seen)
      );
    ]
    cells

let pct_drop a b = 100.0 *. (a -. b) /. a

let sec53 cells =
  let find mb = List.find_opt (fun c -> c.cache_mb = mb) cells in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "Section 5.3 headline claims — paper vs this reproduction\n";
  let claim name paper measured =
    Buffer.add_string buf (Printf.sprintf "  %-52s paper: %-14s measured: %s\n" name paper measured)
  in
  (match find 512 with
  | Some c ->
      claim "DPT drops logical redo time (Log0→Log1, 512MB)" "65%"
        (Printf.sprintf "%.0f%%" (pct_drop (redo_ms_of c Recovery.Log0) (redo_ms_of c Recovery.Log1)));
      claim "prefetch drops a further (Log1→Log2, 512MB)" "20%"
        (Printf.sprintf "%.0f%%" (pct_drop (redo_ms_of c Recovery.Log1) (redo_ms_of c Recovery.Log2)))
  | None -> ());
  let ratios m1 m2 =
    List.map
      (fun c -> Printf.sprintf "%d:%.2f" c.cache_mb (redo_ms_of c m1 /. redo_ms_of c m2))
      cells
    |> String.concat " "
  in
  claim "Log1 / SQL1 redo time" "~1.0 everywhere" (ratios Recovery.Log1 Recovery.Sql1);
  claim "Log2 / SQL2 redo time" "<=1.15" (ratios Recovery.Log2 Recovery.Sql2);
  let io_cut =
    List.map
      (fun c ->
        let l0 = (stats_of c Recovery.Log0).Rs.data_page_fetches in
        let l1 = (stats_of c Recovery.Log1).Rs.data_page_fetches in
        Printf.sprintf "%d:%.0f%%" c.cache_mb (pct_drop (float_of_int l0) (float_of_int l1)))
      cells
    |> String.concat " "
  in
  claim "DPT cuts data-page IOs" "93% @64MB … 8% @2048MB" io_cut;
  let index_wait =
    List.map
      (fun c ->
        let s = stats_of c Recovery.Log1 in
        Printf.sprintf "%d:%.0f%%" c.cache_mb (100.0 *. s.Rs.index_stall_us /. s.Rs.redo_us))
      cells
    |> String.concat " "
  in
  claim "index-page waits, share of Log1 redo" "16% @64MB … 2% @2048MB" index_wait;
  Buffer.contents buf

let costmodel cells =
  let fetches m c = Report.i (stats_of c m).Rs.data_page_fetches in
  columns
    ~title:
      "Appendix B — cost model, predicted vs measured data-page fetches\n\
       Eq(1) COST(Log0) ~ #log records;  Eq(2) COST(SQL1) ~ DPT;  Eq(3)\n\
       COST(Log1) ~ DPT + tail.  (Predictions ignore cache hits on repeated\n\
       pages, so measured <= predicted except under page swaps, as in the\n\
       paper.)"
    [
      cache_col;
      (* Eq (1): every redo log record costs a page fetch. *)
      ("Log0 pred", fun c -> Report.i (stats_of c Recovery.Log0).Rs.redo_candidates);
      ("Log0 meas", fetches Recovery.Log0);
      (* Eq (2): the DPT size. *)
      ("SQL1 pred", fun c -> Report.i (stats_of c Recovery.Sql1).Rs.dpt_size);
      ("SQL1 meas", fetches Recovery.Sql1);
      (* Eq (3): DPT size plus the log tail. *)
      ( "Log1 pred",
        fun c ->
          let log1 = stats_of c Recovery.Log1 in
          Report.i (log1.Rs.dpt_size + log1.Rs.tail_records) );
      ("Log1 meas", fetches Recovery.Log1);
    ]
    cells

(* ---------- real multicore: the fig2 sweep at 1 and N domains ---------- *)

type domains_cell = {
  dm_domains : int;
  dm_cores : int;
  dm_seq_wall_s : float;
  dm_par_wall_s : float;
  dm_seq : fig2_cell list;
  dm_par : fig2_cell list;
}

let domains_speedup d = if d.dm_par_wall_s > 0.0 then d.dm_seq_wall_s /. d.dm_par_wall_s else 0.0

let run_domains ?(scale = 64) ?(cache_sizes = paper_cache_sizes) ?methods ?domains
    ?(progress = no_progress) () =
  let cores = Deut_sim.Domain_pool.available_cores () in
  let domains =
    match domains with
    | Some d -> d
    | None ->
        (* DEUT_DOMAINS when set above 1, else the machine's cores, capped at
           the width the quick sweep has. *)
        let d = Config.default.Config.domains in
        if d > 1 then d else Stdlib.min 4 cores
  in
  progress
    (Printf.sprintf "domains: sweep at 1 then %d domain(s), %d core(s) available" domains cores);
  (* No build cache: each sweep builds its own crash runs, so the parallel
     run cannot coast on the sequential run's builds. *)
  let sweep domains =
    let t0 = Unix.gettimeofday () in
    let cells = run_fig2 ~scale ~cache_sizes ?methods ~progress ~domains () in
    let wall = Unix.gettimeofday () -. t0 in
    (* Collect this sweep's crash runs outside the timed region, so the
       next sweep does not pay for that. *)
    Gc.full_major ();
    (cells, wall)
  in
  let seq, seq_wall = sweep 1 in
  let par, par_wall = sweep domains in
  let digest c =
    String.concat " "
      (List.map
         (fun (m, (store, logical)) ->
           Printf.sprintf "%s=%s/%s" (Recovery.method_to_string m) store logical)
         c.digests)
  in
  List.iter2
    (fun a b ->
      digests_agree "domains sweep"
        [
          (Printf.sprintf "%d MB at 1 domain" a.cache_mb, digest a);
          (Printf.sprintf "%d MB at %d domains" b.cache_mb domains, digest b);
        ])
    seq par;
  {
    dm_domains = domains;
    dm_cores = cores;
    dm_seq_wall_s = seq_wall;
    dm_par_wall_s = par_wall;
    dm_seq = seq;
    dm_par = par;
  }

type fig3_cell = { multiplier : int; methods3 : (Recovery.method_ * Rs.t) list }

let run_fig3 ?cache ?(scale = 64) ?(cache_mb = 512) ?(multipliers = [ 1; 5; 10 ])
    ?(progress = no_progress) ?(domains = Config.default.Config.domains) () =
  fan ~domains
    (fun multiplier ->
      serial progress
        (Printf.sprintf "fig3: checkpoint interval %dx (scale 1/%d)" multiplier scale);
      let setup = Experiment.paper_setup ~scale ~cache_mb ~ckpt_multiplier:multiplier () in
      let run = Experiment.build ?cache setup in
      { multiplier; methods3 = Experiment.run_all run Recovery.all_methods })
    multipliers

let fig3 cells =
  columns
    ~title:
      "Figure 3 (Appendix C) — redo time (simulated ms) vs checkpoint interval\n\
       (paper: Log0 grows linearly; Log1/SQL1 roughly double at 5x; Log2/SQL2\n\
       grow only ~1.2x per step)"
    (("ckpt interval", fun c -> Printf.sprintf "%dx" c.multiplier)
    :: List.map
         (fun m ->
           (Recovery.method_to_string m, fun c -> Report.ms (Rs.redo_ms (List.assoc m c.methods3))))
         (match cells with [] -> [] | c :: _ -> List.map fst c.methods3))
    cells

type appd_row = {
  label : string;
  dpt_size : int;
  redo_ms : float;
  data_fetches : int;
  delta_records : int;
  delta_kb : float;
}

let run_appd ?cache ?(scale = 64) ?(cache_mb = 512) ?(progress = no_progress) () =
  let row label method_ run =
    let stats = Experiment.run_method run method_ in
    {
      label;
      dpt_size = stats.Rs.dpt_size;
      redo_ms = Rs.redo_ms stats;
      data_fetches = stats.Rs.data_page_fetches;
      delta_records = run.Experiment.deltas_total;
      delta_kb = float_of_int run.Experiment.delta_bytes /. 1024.0;
    }
  in
  let logical_variant label dpt_mode =
    progress (Printf.sprintf "appd: %s (scale 1/%d)" label scale);
    row label Recovery.Log1
      (Experiment.build ?cache (Experiment.paper_setup ~scale ~cache_mb ~dpt_mode ()))
  in
  (* Bound in table order, so the progress lines come out in that order too. *)
  let standard = logical_variant "standard Δ (§4.1)" Config.Standard in
  let perfect = logical_variant "perfect DPT (D.1: +DirtyLSNs)" Config.Perfect in
  let reduced = logical_variant "reduced logging (D.2: -FW/-FirstDirty)" Config.Reduced in
  progress (Printf.sprintf "appd: aries-checkpointing (scale 1/%d)" scale);
  let aries =
    row "ARIES-ckpt (physiological, §3.1)" Recovery.Aries_ckpt
      (Experiment.paper_crash ?cache ~scale ~cache_mb [ Recovery.Aries_ckpt ])
  in
  [ standard; perfect; reduced; aries ]

type split_row = {
  layout : string;
  smethod : Recovery.method_;
  s_analysis_ms : float;
  s_redo_ms : float;
  s_log_pages : int;
  tc_log_kb : float;
  dc_log_kb : float;
}

let run_split ?cache ?(scale = 64) ?(cache_mb = 512) ?(progress = no_progress) () =
  let module Ci = Deut_core.Crash_image in
  let module Log = Deut_wal.Log_manager in
  List.concat_map
    (fun layout ->
      progress
        (Printf.sprintf "split: %s layout (scale 1/%d)" (Config.log_layout_to_string layout)
           scale);
      let setup = Experiment.paper_setup ~scale ~cache_mb () in
      let setup =
        { setup with Experiment.config = { setup.Experiment.config with Config.log_layout = layout } }
      in
      let run = Experiment.build ?cache setup in
      let image = run.Experiment.image in
      let retained log = float_of_int (Log.end_lsn log - Log.base_lsn log) /. 1024.0 in
      let tc_kb = retained image.Ci.log in
      let dc_kb =
        match image.Ci.dc_log with Some l -> retained l | None -> tc_kb
      in
      List.map
        (fun m ->
          let stats = Experiment.run_method run m in
          {
            layout = Config.log_layout_to_string layout;
            smethod = m;
            s_analysis_ms = Rs.analysis_ms stats;
            s_redo_ms = Rs.redo_ms stats;
            s_log_pages = stats.Rs.log_pages_read;
            tc_log_kb = tc_kb;
            dc_log_kb = dc_kb;
          })
        [ Recovery.Log1; Recovery.Log2 ])
    [ Config.Integrated; Config.Split ]

let split_table rows =
  columns
    ~title:
      "Split-log layout (§4.2) vs the paper's integrated prototype (§5.1)\n\
       With its own log, the DC redo/analysis pass scans only SMO and Δ\n\
       records — \"a much smaller log than that needed for the analysis pass\n\
       with integrated recovery\"."
    [
      ("layout", fun r -> r.layout);
      ("method", fun r -> Recovery.method_to_string r.smethod);
      ("analysis (ms)", fun r -> Report.ms r.s_analysis_ms);
      ("redo (ms)", fun r -> Report.ms r.s_redo_ms);
      ("log pages read", fun r -> Report.i r.s_log_pages);
      ("TC log KiB", fun r -> Report.f1 r.tc_log_kb);
      ("DC log KiB", fun r -> Report.f1 r.dc_log_kb);
    ]
    rows

let appd rows =
  columns
    ~title:
      "Appendix D — the DC-logging spectrum (512MB-equivalent cache)\n\
       More DC logging → more accurate DPT → faster redo; Reduced logs least\n\
       but keeps the most pages; Perfect matches SQL Server's DPT exactly."
    [
      ("variant", fun r -> r.label);
      ("DPT size", fun r -> Report.i r.dpt_size);
      ("Log1 redo (ms)", fun r -> Report.ms r.redo_ms);
      ("data fetches", fun r -> Report.i r.data_fetches);
      ("Δ records", fun r -> Report.i r.delta_records);
      ("Δ bytes (KiB)", fun r -> Report.f1 r.delta_kb);
    ]
    rows

(* ---------- parallel redo sweep ---------- *)

module Es = Deut_core.Engine_stats

type workers_cell = {
  w_cache_mb : int;
  w_method : Recovery.method_;
  w_count : int;
  w_stats : Rs.t;
  w_stall_wait : Es.latency;
  w_data_io : Es.latency;
}

let run_workers ?cache ?(scale = 64) ?(cache_sizes = [ 64; 512 ]) ?(workers = [ 1; 2; 4; 8 ])
    ?(methods = Recovery.all_methods) ?(progress = no_progress)
    ?(domains = Config.default.Config.domains) () =
  grid ~domains
    (fan ~domains (crash ?cache ~scale ~progress "workers") cache_sizes)
    (List.concat_map (fun m -> List.map (fun w -> (m, w)) workers) methods)
    (fun cache_mb run (m, w) ->
      let config = { (image_config run) with Config.redo_workers = w } in
      let db, stats = Db.recover ~config run.Experiment.image m in
      (* Read the latencies before verification: the oracle scan does
         thousands of its own page fetches, which would swamp the
         recovery-time IO and stall histograms. *)
      let metrics = Engine.metrics (Db.engine db) in
      let w_stall_wait = Es.latency metrics "cache.stall_wait_us" in
      let w_data_io = Es.latency metrics "disk.data.io_us" in
      Experiment.verify
        (Printf.sprintf "workers sweep %d MB: %s with %d worker(s)" cache_mb
           (Recovery.method_to_string m) w)
        run.Experiment.driver db;
      {
        w_cache_mb = cache_mb;
        w_method = m;
        w_count = w;
        w_stats = stats;
        w_stall_wait;
        w_data_io;
      })

let workers_table cells =
  let base cell =
    (* The workers=1 row of the same (cache, method) anchors the speedup. *)
    match
      List.find_opt
        (fun c -> c.w_cache_mb = cell.w_cache_mb && c.w_method = cell.w_method && c.w_count = 1)
        cells
    with
    | Some c -> Rs.redo_ms c.w_stats
    | None -> Rs.redo_ms cell.w_stats
  in
  let p50_p95 (h : Es.latency) = Printf.sprintf "%.0f / %.0f" h.Es.p50_us h.Es.p95_us in
  columns
    ~title:
      "Parallel redo — simulated workers replaying the partitioned redo range\n\
       (application stays in log order, so recovered state and apply counts are\n\
       identical at every worker count; workers overlap CPU and fetch stalls on\n\
       the shared disk, so the speedup ceiling is set by how IO-bound redo is;\n\
       percentiles are histogram bucket upper bounds)"
    [
      ("Cache (MB)", fun c -> Report.i c.w_cache_mb);
      ("Method", fun c -> Recovery.method_to_string c.w_method);
      ("workers", fun c -> Report.i c.w_count);
      ("redo (ms)", fun c -> Report.ms (Rs.redo_ms c.w_stats));
      ("speedup", fun c -> Printf.sprintf "%.2fx" (base c /. Rs.redo_ms c.w_stats));
      ("stalls", fun c -> Report.i c.w_stats.Rs.stalls);
      ("stall p50/p95 (µs)", fun c -> p50_p95 c.w_stall_wait);
      ("io p50/p95 (µs)", fun c -> p50_p95 c.w_data_io);
    ]
    cells

type concurrency_cell = {
  c_clients : int;
  c_group_commit : int;
  c_stats : Client_sched.stats;
  c_digest : string;
}

let run_concurrency ?(scale = 64) ?(cache_mb = 256) ?(clients = [ 1; 2; 4; 8 ])
    ?(group_commits = [ 1; 4 ]) ?(txns = 300) ?(progress = no_progress)
    ?(domains = Config.default.Config.domains) () =
  let coords = List.concat_map (fun gc -> List.map (fun n -> (gc, n)) clients) group_commits in
  let cells =
    fan ~domains
      (fun (gc, n) ->
        serial progress
          (Printf.sprintf "concurrency: %d client%s, group_commit %d (scale 1/%d)" n (plural n) gc
             scale);
        let driver =
          oltp_driver ~scale ~cache_mb (fun c -> { c with Config.group_commit = gc; clients = n })
        in
        let sched = Driver.run_concurrent driver ~txns in
        Client_sched.flush sched;
        Experiment.verify "concurrency sweep" driver (Driver.db driver);
        {
          c_clients = n;
          c_group_commit = gc;
          c_stats = Client_sched.stats sched;
          c_digest = Client_sched.logical_digest (Driver.db driver);
        })
      coords
  in
  (* The determinism contract, enforced on every sweep: same seed ⇒ same
     committed state at any client count and any commit batching. *)
  digests_agree "concurrency sweep"
    (List.map
       (fun c -> (Printf.sprintf "%d clients/gc=%d" c.c_clients c.c_group_commit, c.c_digest))
       cells);
  cells

(* The columns every OLTP sweep table shares, from the cell's stats. *)
let oltp_columns stats =
  [
    ("txns", fun c -> Report.i (stats c).Client_sched.committed_txns);
    ("makespan (ms)", fun c -> Report.ms (stats c).Client_sched.makespan_ms);
    ("tput (txn/s)", fun c -> Printf.sprintf "%.0f" (stats c).Client_sched.throughput_tps);
    ("aborts", fun c -> Report.i (stats c).Client_sched.aborts);
  ]

let concurrency_table cells =
  let s c = c.c_stats in
  columns
    ~title:
      "Concurrency — simulated clients interleaving transactions on the virtual clock\n\
       (descriptors are drawn in ticket order and commits gated to ticket order, so\n\
       the final digest is identical in every row; group commit batches across\n\
       clients, trading commit latency for fewer log forces; percentiles are\n\
       histogram bucket upper bounds)"
    ([ ("clients", fun c -> Report.i c.c_clients); ("group_commit", fun c -> Report.i c.c_group_commit) ]
    @ oltp_columns s
    @ [
        ("abort %", fun c -> Printf.sprintf "%.1f" (100.0 *. (s c).Client_sched.abort_rate));
        ("wounds", fun c -> Report.i (s c).Client_sched.wounds);
        ("conflicts", fun c -> Report.i (s c).Client_sched.conflicts);
        ( "commit p50/p95 (µs)",
          fun c ->
            Printf.sprintf "%.0f / %.0f" (s c).Client_sched.commit_p50_us
              (s c).Client_sched.commit_p95_us );
        ("digest", fun c -> String.sub c.c_digest 0 12);
      ])
    cells

(* ---------- sharded data components ---------- *)

type sharding_crash = {
  sc_shard : int;  (* which shard was crashed *)
  sc_sibling_reads : int;  (* reads served by siblings while it was down *)
  sc_recover_ms : float;  (* virtual time for Db.recover_shard *)
}

type sharding_cell = {
  sh_shards : int;
  sh_clients : int;
  sh_stats : Client_sched.stats;
  sh_digest : string;
  sh_net_msgs : int;
  sh_crash : sharding_crash option;
}

let run_sharding ?(scale = 64) ?(cache_mb = 256) ?(shards = [ 1; 2; 4; 8 ])
    ?(clients = [ 4; 8 ]) ?(txns = 300) ?(net = false) ?(progress = no_progress)
    ?(domains = Config.default.Config.domains) () =
  let coords = List.concat_map (fun s -> List.map (fun c -> (s, c)) clients) shards in
  let cells =
    fan ~domains
      (fun (n_shards, n_clients) ->
        serial progress
          (Printf.sprintf "sharding: %d shard%s, %d client%s%s (scale 1/%d)" n_shards
             (plural n_shards) n_clients (plural n_clients)
             (if net then ", networked" else "")
             scale);
        let driver =
          oltp_driver ~scale ~cache_mb (fun c ->
              { c with Config.clients = n_clients; shards = n_shards; net })
        in
        let sched = Driver.run_concurrent driver ~txns in
        Client_sched.flush sched;
        let db = Driver.db driver in
        (* Snapshot before the availability scenario below: verify
           reads and the per-shard crash/recovery advance the virtual
           clock, and the makespan must cover the workload alone. *)
        let stats = Client_sched.stats sched in
        Experiment.verify "sharding sweep" driver db;
        let digest = Client_sched.logical_digest db in
        (* Availability scenario: crash the last shard on the live,
           quiesced engine, serve sibling reads while it is down,
           recover it alone, and require the state unperturbed. *)
        let crash =
          if n_shards <= 1 then None
          else begin
            let down = n_shards - 1 in
            let t0 = Db.now_ms db in
            Db.crash_shard db ~shard:down;
            let served = ref 0 in
            let rows = (Driver.spec driver).Workload.rows in
            for i = 0 to 49 do
              let key = (i * n_shards) mod rows in
              (* [key mod shards = 0], never the crashed stripe. *)
              if Option.is_some (Db.read db ~table:1 ~key) then incr served
            done;
            Db.recover_shard db ~shard:down;
            let recover_ms = Db.now_ms db -. t0 in
            digests_agree "sharding sweep: per-shard recovery"
              [
                (Printf.sprintf "%d shards before the crash" n_shards, digest);
                ("after recovering the shard", Client_sched.logical_digest db);
              ];
            Some { sc_shard = down; sc_sibling_reads = !served; sc_recover_ms = recover_ms }
          end
        in
        {
          sh_shards = n_shards;
          sh_clients = n_clients;
          sh_stats = stats;
          sh_digest = digest;
          sh_net_msgs = Deut_obs.Metrics.read_int (Engine.metrics (Db.engine db)) "net.messages";
          sh_crash = crash;
        })
      coords
  in
  (* Shard transparency, enforced on every sweep: same seed ⇒ identical
     committed state at any shard count, any client count, any transport. *)
  digests_agree "sharding sweep"
    (List.map
       (fun c -> (Printf.sprintf "%d shards/%d clients" c.sh_shards c.sh_clients, c.sh_digest))
       cells);
  cells

let sharding_table cells =
  let crash f c = match c.sh_crash with Some cr -> f cr | None -> "-" in
  columns
    ~title:
      "Sharded data components — one TC driving N DCs through the Dc_access\n\
       protocol (§4.1), key space striped [key mod shards], each shard with its\n\
       own store, cache and DC log (split layout); the digest is identical in\n\
       every row (shard transparency), and each multi-shard cell crashes one\n\
       shard on the live engine, serves sibling reads while it is down, and\n\
       recovers it alone from its DC log plus its stripe of the TC log"
    ([ ("shards", fun c -> Report.i c.sh_shards); ("clients", fun c -> Report.i c.sh_clients) ]
    @ oltp_columns (fun c -> c.sh_stats)
    @ [
        ("net msgs", fun c -> Report.i c.sh_net_msgs);
        ("crash: reads while down", crash (fun cr -> Report.i cr.sc_sibling_reads));
        ("recover shard (ms)", crash (fun cr -> Printf.sprintf "%.2f" cr.sc_recover_ms));
        ("digest", fun c -> String.sub c.sh_digest 0 12);
      ])
    cells

(* ---------- log archiving ---------- *)

module Logm = Deut_wal.Log_manager
module Arch = Deut_wal.Archive

type archiving_round = {
  ar_round : int;
  ar_logged_kb : float;
  ar_live_kb : float;
  ar_archive_kb : float;
  ar_segments : int;
}

type archiving_cell = {
  a_archive : bool;
  a_rounds : archiving_round list;
  a_digest : string;
  a_methods : (Recovery.method_ * Rs.t) list;
}

let run_archiving ?(scale = 64) ?(cache_mb = 256) ?(clients = 4) ?(rounds = 6)
    ?(txns_per_round = 100) ?(progress = no_progress) () =
  let cells =
    List.map
      (fun archive ->
        progress
          (Printf.sprintf "archiving: %s, %d rounds x %d txns, %d clients (scale 1/%d)"
             (if archive then "on" else "off")
             rounds txns_per_round clients scale);
        let driver =
          oltp_driver ~scale ~cache_mb (fun c ->
              { c with Config.clients; archive; archive_min_bytes = 0 })
        in
        let db = Driver.db driver in
        let log = (Db.engine db).Engine.log in
        let round_row i =
          let archive_bytes, segments =
            match Logm.archive log with
            | Some a -> (Arch.sealed_bytes a, Arch.segment_count a)
            | None -> (0, 0)
          in
          (* The durability contract, checked on every round of the long
             run: sealed coverage meets the live base exactly — no gap, no
             unarchived drop. *)
          (match Logm.archive log with
          | Some a when Arch.segment_count a > 0 ->
              if Arch.covered_upto a <> Logm.base_lsn log then
                failwith
                  (Printf.sprintf
                     "archiving sweep: coverage gap at round %d — sealed to %d, live base %d" i
                     (Arch.covered_upto a) (Logm.base_lsn log))
          | _ -> ());
          {
            ar_round = i;
            ar_logged_kb = float_of_int (Logm.end_lsn log) /. 1024.0;
            ar_live_kb = float_of_int (Logm.end_lsn log - Logm.base_lsn log) /. 1024.0;
            ar_archive_kb = float_of_int archive_bytes /. 1024.0;
            ar_segments = segments;
          }
        in
        let rows = ref [] in
        for i = 1 to rounds do
          let sched = Driver.run_concurrent driver ~txns:txns_per_round in
          Client_sched.flush sched;
          Driver.checkpoint driver;
          rows := round_row i :: !rows
        done;
        Experiment.verify "archiving sweep before the crash" driver db;
        let digest = Client_sched.logical_digest db in
        let image = Driver.crash driver in
        let methods =
          List.map
            (fun m ->
              let recovered, stats = Db.recover image m in
              Experiment.verify
                (Printf.sprintf "archiving sweep: %s from the %s log"
                   (Recovery.method_to_string m)
                   (if archive then "archived+truncated" else "compacted"))
                driver recovered;
              (m, stats))
            Recovery.all_methods
        in
        { a_archive = archive; a_rounds = List.rev !rows; a_digest = digest; a_methods = methods })
      [ false; true ]
  in
  digests_agree "archiving sweep"
    (List.map (fun c -> ((if c.a_archive then "archive on" else "archive off"), c.a_digest)) cells);
  (match List.find_opt (fun c -> c.a_archive) cells with
  | Some on ->
      let fin = List.nth on.a_rounds (List.length on.a_rounds - 1) in
      if fin.ar_segments = 0 then failwith "archiving sweep: no segment was ever sealed";
      if fin.ar_live_kb >= fin.ar_logged_kb then
        failwith
          (Printf.sprintf "archiving sweep: live log not bounded — %.1f KiB live of %.1f logged"
             fin.ar_live_kb fin.ar_logged_kb)
  | None -> ());
  cells

let archiving_table cells =
  let tag cell = if cell.a_archive then "on" else "off" in
  let growth =
    columns
      ~title:
        "Log archiving — the live log stays bounded as logged bytes grow\n\
         (each round: concurrent transactions, then checkpoint + archive cut;\n\
         sealed-segment coverage meets the live base on every round — the\n\
         durability contract of DESIGN.md §8; final digests match with\n\
         archiving on and off)"
      [
        ("archive", fun (cell, _) -> tag cell);
        ("round", fun (_, r) -> Report.i r.ar_round);
        ("logged KiB", fun (_, r) -> Report.f1 r.ar_logged_kb);
        ("live KiB", fun (_, r) -> Report.f1 r.ar_live_kb);
        ("archived KiB", fun (_, r) -> Report.f1 r.ar_archive_kb);
        ("segments", fun (_, r) -> Report.i r.ar_segments);
      ]
      (List.concat_map (fun cell -> List.map (fun r -> (cell, r)) cell.a_rounds) cells)
  in
  let restart =
    columns
      ~title:
        "Restart from the truncated log + archive vs the compacted log\n\
         (every recovery oracle-verified; archived pages are charged to the\n\
         archive device and counted as log pages read)"
      (("method", Recovery.method_to_string)
      :: List.concat_map
           (fun cell ->
             let stats m = List.assoc m cell.a_methods in
             [
               ("total ms (" ^ tag cell ^ ")", fun m -> Report.ms (Rs.total_ms (stats m)));
               ("log pages (" ^ tag cell ^ ")", fun m -> Report.i (stats m).Rs.log_pages_read);
             ])
           cells)
      (match cells with c :: _ -> List.map fst c.a_methods | [] -> [])
  in
  growth ^ "\n" ^ restart

(* ---------- prefetch tuning (trace-mined) ---------- *)

module Analysis = Deut_obs.Analysis
module Tuner = Deut_obs.Tuner

type tuning_cell = {
  t_cache_mb : int;
  t_method : Recovery.method_;
  t_outcomes : Tuner.outcome list;
  t_default : Tuner.outcome;
}

let candidate_config base (cand : Tuner.candidate) =
  let source =
    match Config.prefetch_source_of_string cand.Tuner.source with
    | Some s -> s
    | None -> invalid_arg ("run_tuning: unknown prefetch source " ^ cand.Tuner.source)
  in
  {
    base with
    Config.prefetch_window = cand.Tuner.window;
    prefetch_chunk = cand.Tuner.chunk;
    prefetch_lookahead = cand.Tuner.lookahead;
    prefetch_source = source;
  }

let run_tuning ?cache ?(scale = 64) ?(cache_sizes = [ 1024 ]) ?(methods = [ Recovery.Log2; Recovery.Sql2 ])
    ?(windows = [ 8; 16; 32; 64 ]) ?(chunks = [ 4; 8; 16; 32 ])
    ?(lookaheads = [ 128; 256; 512; 1024 ]) ?(sources = [ Config.Pf_list; Config.Dpt_order ])
    ?(progress = no_progress) () =
  List.concat_map
    (fun cache_mb ->
      let _, run, _ = crash ?cache ~scale ~progress "tuning" cache_mb in
      let base = image_config run in
      let default_cand =
        {
          Tuner.window = base.Config.prefetch_window;
          chunk = base.Config.prefetch_chunk;
          lookahead = base.Config.prefetch_lookahead;
          source = Config.prefetch_source_to_string base.Config.prefetch_source;
        }
      in
      List.map
        (fun method_ ->
          (* Only the dimension the method's prefetcher reads is swept:
             Log2's PF-driven prefetch ignores the lookahead, SQL2's
             log-driven prefetch ignores the source (Appendix A). *)
          let grid =
            List.concat_map
              (fun window ->
                List.concat_map
                  (fun chunk ->
                    match method_ with
                    | Recovery.Log2 ->
                        List.map
                          (fun source ->
                            {
                              Tuner.window;
                              chunk;
                              lookahead = default_cand.Tuner.lookahead;
                              source = Config.prefetch_source_to_string source;
                            })
                          sources
                    | _ ->
                        List.map
                          (fun lookahead ->
                            { Tuner.window; chunk; lookahead; source = default_cand.Tuner.source })
                          lookaheads)
                  chunks)
              windows
          in
          let grid = if List.mem default_cand grid then grid else default_cand :: grid in
          let outcomes =
            List.map
              (fun cand ->
                progress
                  (Printf.sprintf "tuning: %s %d MB %s"
                     (Recovery.method_to_string method_)
                     cache_mb
                     (Tuner.candidate_to_string cand));
                let config =
                  candidate_config
                    {
                      base with
                      Config.tracing = true;
                      trace_capacity = 1 lsl 20;
                      (* Tuning compares prefetch settings, so everything
                         else is pinned — including the env-defaulted
                         worker/client counts. *)
                      redo_workers = 1;
                      clients = 1;
                    }
                    cand
                in
                let meta =
                  [
                    ("method", Recovery.method_to_string method_);
                    ("cache_mb", string_of_int cache_mb);
                    ("candidate", Tuner.candidate_to_string cand);
                  ]
                in
                let _, stats, tr = Experiment.recover_traced ~config run method_ in
                { Tuner.cand; profile = Analysis.of_trace ~meta tr; redo_ms = Rs.redo_ms stats })
              grid
          in
          let t_default =
            match List.find_opt (fun o -> o.Tuner.cand = default_cand) outcomes with
            | Some o -> o
            | None -> List.hd outcomes
          in
          { t_cache_mb = cache_mb; t_method = method_; t_outcomes = outcomes; t_default })
        methods)
    cache_sizes

(* ---------- instant recovery: availability vs cache size ---------- *)

type availability_cell = {
  v_cache_mb : int;
  v_ttft_ms : float;
  v_drained_ms : float;
  v_log2_total_ms : float;
  v_speedup : float;
  v_pages_ondemand : int;
  v_pages_background : int;
  v_probe_reads : int;
}

let run_availability ?cache ?(scale = 64) ?(cache_sizes = paper_cache_sizes) ?(probes = 32)
    ?(progress = no_progress) ?(domains = Config.default.Config.domains) () =
  fan ~domains
    (fun cache_mb ->
      let _, run, _ = crash ?cache ~scale ~progress "availability" cache_mb in
      let recovered m =
        let db, stats = Experiment.recover_verified run m in
        (Client_sched.logical_digest db, stats)
      in
      (* Offline Log2 anchors both the time-to-full-recovery baseline and
         the determinism gate's reference digest. *)
      let digest2, s2 = recovered Recovery.Log2 in
      (* With the background redo forced to drain before the first client
         step — the [Db.recover] form — InstantLog2 must be byte-identical
         to Log2 at every cache size. *)
      let digesti, _ = recovered Recovery.InstantLog2 in
      (* Staged run: the engine serves probe reads from the moment it
         opens, interleaved with background drain steps on the virtual
         clock.  TTFT and drain time both come from this run's stats. *)
      let inst = Db.recover_instant run.Experiment.image in
      let rdb = Db.instant_db inst in
      let spec = Driver.spec run.Experiment.driver in
      let rng = Deut_sim.Rng.create ~seed:(spec.Workload.seed + 17) in
      let served = ref 0 in
      let draining = ref true in
      while !draining || !served < probes do
        if !served < probes then begin
          let table = 1 + Deut_sim.Rng.int rng spec.Workload.tables in
          ignore (Db.read rdb ~table ~key:(Deut_sim.Rng.int rng spec.Workload.rows));
          incr served
        end;
        if !draining then draining := Db.instant_step inst
      done;
      let si = Db.instant_finish inst in
      Experiment.verify (Printf.sprintf "availability %d MB: staged InstantLog2" cache_mb)
        run.Experiment.driver rdb;
      digests_agree "availability"
        [
          (Printf.sprintf "Log2 at %d MB" cache_mb, digest2);
          (Printf.sprintf "drained InstantLog2 at %d MB" cache_mb, digesti);
          (Printf.sprintf "staged InstantLog2 at %d MB" cache_mb, Client_sched.logical_digest rdb);
        ];
      let ttft = Rs.ttft_ms si in
      let drained = Rs.drained_ms si in
      {
        v_cache_mb = cache_mb;
        v_ttft_ms = ttft;
        v_drained_ms = drained;
        v_log2_total_ms = Rs.total_ms s2;
        v_speedup = (if ttft > 0.0 then drained /. ttft else 0.0);
        v_pages_ondemand = si.Rs.pages_ondemand;
        v_pages_background = si.Rs.pages_background;
        v_probe_reads = !served;
      })
    cache_sizes

let availability_table cells =
  columns
    ~title:
      "Instant recovery — time to first transaction vs time to full recovery\n\
       (InstantLog2 opens right after analysis + log scan — history\n\
        indexing, redo and loser rollback are all demand-driven — and redoes\n\
       pages on demand; speedup = drained/open; every cell's digest is checked\n\
       byte-identical to offline Log2 before timings are reported)"
    [
      ("Cache (MB)", fun c -> Report.i c.v_cache_mb);
      ("open at (ms)", fun c -> Report.ms c.v_ttft_ms);
      ("drained (ms)", fun c -> Report.ms c.v_drained_ms);
      ("Log2 total (ms)", fun c -> Report.ms c.v_log2_total_ms);
      ("speedup", fun c -> Printf.sprintf "%.1fx" c.v_speedup);
      ("pages on-demand", fun c -> Report.i c.v_pages_ondemand);
      ("pages background", fun c -> Report.i c.v_pages_background);
      ("probe reads", fun c -> Report.i c.v_probe_reads);
    ]
    cells

let tuning_table cells =
  let buf = Buffer.create 4096 in
  List.iter
    (fun cell ->
      let default = cell.t_default.Tuner.cand in
      Buffer.add_string buf
        (Printf.sprintf "=== prefetch tuning: %s, cache %d MB ===\n"
           (Recovery.method_to_string cell.t_method)
           cell.t_cache_mb);
      Buffer.add_string buf (Tuner.table ~default cell.t_outcomes);
      (match Tuner.best cell.t_outcomes with
      | Some best ->
          let d = cell.t_default in
          Buffer.add_string buf
            (Printf.sprintf "recommendation: %s — redo %.3f ms vs default %.3f ms (%+.1f%%)\n"
               (Tuner.candidate_to_string best.Tuner.cand)
               best.Tuner.redo_ms d.Tuner.redo_ms
               (if d.Tuner.redo_ms > 0.0 then
                  100.0 *. (best.Tuner.redo_ms -. d.Tuner.redo_ms) /. d.Tuner.redo_ms
                else 0.0))
      | None -> ());
      Buffer.add_char buf '\n')
    cells;
  Buffer.contents buf
