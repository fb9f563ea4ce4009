module Config = Deut_core.Config
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
  (* Phase 1: one build per cache size, fanned across domains. *)
  let builds =
    fan ~domains
      (fun cache_mb ->
        serial progress (Printf.sprintf "fig2: cache %d MB (scale 1/%d)" cache_mb scale);
        let setup = Experiment.paper_setup ~scale ~cache_mb () in
        let t0 = Unix.gettimeofday () in
        let run = Experiment.build ?cache setup in
        (cache_mb, setup, run, Unix.gettimeofday () -. t0))
      cache_sizes
  in
  (* Phase 2: every (cache size, method) recovery is independent — the
     crash image is copied before recovery mutates anything and the oracle
     is sealed — so the full grid fans out flat. *)
  let tasks =
    List.concat_map (fun (cache_mb, _, run, _) -> List.map (fun m -> (cache_mb, run, m)) methods)
      builds
  in
  let timed =
    fan ~domains
      (fun (cache_mb, run, m) ->
        let t0 = Unix.gettimeofday () in
        let recovered, _engine, stats = Experiment.recover_verified run m in
        let wall = Unix.gettimeofday () -. t0 in
        let digest =
          (Experiment.store_digest recovered, Client_sched.logical_digest recovered)
        in
        (cache_mb, m, stats, wall, digest))
      tasks
  in
  List.map
    (fun (cache_mb, setup, run, build_wall_s) ->
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
        pool_pages = setup.Experiment.config.Config.pool_pages;
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

let method_columns cells =
  match cells with [] -> [] | cell :: _ -> List.map fst cell.methods

let fig2a cells =
  let methods = method_columns cells in
  let header = "Cache (MB)" :: List.map Recovery.method_to_string methods in
  let rows =
    List.map
      (fun cell ->
        string_of_int cell.cache_mb
        :: List.map (fun m -> Report.ms (redo_ms_of cell m)) methods)
      cells
  in
  Report.table
    ~title:
      "Figure 2(a) — redo recovery time (simulated ms) vs cache size\n\
       (paper: Log1~SQL1; prefetch helps more at larger caches; only Log0 is\n\
       insensitive to cache growth)"
    ~header ~rows ()

let phase_table cells =
  let methods = method_columns cells in
  let header =
    [ "Cache (MB)"; "Method"; "analysis"; "redo"; "undo"; "total (ms)" ]
  in
  let rows =
    List.concat_map
      (fun cell ->
        List.map
          (fun m ->
            let s = stats_of cell m in
            [
              string_of_int cell.cache_mb;
              Recovery.method_to_string m;
              Report.ms (Rs.analysis_ms s);
              Report.ms (Rs.redo_ms s);
              Report.ms (Rs.undo_ms s);
              Report.ms (Rs.total_ms s);
            ])
          methods)
      cells
  in
  Report.table
    ~title:
      "Per-phase breakdown — simulated ms spent in analysis / redo / undo\n\
       (redo dominates everywhere; analysis differences separate the DPT\n\
       construction costs of §3 vs §4)"
    ~header ~rows ()

let fig2b cells =
  let header = [ "Cache (MB)"; "dirty % of cache"; "DPT size"; "cache pages"; "db pages" ] in
  let rows =
    List.map
      (fun cell ->
        let dpt =
          match List.find_opt (fun (m, _) -> m = Recovery.Log1) cell.methods with
          | Some (_, s) -> s.Rs.dpt_size
          | None -> 0
        in
        [
          string_of_int cell.cache_mb;
          Report.pct cell.dirty_pct;
          string_of_int dpt;
          string_of_int cell.pool_pages;
          string_of_int cell.db_pages;
        ])
      cells
  in
  Report.table
    ~title:
      "Figure 2(b) — dirty part of the cache at crash (%)\n\
       (paper: ~30% at 64MB falling to ~10% at 2048MB)"
    ~header ~rows ()

let fig2c cells =
  let header = [ "Cache (MB)"; "Δ records"; "BW records"; "Δ/BW" ] in
  let rows =
    List.map
      (fun cell ->
        [
          string_of_int cell.cache_mb;
          string_of_int cell.deltas_seen;
          string_of_int cell.bws_seen;
          (if cell.bws_seen = 0 then "-"
           else Printf.sprintf "%.2f" (float_of_int cell.deltas_seen /. float_of_int cell.bws_seen));
        ])
      cells
  in
  Report.table
    ~title:
      "Figure 2(c) — Δ- and BW-log records seen by the analysis pass\n\
       (paper: Δ ≤ 1.5 × BW up to 1024MB; some Δ records carry only dirty pages)"
    ~header ~rows ()

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
  let header =
    [
      "Cache (MB)";
      "Log0 pred";
      "Log0 meas";
      "SQL1 pred";
      "SQL1 meas";
      "Log1 pred";
      "Log1 meas";
    ]
  in
  let rows =
    List.map
      (fun c ->
        let log0 = stats_of c Recovery.Log0 in
        let sql1 = stats_of c Recovery.Sql1 in
        let log1 = stats_of c Recovery.Log1 in
        [
          string_of_int c.cache_mb;
          (* Eq (1): every redo log record costs a page fetch. *)
          string_of_int log0.Rs.redo_candidates;
          string_of_int log0.Rs.data_page_fetches;
          (* Eq (2): the DPT size. *)
          string_of_int sql1.Rs.dpt_size;
          string_of_int sql1.Rs.data_page_fetches;
          (* Eq (3): DPT size plus the log tail. *)
          string_of_int (log1.Rs.dpt_size + log1.Rs.tail_records);
          string_of_int log1.Rs.data_page_fetches;
        ])
      cells
  in
  Report.table
    ~title:
      "Appendix B — cost model, predicted vs measured data-page fetches\n\
       Eq(1) COST(Log0) ~ #log records;  Eq(2) COST(SQL1) ~ DPT;  Eq(3)\n\
       COST(Log1) ~ DPT + tail.  (Predictions ignore cache hits on repeated\n\
       pages, so measured <= predicted except under page swaps, as in the\n\
       paper.)"
    ~header ~rows ()

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
  let methods = match cells with [] -> [] | c :: _ -> List.map fst c.methods3 in
  let header = "ckpt interval" :: List.map Recovery.method_to_string methods in
  let rows =
    List.map
      (fun c ->
        Printf.sprintf "%dx" c.multiplier
        :: List.map (fun m -> Report.ms (Rs.redo_ms (List.assoc m c.methods3))) methods)
      cells
  in
  Report.table
    ~title:
      "Figure 3 (Appendix C) — redo time (simulated ms) vs checkpoint interval\n\
       (paper: Log0 grows linearly; Log1/SQL1 roughly double at 5x; Log2/SQL2\n\
       grow only ~1.2x per step)"
    ~header ~rows ()

type appd_row = {
  label : string;
  dpt_size : int;
  redo_ms : float;
  data_fetches : int;
  delta_records : int;
  delta_kb : float;
}

let run_appd ?cache ?(scale = 64) ?(cache_mb = 512) ?(progress = no_progress) () =
  let logical_variant label dpt_mode =
    progress (Printf.sprintf "appd: %s (scale 1/%d)" label scale);
    let setup = Experiment.paper_setup ~scale ~cache_mb ~dpt_mode () in
    let run = Experiment.build ?cache setup in
    let stats = Experiment.run_method run Recovery.Log1 in
    {
      label;
      dpt_size = stats.Rs.dpt_size;
      redo_ms = Rs.redo_ms stats;
      data_fetches = stats.Rs.data_page_fetches;
      delta_records = run.Experiment.deltas_total;
      delta_kb = float_of_int run.Experiment.delta_bytes /. 1024.0;
    }
  in
  let aries () =
    progress (Printf.sprintf "appd: aries-checkpointing (scale 1/%d)" scale);
    let setup =
      Experiment.paper_setup ~scale ~cache_mb ~checkpoint_mode:Config.Aries_fuzzy ()
    in
    let run = Experiment.build ?cache setup in
    let stats = Experiment.run_method run Recovery.Aries_ckpt in
    {
      label = "ARIES-ckpt (physiological, §3.1)";
      dpt_size = stats.Rs.dpt_size;
      redo_ms = Rs.redo_ms stats;
      data_fetches = stats.Rs.data_page_fetches;
      delta_records = run.Experiment.deltas_total;
      delta_kb = float_of_int run.Experiment.delta_bytes /. 1024.0;
    }
  in
  [
    logical_variant "standard Δ (§4.1)" Config.Standard;
    logical_variant "perfect DPT (D.1: +DirtyLSNs)" Config.Perfect;
    logical_variant "reduced logging (D.2: -FW/-FirstDirty)" Config.Reduced;
    aries ();
  ]

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
  let header =
    [
      "layout";
      "method";
      "analysis (ms)";
      "redo (ms)";
      "log pages read";
      "TC log KiB";
      "DC log KiB";
    ]
  in
  let body =
    List.map
      (fun r ->
        [
          r.layout;
          Recovery.method_to_string r.smethod;
          Report.ms r.s_analysis_ms;
          Report.ms r.s_redo_ms;
          string_of_int r.s_log_pages;
          Report.f1 r.tc_log_kb;
          Report.f1 r.dc_log_kb;
        ])
      rows
  in
  Report.table
    ~title:
      "Split-log layout (§4.2) vs the paper's integrated prototype (§5.1)\n\
       With its own log, the DC redo/analysis pass scans only SMO and Δ\n\
       records — \"a much smaller log than that needed for the analysis pass\n\
       with integrated recovery\"."
    ~header ~rows:body ()

let appd rows =
  let header =
    [ "variant"; "DPT size"; "Log1 redo (ms)"; "data fetches"; "Δ records"; "Δ bytes (KiB)" ]
  in
  let body =
    List.map
      (fun r ->
        [
          r.label;
          string_of_int r.dpt_size;
          Report.ms r.redo_ms;
          string_of_int r.data_fetches;
          string_of_int r.delta_records;
          Report.f1 r.delta_kb;
        ])
      rows
  in
  Report.table
    ~title:
      "Appendix D — the DC-logging spectrum (512MB-equivalent cache)\n\
       More DC logging → more accurate DPT → faster redo; Reduced logs least\n\
       but keeps the most pages; Perfect matches SQL Server's DPT exactly."
    ~header ~rows:body ()

(* ---------- parallel redo sweep ---------- *)

module Es = Deut_core.Engine_stats

type workers_cell = {
  w_cache_mb : int;
  w_method : Recovery.method_;
  w_count : int;
  w_stats : Rs.t;
  w_engine : Es.t;
}

let run_workers ?cache ?(scale = 64) ?(cache_sizes = [ 64; 512 ]) ?(workers = [ 1; 2; 4; 8 ])
    ?(methods = Recovery.all_methods) ?(progress = no_progress)
    ?(domains = Config.default.Config.domains) () =
  let builds =
    fan ~domains
      (fun cache_mb ->
        serial progress (Printf.sprintf "workers: cache %d MB (scale 1/%d)" cache_mb scale);
        let setup = Experiment.paper_setup ~scale ~cache_mb () in
        (cache_mb, Experiment.build ?cache setup))
      cache_sizes
  in
  let tasks =
    List.concat_map
      (fun (cache_mb, run) ->
        List.concat_map (fun m -> List.map (fun w -> (cache_mb, run, m, w)) workers) methods)
      builds
  in
  fan ~domains
    (fun (cache_mb, run, m, w) ->
      let _db, engine, stats = Experiment.recover_verified ~workers:w run m in
      { w_cache_mb = cache_mb; w_method = m; w_count = w; w_stats = stats; w_engine = engine })
    tasks

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
  let header =
    [
      "Cache (MB)";
      "Method";
      "workers";
      "redo (ms)";
      "speedup";
      "stalls";
      "stall p50/p95 (µs)";
      "io p50/p95 (µs)";
    ]
  in
  let rows =
    List.map
      (fun cell ->
        let e = cell.w_engine in
        [
          string_of_int cell.w_cache_mb;
          Recovery.method_to_string cell.w_method;
          string_of_int cell.w_count;
          Report.ms (Rs.redo_ms cell.w_stats);
          Printf.sprintf "%.2fx" (base cell /. Rs.redo_ms cell.w_stats);
          string_of_int cell.w_stats.Rs.stalls;
          Printf.sprintf "%.0f / %.0f" e.Es.stall_wait.Es.p50_us e.Es.stall_wait.Es.p95_us;
          Printf.sprintf "%.0f / %.0f" e.Es.data_io.Es.p50_us e.Es.data_io.Es.p95_us;
        ])
      cells
  in
  Report.table
    ~title:
      "Parallel redo — simulated workers replaying the partitioned redo range\n\
       (application stays in log order, so recovered state and apply counts are\n\
       identical at every worker count; workers overlap CPU and fetch stalls on\n\
       the shared disk, so the speedup ceiling is set by how IO-bound redo is;\n\
       percentiles are histogram bucket upper bounds)"
    ~header ~rows ()

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
              (Printf.sprintf "concurrency: %d client%s, group_commit %d (scale 1/%d)" n
                 (if n = 1 then "" else "s")
                 gc scale);
            let setup = Experiment.paper_setup ~scale ~cache_mb () in
            let config =
              {
                setup.Experiment.config with
                Config.locking = true;
                group_commit = gc;
                clients = n;
              }
            in
            (* A smaller table than the crash experiments (the load dominates
               otherwise) and a seed shared by every cell: the committed
               stream — hence the final digest — must not depend on the
               sweep coordinates. *)
            let spec =
              {
                setup.Experiment.spec with
                Workload.rows = Stdlib.max 2_000 (setup.Experiment.spec.Workload.rows / 16);
                seed = 1903;
              }
            in
            let driver = Driver.create ~config spec in
            let sched = Driver.run_concurrent driver ~txns in
            Client_sched.flush sched;
            (match Driver.verify_recovered driver (Driver.db driver) with
            | Ok () -> ()
            | Error msg -> failwith ("concurrency sweep: oracle mismatch: " ^ msg));
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
  (match cells with
  | [] -> ()
  | first :: rest ->
      List.iter
        (fun c ->
          if c.c_digest <> first.c_digest then
            failwith
              (Printf.sprintf
                 "concurrency sweep: digest diverged — %d clients/gc=%d gave %s, %d clients/gc=%d gave %s"
                 first.c_clients first.c_group_commit first.c_digest c.c_clients
                 c.c_group_commit c.c_digest))
        rest);
  cells

let concurrency_table cells =
  let header =
    [
      "clients";
      "group_commit";
      "txns";
      "makespan (ms)";
      "tput (txn/s)";
      "aborts";
      "abort %";
      "wounds";
      "conflicts";
      "commit p50/p95 (µs)";
      "digest";
    ]
  in
  let rows =
    List.map
      (fun cell ->
        let s = cell.c_stats in
        [
          string_of_int cell.c_clients;
          string_of_int cell.c_group_commit;
          string_of_int s.Client_sched.committed_txns;
          Report.ms s.Client_sched.makespan_ms;
          Printf.sprintf "%.0f" s.Client_sched.throughput_tps;
          string_of_int s.Client_sched.aborts;
          Printf.sprintf "%.1f" (100.0 *. s.Client_sched.abort_rate);
          string_of_int s.Client_sched.wounds;
          string_of_int s.Client_sched.conflicts;
          Printf.sprintf "%.0f / %.0f" s.Client_sched.commit_p50_us s.Client_sched.commit_p95_us;
          String.sub cell.c_digest 0 12;
        ])
      cells
  in
  Report.table
    ~title:
      "Concurrency — simulated clients interleaving transactions on the virtual clock\n\
       (descriptors are drawn in ticket order and commits gated to ticket order, so\n\
       the final digest is identical in every row; group commit batches across\n\
       clients, trading commit latency for fewer log forces; percentiles are\n\
       histogram bucket upper bounds)"
    ~header ~rows ()

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
  let coords =
    List.concat_map (fun s -> List.map (fun c -> (s, c)) clients) shards
  in
  let cells =
    fan ~domains
      (fun (n_shards, n_clients) ->
            serial progress
              (Printf.sprintf "sharding: %d shard%s, %d client%s%s (scale 1/%d)" n_shards
                 (if n_shards = 1 then "" else "s")
                 n_clients
                 (if n_clients = 1 then "" else "s")
                 (if net then ", networked" else "")
                 scale);
            let setup = Experiment.paper_setup ~scale ~cache_mb () in
            let config =
              {
                setup.Experiment.config with
                Config.locking = true;
                clients = n_clients;
                shards = n_shards;
                net;
              }
            in
            (* Same sizing and seed discipline as the concurrency sweep:
               the committed stream must not depend on the coordinates. *)
            let spec =
              {
                setup.Experiment.spec with
                Workload.rows = Stdlib.max 2_000 (setup.Experiment.spec.Workload.rows / 16);
                seed = 1903;
              }
            in
            let driver = Driver.create ~config spec in
            let sched = Driver.run_concurrent driver ~txns in
            Client_sched.flush sched;
            let db = Driver.db driver in
            (* Snapshot before the availability scenario below: verify
               reads and the per-shard crash/recovery advance the virtual
               clock, and the makespan must cover the workload alone. *)
            let stats = Client_sched.stats sched in
            (match Driver.verify_recovered driver db with
            | Ok () -> ()
            | Error msg -> failwith ("sharding sweep: oracle mismatch: " ^ msg));
            let digest = Client_sched.logical_digest db in
            (* Availability scenario: crash the last shard on the live,
               quiesced engine, serve sibling reads while it is down,
               recover it alone, and require the state unperturbed. *)
            let crash =
              if n_shards <= 1 then None
              else begin
                let down = n_shards - 1 in
                let t0 = Deut_core.Db.now_ms db in
                Deut_core.Db.crash_shard db ~shard:down;
                let served = ref 0 in
                let rows = spec.Workload.rows in
                for i = 0 to 49 do
                  let key = (i * n_shards) mod rows in
                  (* [key mod shards = 0], never the crashed stripe. *)
                  if Option.is_some (Deut_core.Db.read db ~table:1 ~key) then incr served
                done;
                Deut_core.Db.recover_shard db ~shard:down;
                let recover_ms = Deut_core.Db.now_ms db -. t0 in
                let digest' = Client_sched.logical_digest db in
                if digest' <> digest then
                  failwith
                    (Printf.sprintf
                       "sharding sweep: per-shard recovery perturbed state at %d shards — %s vs %s"
                       n_shards digest digest');
                Some { sc_shard = down; sc_sibling_reads = !served; sc_recover_ms = recover_ms }
              end
            in
            let net_msgs =
              Deut_obs.Metrics.read_int
                (Deut_core.Engine.metrics (Deut_core.Db.engine db))
                "net.messages"
            in
            {
              sh_shards = n_shards;
              sh_clients = n_clients;
              sh_stats = stats;
              sh_digest = digest;
              sh_net_msgs = net_msgs;
              sh_crash = crash;
            })
      coords
  in
  (* Shard transparency, enforced on every sweep: same seed ⇒ identical
     committed state at any shard count, any client count, any transport. *)
  (match cells with
  | [] -> ()
  | first :: rest ->
      List.iter
        (fun c ->
          if c.sh_digest <> first.sh_digest then
            failwith
              (Printf.sprintf
                 "sharding sweep: digest diverged — %d shards/%d clients gave %s, %d shards/%d clients gave %s"
                 first.sh_shards first.sh_clients first.sh_digest c.sh_shards c.sh_clients
                 c.sh_digest))
        rest);
  cells

let sharding_table cells =
  let header =
    [
      "shards";
      "clients";
      "txns";
      "makespan (ms)";
      "tput (txn/s)";
      "aborts";
      "net msgs";
      "crash: reads while down";
      "recover shard (ms)";
      "digest";
    ]
  in
  let rows =
    List.map
      (fun cell ->
        let s = cell.sh_stats in
        [
          string_of_int cell.sh_shards;
          string_of_int cell.sh_clients;
          string_of_int s.Client_sched.committed_txns;
          Report.ms s.Client_sched.makespan_ms;
          Printf.sprintf "%.0f" s.Client_sched.throughput_tps;
          string_of_int s.Client_sched.aborts;
          string_of_int cell.sh_net_msgs;
          (match cell.sh_crash with
          | Some c -> string_of_int c.sc_sibling_reads
          | None -> "-");
          (match cell.sh_crash with
          | Some c -> Printf.sprintf "%.2f" c.sc_recover_ms
          | None -> "-");
          String.sub cell.sh_digest 0 12;
        ])
      cells
  in
  Report.table
    ~title:
      "Sharded data components — one TC driving N DCs through the Dc_access\n\
       protocol (§4.1), key space striped [key mod shards], each shard with its\n\
       own store, cache and DC log (split layout); the digest is identical in\n\
       every row (shard transparency), and each multi-shard cell crashes one\n\
       shard on the live engine, serves sibling reads while it is down, and\n\
       recovers it alone from its DC log plus its stripe of the TC log"
    ~header ~rows ()

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
  let module Db = Deut_core.Db in
  let module Engine = Deut_core.Engine in
  let cells =
    List.map
      (fun archive ->
        progress
          (Printf.sprintf "archiving: %s, %d rounds x %d txns, %d clients (scale 1/%d)"
             (if archive then "on" else "off")
             rounds txns_per_round clients scale);
        let setup = Experiment.paper_setup ~scale ~cache_mb () in
        let config =
          {
            setup.Experiment.config with
            Config.locking = true;
            clients;
            archive;
            archive_min_bytes = 0;
          }
        in
        (* Same sizing and seed discipline as the concurrency sweep: the
           committed stream must not depend on whether archiving runs. *)
        let spec =
          {
            setup.Experiment.spec with
            Workload.rows = Stdlib.max 2_000 (setup.Experiment.spec.Workload.rows / 16);
            seed = 1903;
          }
        in
        let driver = Driver.create ~config spec in
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
        (match Driver.verify_recovered driver db with
        | Ok () -> ()
        | Error msg -> failwith ("archiving sweep: oracle mismatch before crash: " ^ msg));
        let digest = Client_sched.logical_digest db in
        let image = Driver.crash driver in
        let methods =
          List.map
            (fun m ->
              let recovered, stats = Db.recover image m in
              (match Driver.verify_recovered driver recovered with
              | Ok () -> ()
              | Error msg ->
                  failwith
                    (Printf.sprintf
                       "archiving sweep: %s recovered wrong state from the %s log: %s"
                       (Recovery.method_to_string m)
                       (if archive then "archived+truncated" else "compacted")
                       msg));
              (m, stats))
            Recovery.all_methods
        in
        { a_archive = archive; a_rounds = List.rev !rows; a_digest = digest; a_methods = methods })
      [ false; true ]
  in
  (match cells with
  | [ off; on ] ->
      if off.a_digest <> on.a_digest then
        failwith
          (Printf.sprintf "archiving sweep: digest diverged — archive off %s vs on %s"
             off.a_digest on.a_digest);
      let last c = List.nth c.a_rounds (List.length c.a_rounds - 1) in
      let fin = last on in
      if fin.ar_segments = 0 then failwith "archiving sweep: no segment was ever sealed";
      if fin.ar_live_kb >= fin.ar_logged_kb then
        failwith
          (Printf.sprintf "archiving sweep: live log not bounded — %.1f KiB live of %.1f logged"
             fin.ar_live_kb fin.ar_logged_kb)
  | _ -> ());
  cells

let archiving_table cells =
  let header =
    [ "archive"; "round"; "logged KiB"; "live KiB"; "archived KiB"; "segments" ]
  in
  let rows =
    List.concat_map
      (fun cell ->
        List.map
          (fun r ->
            [
              (if cell.a_archive then "on" else "off");
              string_of_int r.ar_round;
              Report.f1 r.ar_logged_kb;
              Report.f1 r.ar_live_kb;
              Report.f1 r.ar_archive_kb;
              string_of_int r.ar_segments;
            ])
          cell.a_rounds)
      cells
  in
  let growth = Report.table
    ~title:
      "Log archiving — the live log stays bounded as logged bytes grow\n\
       (each round: concurrent transactions, then checkpoint + archive cut;\n\
       sealed-segment coverage meets the live base on every round — the\n\
       durability contract of DESIGN.md §8; final digests match with\n\
       archiving on and off)"
    ~header ~rows ()
  in
  let methods = match cells with c :: _ -> List.map fst c.a_methods | [] -> [] in
  let rheader =
    "method"
    :: List.concat_map
         (fun cell ->
           let tag = if cell.a_archive then "on" else "off" in
           [ "total ms (" ^ tag ^ ")"; "log pages (" ^ tag ^ ")" ])
         cells
  in
  let rrows =
    List.map
      (fun m ->
        Recovery.method_to_string m
        :: List.concat_map
             (fun cell ->
               let s = List.assoc m cell.a_methods in
               [ Report.ms (Rs.total_ms s); string_of_int s.Rs.log_pages_read ])
             cells)
      methods
  in
  growth
  ^ "\n"
  ^ Report.table
      ~title:
        "Restart from the truncated log + archive vs the compacted log\n\
         (every recovery oracle-verified; archived pages are charged to the\n\
         archive device and counted as log pages read)"
      ~header:rheader ~rows:rrows ()

(* ---------- prefetch tuning (trace-mined) ---------- *)

module Analysis = Deut_obs.Analysis
module Tuner = Deut_obs.Tuner
module Db = Deut_core.Db
module Engine = Deut_core.Engine
module Trace = Deut_obs.Trace

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

(* One traced, oracle-verified recovery; fails loudly rather than profiling
   a truncated trace or a wrong recovery. *)
let profiled_recovery run method_ config ~meta =
  let db, stats = Db.recover ~config run.Experiment.image method_ in
  (match Driver.verify_recovered run.Experiment.driver db with
  | Ok () -> ()
  | Error msg ->
      failwith
        (Printf.sprintf "tuning recovery with %s produced wrong state: %s"
           (Recovery.method_to_string method_) msg));
  let tr =
    match Engine.trace (Db.engine db) with
    | Some tr -> tr
    | None -> failwith "run_tuning: tracing was not enabled"
  in
  if Trace.dropped tr > 0 then
    failwith
      (Printf.sprintf "run_tuning: trace ring overflowed; trace_capacity of %d would suffice"
         (Trace.emitted tr));
  (Analysis.of_trace ~meta tr, stats)

let run_tuning ?cache ?(scale = 64) ?(cache_sizes = [ 1024 ]) ?(methods = [ Recovery.Log2; Recovery.Sql2 ])
    ?(windows = [ 8; 16; 32; 64 ]) ?(chunks = [ 4; 8; 16; 32 ])
    ?(lookaheads = [ 128; 256; 512; 1024 ]) ?(sources = [ Config.Pf_list; Config.Dpt_order ])
    ?(progress = no_progress) () =
  List.concat_map
    (fun cache_mb ->
      progress (Printf.sprintf "tuning: cache %d MB (scale 1/%d)" cache_mb scale);
      let setup = Experiment.paper_setup ~scale ~cache_mb () in
      let run = Experiment.build ?cache setup in
      let base = setup.Experiment.config in
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
            match method_ with
            | Recovery.Log2 ->
                List.concat_map
                  (fun window ->
                    List.concat_map
                      (fun chunk ->
                        List.map
                          (fun source ->
                            {
                              Tuner.window;
                              chunk;
                              lookahead = default_cand.Tuner.lookahead;
                              source = Config.prefetch_source_to_string source;
                            })
                          sources)
                      chunks)
                  windows
            | _ ->
                List.concat_map
                  (fun window ->
                    List.concat_map
                      (fun chunk ->
                        List.map
                          (fun lookahead ->
                            {
                              Tuner.window;
                              chunk;
                              lookahead;
                              source = default_cand.Tuner.source;
                            })
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
                let profile, stats = profiled_recovery run method_ config ~meta in
                { Tuner.cand; profile; redo_ms = Rs.redo_ms stats })
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
      serial progress (Printf.sprintf "availability: cache %d MB (scale 1/%d)" cache_mb scale);
      let setup = Experiment.paper_setup ~scale ~cache_mb () in
      let run = Experiment.build ?cache setup in
      let image = run.Experiment.image in
      let verify what db =
        match Driver.verify_recovered run.Experiment.driver db with
        | Ok () -> ()
        | Error msg ->
            failwith (Printf.sprintf "availability %d MB: %s: %s" cache_mb what msg)
      in
      (* Offline Log2 anchors both the time-to-full-recovery baseline and
         the determinism gate's reference digest. *)
      let db2, s2 = Db.recover image Recovery.Log2 in
      verify "Log2 baseline" db2;
      let digest2 = Client_sched.logical_digest db2 in
      (* Determinism gate: with the background redo forced to drain before
         the first client step — the [Db.recover] form — InstantLog2 must
         be byte-identical to Log2 at every cache size. *)
      let dbi, _ = Db.recover image Recovery.InstantLog2 in
      verify "drained InstantLog2" dbi;
      let digesti = Client_sched.logical_digest dbi in
      if digesti <> digest2 then
        failwith
          (Printf.sprintf
             "availability: InstantLog2 digest diverged from Log2 at %d MB — %s vs %s"
             cache_mb digesti digest2);
      (* Staged run: the engine serves probe reads from the moment it
         opens, interleaved with background drain steps on the virtual
         clock.  TTFT and drain time both come from this run's stats. *)
      let inst = Db.recover_instant image in
      let rdb = Db.instant_db inst in
      let spec = setup.Experiment.spec in
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
      verify "staged InstantLog2" rdb;
      if Client_sched.logical_digest rdb <> digest2 then
        failwith
          (Printf.sprintf "availability: staged InstantLog2 digest diverged from Log2 at %d MB"
             cache_mb);
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
  let header =
    [
      "Cache (MB)";
      "open at (ms)";
      "drained (ms)";
      "Log2 total (ms)";
      "speedup";
      "pages on-demand";
      "pages background";
      "probe reads";
    ]
  in
  let rows =
    List.map
      (fun c ->
        [
          string_of_int c.v_cache_mb;
          Report.ms c.v_ttft_ms;
          Report.ms c.v_drained_ms;
          Report.ms c.v_log2_total_ms;
          Printf.sprintf "%.1fx" c.v_speedup;
          string_of_int c.v_pages_ondemand;
          string_of_int c.v_pages_background;
          string_of_int c.v_probe_reads;
        ])
      cells
  in
  Report.table
    ~title:
      "Instant recovery — time to first transaction vs time to full recovery\n\
       (InstantLog2 opens right after analysis + log scan — history\n\
        indexing, redo and loser rollback are all demand-driven — and redoes\n\
       pages on demand; speedup = drained/open; every cell's digest is checked\n\
       byte-identical to offline Log2 before timings are reported)"
    ~header ~rows ()

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
