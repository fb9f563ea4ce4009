module Config = Deut_core.Config
module Db = Deut_core.Db
module Engine = Deut_core.Engine
module Recovery = Deut_core.Recovery
module Rs = Deut_core.Recovery_stats
module Json = Deut_obs.Json

type ctx = {
  config : Config.t;
  scale : int;
  cache : Experiment.build_cache option;
  methods : Recovery.method_ list option;
  progress : string -> unit;
}

let methods_or c default = Option.value c.methods ~default

(* The sweeps below evaluate independent cells — separate engines sharing
   nothing but the build cache (itself a monitor) — so with domains > 1
   they fan cells across real OS-level domains via {!Deut_sim.Domain_pool}.
   Results come back in input order, and each cell's simulated numbers are
   byte-identical to a sequential run (the domain count never reaches a
   recovery), so harness parallelism buys wall clock only.  Progress lines are serialised so concurrent cells cannot
   interleave output. *)
let fan c f items =
  Deut_sim.Domain_pool.map (Deut_sim.Domain_pool.create ~domains:c.config.Config.domains) f items

let progress_lock = Mutex.create ()

let serial c msg =
  Mutex.lock progress_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock progress_lock) (fun () -> c.progress msg)

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
let oltp_driver c ~cache_mb tweak =
  let setup = Experiment.paper_setup ~config:c.config ~scale:c.scale ~cache_mb () in
  let spec = setup.Experiment.spec in
  Driver.create
    ~config:(tweak { setup.Experiment.config with Config.locking = true })
    { spec with Workload.rows = Stdlib.max 2_000 (spec.Workload.rows / 16); seed = 1903 }

let plural n = if n = 1 then "" else "s"

(* The paper crash at [cache_mb]: (cache_mb, run, real seconds the build
   took). *)
let crash c sweep cache_mb =
  serial c (Printf.sprintf "%s: cache %d MB (scale 1/%d)" sweep cache_mb c.scale);
  let t0 = Unix.gettimeofday () in
  let run =
    Experiment.build ?cache:c.cache (Experiment.paper_setup ~config:c.config ~scale:c.scale ~cache_mb ())
  in
  (cache_mb, run, Unix.gettimeofday () -. t0)

(* Every (crash, task) recovery is independent — the crash image is copied
   before recovery mutates anything and the oracle is sealed — so the full
   grid fans out flat. *)
let grid c crashes tasks f =
  fan c
    (fun (cache_mb, run, task) -> f cache_mb run task)
    (List.concat_map (fun (cache_mb, run, _) -> List.map (fun t -> (cache_mb, run, t)) tasks) crashes)

let image_config run = run.Experiment.image.Deut_core.Crash_image.config

(* ---------- the registry ---------- *)

type param = { flag : string; doc : string; full : int list; quick : int list; single : bool }
type output = { tables : (string * string) list; json : Json.t }

type sweep = {
  name : string;
  command : string;
  doc : string;
  params : param list;
  run : ctx -> (string * int list) list -> output;
}

let list flag ~full ~quick doc : param = { flag; doc; full; quick; single = false }
let one flag ~full ~quick doc : param = { flag; doc; full = [ full ]; quick = [ quick ]; single = true }
let cache_param mb = one "cache" ~full:mb ~quick:mb "Paper-equivalent cache size in MB (64..2048)."

(* [run] reads its arguments by flag; the tables and the JSON are rendered
   from the same cells. *)
let sweep name ?(command = name) ~doc params ~tables ~json run =
  let run c args =
    let cells = run c (fun flag -> List.assoc flag args) in
    { tables = List.map (fun (title, render) -> (title, render cells)) tables; json = json cells }
  in
  { name; command; doc; params; run }

(* The JSON side of every sweep: each number the tables print, at a fixed
   precision, and every digest. *)
let f decimals x = Json.fixed ~decimals x
let int = Json.int
let str s = Json.Str s
let objs render items = Json.Arr (List.map (fun item -> Json.Obj (render item)) items)
let method_json m = ("method", str (Recovery.method_to_string m))

let stats_json (s : Rs.t) =
  [
    ("analysis_ms", f 3 (Rs.analysis_ms s));
    ("redo_ms", f 3 (Rs.redo_ms s));
    ("undo_ms", f 3 (Rs.undo_ms s));
    ("records_scanned", int s.records_scanned);
    ("redo_applied", int s.redo_applied);
    ("data_page_fetches", int s.data_page_fetches);
    ("log_pages_read", int s.log_pages_read);
  ]

(* A text table from (header, renderer) columns, one row per item. *)
let columns ~title cols items =
  Report.table ~title ~header:(List.map fst cols)
    ~rows:(List.map (fun item -> List.map (fun (_, render) -> render item) cols) items)
    ()

(* ---------- Figure 2, §5.3 and Appendix B ---------- *)

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
}

let stats_of cell m = List.assoc m cell.methods
let redo_ms_of cell m = Rs.redo_ms (stats_of cell m)

let run_fig2 c ~cache_sizes =
  let builds = fan c (crash c "fig2") cache_sizes in
  let timed =
    grid c builds (methods_or c Recovery.all_methods) (fun cache_mb run m ->
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

let fig2_json =
  objs (fun cell ->
      let method_ (m, (s : Rs.t)) =
        let store, logical = List.assoc m cell.digests in
        (method_json m :: ("wall_s", f 4 (List.assoc m cell.method_walls)) :: stats_json s)
        @ [
            ("redo_candidates", int s.redo_candidates);
            ("tail_records", int s.tail_records);
            ("dpt_size", int s.dpt_size);
            ("index_stall_ms", f 3 (s.index_stall_us /. 1000.0));
            ("store_digest", str store);
            ("logical_digest", str logical);
          ]
      in
      [
        ("cache_mb", int cell.cache_mb);
        ("pool_pages", int cell.pool_pages);
        ("db_pages", int cell.db_pages);
        ("build_wall_s", f 3 cell.build_wall_s);
        ("dirty_pct", f 3 cell.dirty_pct);
        ("deltas_seen", int cell.deltas_seen);
        ("bws_seen", int cell.bws_seen);
        ("methods", objs method_ cell.methods);
      ])

let cache_sizes_param =
  list "cache-sizes" ~full:[ 64; 128; 256; 512; 1024; 2048 ] ~quick:[ 64; 512; 2048 ]
    "Comma-separated paper-equivalent cache sizes in MB."

let fig2 =
  sweep "fig2" ~doc:"Figures 2(a)-(c), the per-phase breakdown, the §5.3 claims, and the Appendix B cost model"
    [ cache_sizes_param ]
    ~tables:
      [
        ("FIGURE 2(a)", fig2a);
        ("FIGURE 2(b)", fig2b);
        ("FIGURE 2(c)", fig2c);
        ("PER-PHASE BREAKDOWN", phase_table);
        ("SECTION 5.3 CLAIMS", sec53);
        ("APPENDIX B COST MODEL", costmodel);
      ]
    ~json:fig2_json
    (fun c arg -> run_fig2 c ~cache_sizes:(arg "cache-sizes"))

(* ---------- Figure 3 (Appendix C) ---------- *)

let fig3 =
  let run c ~cache_mb multipliers =
    fan c
      (fun multiplier ->
        serial c (Printf.sprintf "fig3: checkpoint interval %dx (scale 1/%d)" multiplier c.scale);
        let setup =
          Experiment.paper_setup ~config:c.config ~scale:c.scale ~cache_mb
            ~ckpt_multiplier:multiplier ()
        in
        (multiplier, Experiment.run_all (Experiment.build ?cache:c.cache setup) Recovery.all_methods))
      multipliers
  in
  let table cells =
    columns
      ~title:
        "Figure 3 (Appendix C) — redo time (simulated ms) vs checkpoint interval\n\
         (paper: Log0 grows linearly; Log1/SQL1 roughly double at 5x; Log2/SQL2\n\
         grow only ~1.2x per step)"
      (("ckpt interval", fun (k, _) -> Printf.sprintf "%dx" k)
      :: List.map
           (fun m -> (Recovery.method_to_string m, fun (_, ms) -> Report.ms (Rs.redo_ms (List.assoc m ms))))
           (match cells with [] -> [] | (_, ms) :: _ -> List.map fst ms))
      cells
  in
  sweep "fig3" ~doc:"Figure 3 (Appendix C): checkpoint-interval sweep"
    [ cache_param 512; list "multipliers" ~full:[ 1; 5; 10 ] ~quick:[ 1; 5 ] "Checkpoint interval multipliers." ]
    ~tables:[ ("FIGURE 3 (APPENDIX C)", table) ]
    ~json:
      (objs (fun (k, ms) ->
           [ ("multiplier", int k); ("methods", objs (fun (m, s) -> method_json m :: stats_json s) ms) ]))
    (fun c arg -> run c ~cache_mb:(List.hd (arg "cache")) (arg "multipliers"))

(* ---------- Appendix D ablations ---------- *)

type appd_row = {
  label : string;
  dpt_size : int;
  redo_ms : float;
  data_fetches : int;
  delta_records : int;
  delta_kb : float;  (* DC logging overhead during normal execution *)
}

(* The DC-logging spectrum of Appendix D — Standard, Perfect (D.1), Reduced
   (D.2), all recovered with Log1 — plus classic ARIES checkpointing
   recovered physiologically, as ablation baselines. *)
let run_appd c ~cache_mb =
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
    c.progress (Printf.sprintf "appd: %s (scale 1/%d)" label c.scale);
    row label Recovery.Log1
      (Experiment.build ?cache:c.cache
         (Experiment.paper_setup ~config:c.config ~scale:c.scale ~cache_mb ~dpt_mode ()))
  in
  (* Bound in table order, so the progress lines come out in that order too. *)
  let standard = logical_variant "standard Δ (§4.1)" Config.Standard in
  let perfect = logical_variant "perfect DPT (D.1: +DirtyLSNs)" Config.Perfect in
  let reduced = logical_variant "reduced logging (D.2: -FW/-FirstDirty)" Config.Reduced in
  c.progress (Printf.sprintf "appd: aries-checkpointing (scale 1/%d)" c.scale);
  let aries =
    row "ARIES-ckpt (physiological, §3.1)" Recovery.Aries_ckpt
      (Experiment.paper_crash ?cache:c.cache ~config:c.config ~scale:c.scale ~cache_mb
         [ Recovery.Aries_ckpt ])
  in
  [ standard; perfect; reduced; aries ]

let appd_table rows =
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

let appd =
  sweep "appd" ~doc:"Appendix D ablations: the DC-logging spectrum" [ cache_param 512 ]
    ~tables:[ ("APPENDIX D ABLATIONS", appd_table) ]
    ~json:
      (objs (fun r ->
           [
             ("label", str r.label);
             ("dpt_size", int r.dpt_size);
             ("redo_ms", f 3 r.redo_ms);
             ("data_fetches", int r.data_fetches);
             ("delta_records", int r.delta_records);
             ("delta_kb", f 1 r.delta_kb);
           ]))
    (fun c arg -> run_appd c ~cache_mb:(List.hd (arg "cache")))

(* ---------- split-log layout (§4.2) ---------- *)

type split_row = {
  layout : string;
  smethod : Recovery.method_;
  s_analysis_ms : float;
  s_redo_ms : float;
  s_log_pages : int;  (* log pages read across both log devices *)
  tc_log_kb : float;  (* retained TC-log bytes at crash *)
  dc_log_kb : float;  (* retained DC-log bytes at crash (= TC when integrated) *)
}

(* The Deuteronomy architecture proper vs the paper's integrated prototype:
   same workload, Log1/Log2 recovery from each layout. *)
let run_split c ~cache_mb =
  let module Ci = Deut_core.Crash_image in
  let module Log = Deut_wal.Log_manager in
  List.concat_map
    (fun layout ->
      c.progress
        (Printf.sprintf "split: %s layout (scale 1/%d)" (Config.log_layout_to_string layout)
           c.scale);
      let run =
        Experiment.build ?cache:c.cache
          (Experiment.paper_setup ~config:{ c.config with Config.log_layout = layout } ~scale:c.scale
             ~cache_mb ())
      in
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

let split =
  sweep "split" ~command:"splitlog" ~doc:"Split-log layout (§4.2) vs the integrated prototype"
    [ cache_param 512 ]
    ~tables:[ ("SPLIT-LOG LAYOUT (§4.2)", split_table) ]
    ~json:
      (objs (fun r ->
           [
             ("layout", str r.layout);
             method_json r.smethod;
             ("analysis_ms", f 3 r.s_analysis_ms);
             ("redo_ms", f 3 r.s_redo_ms);
             ("log_pages_read", int r.s_log_pages);
             ("tc_log_kb", f 1 r.tc_log_kb);
             ("dc_log_kb", f 1 r.dc_log_kb);
           ]))
    (fun c arg -> run_split c ~cache_mb:(List.hd (arg "cache")))

(* ---------- parallel redo sweep ---------- *)

module Es = Deut_core.Engine_stats

type workers_cell = {
  w_cache_mb : int;
  w_method : Recovery.method_;
  w_count : int;  (* [Config.redo_workers] used for this recovery *)
  w_stats : Rs.t;
  w_stall_wait : Es.latency;  (* cache.stall_wait_us after recovery *)
  w_data_io : Es.latency;  (* disk.data.io_us after recovery *)
}

(* One crash per cache size, recovered with every (method, worker count)
   pair, every recovery oracle-verified. *)
let run_workers c ~cache_sizes ~workers =
  grid c
    (fan c (crash c "workers") cache_sizes)
    (List.concat_map (fun m -> List.map (fun w -> (m, w)) workers) Recovery.all_methods)
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

let workers =
  sweep "workers" ~doc:"Parallel-redo sweep: redo time and latency percentiles per worker count"
    [
      (* An IO-bound (small) and an apply-bound (large) cache. *)
      list "cache" ~full:[ 64; 512 ] ~quick:[ 64 ] "Comma-separated paper-equivalent cache sizes in MB.";
      list "counts" ~full:[ 1; 2; 4; 8 ] ~quick:[ 1; 4 ] "Comma-separated worker counts to sweep.";
    ]
    ~tables:[ ("PARALLEL REDO", workers_table) ]
    ~json:
      (objs (fun w ->
           let latency name (h : Es.latency) =
             [ (name ^ "_p50_us", f 1 h.Es.p50_us); (name ^ "_p95_us", f 1 h.Es.p95_us) ]
           in
           [
             ("cache_mb", int w.w_cache_mb);
             method_json w.w_method;
             ("workers", int w.w_count);
             ("redo_ms", f 3 (Rs.redo_ms w.w_stats));
             ("redo_applied", int w.w_stats.Rs.redo_applied);
             ("stalls", int w.w_stats.Rs.stalls);
           ]
           @ latency "stall" w.w_stall_wait
           @ latency "io" w.w_data_io))
    (fun c arg -> run_workers c ~cache_sizes:(arg "cache") ~workers:(arg "counts"))

(* ---------- normal-path concurrency ---------- *)

let txns_param ~full ~quick = one "txns" ~full ~quick "Committed transactions per cell."

(* The columns every OLTP sweep table shares, from the cell's stats. *)
let oltp_columns stats =
  [
    ("txns", fun c -> Report.i (stats c).Client_sched.committed_txns);
    ("makespan (ms)", fun c -> Report.ms (stats c).Client_sched.makespan_ms);
    ("tput (txn/s)", fun c -> Printf.sprintf "%.0f" (stats c).Client_sched.throughput_tps);
    ("aborts", fun c -> Report.i (stats c).Client_sched.aborts);
  ]

let oltp_json (s : Client_sched.stats) =
  [
    ("txns", int s.committed_txns);
    ("makespan_ms", f 3 s.makespan_ms);
    ("tput_tps", f 0 s.throughput_tps);
    ("aborts", int s.aborts);
    ("commit_p50_us", f 1 s.commit_p50_us);
    ("commit_p95_us", f 1 s.commit_p95_us);
  ]

type concurrency_cell = {
  c_clients : int;
  c_group_commit : int;
  c_stats : Client_sched.stats;
  c_digest : string;
}

(* Fresh database per (clients, group commit) cell, same workload seed
   everywhere, oracle-verified, and the final logical digest cross-checked
   identical in every cell. *)
let run_concurrency c ~cache_mb ~clients ~group_commits ~txns =
  let coords = List.concat_map (fun gc -> List.map (fun n -> (gc, n)) clients) group_commits in
  let cells =
    fan c
      (fun (gc, n) ->
        serial c
          (Printf.sprintf "concurrency: %d client%s, group_commit %d (scale 1/%d)" n (plural n) gc
             c.scale);
        let driver =
          oltp_driver c ~cache_mb (fun cfg -> { cfg with Config.group_commit = gc; clients = n })
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

let concurrency =
  sweep "concurrency" ~command:"clients"
    ~doc:
      "Concurrency sweep: simulated multi-client normal execution per (clients, group_commit) \
       cell, with the cross-cell determinism digest check"
    [
      cache_param 256;
      list "counts" ~full:[ 1; 2; 4; 8 ] ~quick:[ 1; 4 ] "Comma-separated client counts to sweep.";
      list "group-commits" ~full:[ 1; 4; 16 ] ~quick:[ 1; 4 ]
        "Comma-separated group-commit batch sizes.";
      txns_param ~full:300 ~quick:120;
    ]
    ~tables:[ ("CONCURRENCY", concurrency_table) ]
    ~json:
      (objs (fun c ->
           let s = c.c_stats in
           [ ("clients", int c.c_clients); ("group_commit", int c.c_group_commit) ]
           @ oltp_json s
           @ [
               ("abort_rate", f 4 s.abort_rate);
               ("wounds", int s.wounds);
               ("conflicts", int s.conflicts);
               ("digest", str c.c_digest);
             ]))
    (fun c arg ->
      run_concurrency c ~cache_mb:(List.hd (arg "cache")) ~clients:(arg "counts")
        ~group_commits:(arg "group-commits") ~txns:(List.hd (arg "txns")))

(* ---------- sharded data components ---------- *)

type sharding_crash = {
  sc_sibling_reads : int;  (* reads served by siblings while the shard was down *)
  sc_recover_ms : float;  (* virtual time for Db.recover_shard *)
}

type sharding_cell = {
  sh_shards : int;
  sh_clients : int;
  sh_stats : Client_sched.stats;
  sh_digest : string;
  sh_net_msgs : int;  (* Dc_access messages over Deut_net.Link (0 in-process) *)
  sh_crash : sharding_crash option;  (* None on single-shard cells *)
}

(* Fresh database per (shards, clients) cell on [c.config]'s transport,
   same workload seed everywhere, oracle-verified, with the final logical
   digest cross-checked identical in every cell (shard transparency).
   Each multi-shard cell then crashes its last shard on the live engine,
   serves sibling reads while it is down, recovers it alone with
   {!Db.recover_shard}, and re-checks the digest. *)
let run_sharding c ~cache_mb ~shards ~clients ~txns =
  let coords = List.concat_map (fun s -> List.map (fun n -> (s, n)) clients) shards in
  let cells =
    fan c
      (fun (n_shards, n_clients) ->
        serial c
          (Printf.sprintf "sharding: %d shard%s, %d client%s%s (scale 1/%d)" n_shards
             (plural n_shards) n_clients (plural n_clients)
             (if c.config.Config.net then ", networked" else "")
             c.scale);
        let driver =
          oltp_driver c ~cache_mb (fun cfg ->
              { cfg with Config.clients = n_clients; shards = n_shards })
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
            Some { sc_sibling_reads = !served; sc_recover_ms = recover_ms }
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

let sharding =
  sweep "sharding" ~command:"shards"
    ~doc:
      "Sharding sweep: one TC driving N data components per (shards, clients) cell, with the \
       cross-cell shard-transparency digest check and a single-shard-crash availability \
       scenario per multi-shard cell; DEUT_NET=1 routes the TC-DC protocol over simulated \
       network links"
    [
      cache_param 256;
      list "counts" ~full:[ 1; 2; 4; 8 ] ~quick:[ 1; 4 ] "Comma-separated shard counts to sweep.";
      list "clients" ~full:[ 4; 8 ] ~quick:[ 4 ] "Comma-separated client counts to sweep.";
      txns_param ~full:300 ~quick:120;
    ]
    ~tables:[ ("SHARDING", sharding_table) ]
    ~json:
      (objs (fun c ->
           let crash f = Option.fold ~none:Json.Null ~some:f c.sh_crash in
           [ ("shards", int c.sh_shards); ("clients", int c.sh_clients) ]
           @ oltp_json c.sh_stats
           @ [
               ("net_msgs", int c.sh_net_msgs);
               ("sibling_reads", crash (fun cr -> int cr.sc_sibling_reads));
               ("recover_shard_ms", crash (fun cr -> f 3 cr.sc_recover_ms));
               ("digest", str c.sh_digest);
             ]))
    (fun c arg ->
      run_sharding c ~cache_mb:(List.hd (arg "cache")) ~shards:(arg "counts")
        ~clients:(arg "clients") ~txns:(List.hd (arg "txns")))

(* ---------- log archiving ---------- *)

module Logm = Deut_wal.Log_manager
module Arch = Deut_wal.Archive

type archiving_round = {
  ar_round : int;
  ar_logged_kb : float;  (* total bytes ever appended to the log *)
  ar_live_kb : float;  (* bytes the live log still retains *)
  ar_archive_kb : float;  (* sealed archive-segment payload *)
  ar_segments : int;
}

type archiving_cell = {
  a_archive : bool;
  a_rounds : archiving_round list;
  a_digest : string;  (* final logical digest — equal in both cells *)
  a_methods : (Recovery.method_ * Rs.t) list;  (* post-crash recoveries, all oracle-verified *)
}

(* The long-running multi-client workload with periodic checkpoint +
   archive cuts, run twice — archiving off then on — with the same seed.
   Checks on every round that sealed coverage meets the live base (the
   durability contract), that the final digests match across the two
   cells, that the live log ends bounded below the total logged bytes, and
   that all five methods recover the oracle state from the truncated log;
   raises on any violation. *)
let run_archiving c ~cache_mb ~clients ~rounds ~txns_per_round =
  let cells =
    List.map
      (fun archive ->
        c.progress
          (Printf.sprintf "archiving: %s, %d rounds x %d txns, %d clients (scale 1/%d)"
             (if archive then "on" else "off")
             rounds txns_per_round clients c.scale);
        let driver =
          oltp_driver c ~cache_mb (fun cfg ->
              { cfg with Config.clients; archive; archive_min_bytes = 0 })
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

let archiving =
  sweep "archiving" ~command:"archive"
    ~doc:
      "Log-archiving sweep: the long-running multi-client workload with periodic checkpoint + \
       archive cuts, run with archiving off and on.  Shows the live log staying bounded while \
       logged bytes grow, checks the sealed-coverage durability contract every round, \
       cross-checks the final digests, and restarts from the truncated log + archive with every \
       method (oracle-verified)."
    [
      cache_param 256;
      one "clients" ~full:4 ~quick:4 "Simulated concurrent clients driving the workload.";
      one "rounds" ~full:8 ~quick:4 "Checkpoint + archive-cut rounds to run.";
      one "txns" ~full:120 ~quick:60 "Committed transactions per round.";
    ]
    ~tables:[ ("ARCHIVING", archiving_table) ]
    ~json:
      (objs (fun c ->
           let last = List.nth c.a_rounds (List.length c.a_rounds - 1) in
           [
             ("archive", Json.Bool c.a_archive);
             ("rounds", int (List.length c.a_rounds));
             ("final_logged_kb", f 1 last.ar_logged_kb);
             ("final_live_kb", f 1 last.ar_live_kb);
             ("final_archived_kb", f 1 last.ar_archive_kb);
             ("segments", int last.ar_segments);
             ("digest", str c.a_digest);
             ( "per_round",
               objs
                 (fun r ->
                   [
                     ("round", int r.ar_round);
                     ("logged_kb", f 1 r.ar_logged_kb);
                     ("live_kb", f 1 r.ar_live_kb);
                     ("archived_kb", f 1 r.ar_archive_kb);
                     ("segments", int r.ar_segments);
                   ])
                 c.a_rounds );
             ("methods", objs (fun (m, s) -> method_json m :: stats_json s) c.a_methods);
           ]))
    (fun c arg ->
      let first flag = List.hd (arg flag) in
      run_archiving c ~cache_mb:(first "cache") ~clients:(first "clients") ~rounds:(first "rounds")
        ~txns_per_round:(first "txns"))

(* ---------- instant recovery: availability vs cache size ---------- *)

type availability_cell = {
  v_cache_mb : int;
  v_ttft_ms : float;  (* open for business: analysis + sequential log scan *)
  v_drained_ms : float;  (* background redo fully drained (same staged run) *)
  v_log2_total_ms : float;  (* offline Log2 baseline on the same image *)
  v_speedup : float;  (* drained / open — the availability win *)
  v_pages_ondemand : int;  (* pages replayed by probe-read faults *)
  v_pages_background : int;  (* pages replayed by the drain *)
  v_probe_reads : int;  (* reads served while redo was still pending *)
}

(* One crash per cache size.  Per cell: recover offline with Log2 (the
   baseline), recover with the drained form of InstantLog2 and require a
   byte-identical logical digest, then run the staged form with [probes]
   uniform reads interleaved with background drain steps, verify it
   against the oracle and the digest again, and report its TTFT / drain
   split. *)
let run_availability c ~cache_sizes ~probes =
  fan c
    (fun cache_mb ->
      let _, run, _ = crash c "availability" cache_mb in
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

let availability =
  sweep "availability" ~command:"instant"
    ~doc:
      "Instant-recovery availability sweep: per cache size, recover with InstantLog2 and report \
       time-to-first-transaction vs time-to-full-recovery.  Each cell first proves the \
       determinism gate — the drained InstantLog2 state is byte-identical to offline Log2 — \
       then serves probe reads during the staged drain."
    [
      cache_sizes_param;
      one "probes" ~full:32 ~quick:32
        "Probe reads served while the background redo is still draining.";
    ]
    ~tables:[ ("INSTANT RECOVERY (AVAILABILITY)", availability_table) ]
    ~json:
      (objs (fun c ->
           [
             ("cache_mb", int c.v_cache_mb);
             ("ttft_ms", f 3 c.v_ttft_ms);
             ("drained_ms", f 3 c.v_drained_ms);
             ("log2_total_ms", f 3 c.v_log2_total_ms);
             ("speedup", f 2 c.v_speedup);
             ("pages_ondemand", int c.v_pages_ondemand);
             ("pages_background", int c.v_pages_background);
             ("probe_reads", int c.v_probe_reads);
           ]))
    (fun c arg ->
      run_availability c ~cache_sizes:(arg "cache-sizes") ~probes:(List.hd (arg "probes")))

(* ---------- prefetch tuning (trace-mined) ---------- *)

module Analysis = Deut_obs.Analysis
module Tuner = Deut_obs.Tuner

type tuning_cell = {
  t_cache_mb : int;
  t_method : Recovery.method_;
  t_outcomes : Tuner.outcome list;  (* sweep order; every run oracle-verified *)
  t_default : Tuner.outcome;  (* the outcome at the base config's settings *)
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

(* One crash per cache size; for each method, every candidate
   [Config.prefetch_*] setting in the grid is recovered with tracing on,
   oracle-verified, and profiled with {!Analysis}.  The default setting
   always appears in the grid. *)
let run_tuning c ~cache_sizes ~windows ~chunks ~lookaheads =
  List.concat_map
    (fun cache_mb ->
      let _, run, _ = crash c "tuning" cache_mb in
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
                          [ Config.Pf_list; Config.Dpt_order ]
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
                c.progress
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
                         else is pinned — including the base config's
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
                let _, stats, _, profile = Experiment.recover_traced ~meta ~config run method_ in
                { Tuner.cand; profile; redo_ms = Rs.redo_ms stats })
              grid
          in
          let t_default =
            match List.find_opt (fun o -> o.Tuner.cand = default_cand) outcomes with
            | Some o -> o
            | None -> List.hd outcomes
          in
          { t_cache_mb = cache_mb; t_method = method_; t_outcomes = outcomes; t_default })
        (methods_or c [ Recovery.Log2; Recovery.Sql2 ]))
    cache_sizes

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

let tuning =
  let cand o = str (Tuner.candidate_to_string o.Tuner.cand) in
  sweep "tuning" ~command:"tune"
    ~doc:
      "Sweep prefetch settings per method and cache size, score each candidate by its \
       trace-mined profile (stall-attributed time plus late/wasted-prefetch penalties), and \
       print the recommendation table.  Every candidate recovery is oracle-verified."
    [
      (* Quick mode tunes 512 MB: the smoke coverage is the same, and the
         bench's availability sweep has just built that crash. *)
      list "cache" ~full:[ 256; 1024 ] ~quick:[ 512 ] "Comma-separated paper-equivalent cache sizes in MB.";
      list "windows" ~full:[ 8; 16; 32; 64 ] ~quick:[ 16; 32 ]
        "Comma-separated prefetch_window candidates.";
      list "chunks" ~full:[ 4; 8; 16; 32 ] ~quick:[ 8; 16 ] "Comma-separated prefetch_chunk candidates.";
      list "lookaheads" ~full:[ 128; 256; 512; 1024 ] ~quick:[ 256; 512 ]
        "Comma-separated prefetch_lookahead candidates (SQL2 only).";
    ]
    ~tables:[ ("PREFETCH TUNING", tuning_table) ]
    ~json:
      (objs (fun t ->
           [
             ("cache_mb", int t.t_cache_mb);
             method_json t.t_method;
             ("default", cand t.t_default);
             ("best", Option.fold ~none:Json.Null ~some:cand (Tuner.best t.t_outcomes));
             ( "outcomes",
               objs
                 (fun o ->
                   let p = o.Tuner.profile in
                   [
                     ("candidate", cand o);
                     ("redo_ms", f 3 o.Tuner.redo_ms);
                     ("stall_ms", f 3 (p.Analysis.stall_total_us /. 1000.0));
                     ("late", int p.Analysis.pf_late);
                     ("wasted", int p.Analysis.pf_wasted);
                     ("score", f 1 (Tuner.score p));
                   ])
                 t.t_outcomes );
           ]))
    (fun c arg ->
      run_tuning c ~cache_sizes:(arg "cache") ~windows:(arg "windows") ~chunks:(arg "chunks")
        ~lookaheads:(arg "lookaheads"))

let sweeps =
  [ fig2; fig3; appd; split; workers; concurrency; sharding; archiving; availability; tuning ]
