module Config = Deut_core.Config
module Db = Deut_core.Db
module Engine = Deut_core.Engine
module Recovery = Deut_core.Recovery
module Rs = Deut_core.Recovery_stats
module Json = Deut_obs.Json
module Logm = Deut_wal.Log_manager

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

(* Every (x, y), in [xs]-major order. *)
let pairs xs ys = List.concat_map (fun x -> List.map (fun y -> (x, y)) ys) xs

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

type sweep = {
  name : string;
  command : string;
  doc : string;
  params : param list;
  run : ctx -> (string * int list) list -> Json.t;
  tables : (string * (Json.t list -> string)) list;
}

let list flag ~full ~quick doc : param = { flag; doc; full; quick; single = false }
let one flag ~full ~quick doc : param = { flag; doc; full = [ full ]; quick = [ quick ]; single = true }
let cache_param mb = one "cache" ~full:mb ~quick:mb "Paper-equivalent cache size in MB (64..2048)."

(* [run] reads its arguments by flag and returns the sweep's JSON rows;
   every table renders from those rows alone. *)
let sweep name ?(command = name) ~doc params ~tables run =
  { name; command; doc; params; tables; run = (fun c args -> run c (fun flag -> List.assoc flag args)) }

let tables sw block =
  List.map (fun (title, render) -> (title, render (Json.to_list sw.name block))) sw.tables

let sections sw block =
  String.concat "" (List.map (fun (title, text) -> Report.section title ^ text) (tables sw block))

(* The rows: each number a table prints, at a fixed precision, and every
   digest. *)
let f decimals x = Json.fixed ~decimals x
let int = Json.int
let str s = Json.Str s
let objs render items = Json.Arr (List.map (fun item -> Json.Obj (render item)) items)
let method_json m = ("method", str (Recovery.method_to_string m))
let total_json s = ("total_ms", f 3 (Rs.total_ms s))

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

(* The tables: a column is a header and a row's cell, most often one
   field printed with a format. *)
let columns ~title cols items =
  Report.table ~title ~header:(List.map fst cols)
    ~rows:(List.map (fun item -> List.map (fun (_, cell) -> cell item) cols) items)
    ()

(* A number at [fmt]; a null field (a cell the sweep skipped) reads "-". *)
let num fmt row field =
  if Json.member field row = Json.Null then "-" else Printf.sprintf fmt (Json.num row field)

let col header field fmt = (header, fun row -> num fmt row field)
let text header field = (header, fun row -> Json.str row field)
let items field row = Json.to_list field (Json.member field row)
let method_of name row = List.find (fun m -> Json.str m "method" = name) (items "methods" row)
let method_num name field row = Json.num (method_of name row) field

let method_names rows =
  match rows with [] -> [] | row :: _ -> List.map (fun m -> Json.str m "method") (items "methods" row)

(* A column per method of the first row: that method's [field]. *)
let per_method field rows =
  List.map (fun m -> (m, fun row -> num "%.1f" (method_of m row) field)) (method_names rows)

let cache_col = col "Cache (MB)" "cache_mb" "%.0f"

(* The [name_p50_us] and [name_p95_us] fields as one cell. *)
let p50_p95 header name =
  let p q row = Json.num row (Printf.sprintf "%s_p%d_us" name q) in
  (header, fun row -> Printf.sprintf "%.0f / %.0f" (p 50 row) (p 95 row))

let digest_col = ("digest", fun row -> String.sub (Json.str row "digest") 0 12)

(* ---------- Figure 2, §5.3 and Appendix B ---------- *)

(* One crash per cache size, recovered with [ctx.methods] (default: the
   paper's five); the builds, then the full (cache size, method) grid, fan
   across domains. *)
let run_fig2 c arg =
  let builds = fan c (crash c "fig2") (arg "cache-sizes") in
  let recovered =
    grid c builds (methods_or c Recovery.all_methods) (fun cache_mb run m ->
        let t0 = Unix.gettimeofday () in
        let db, s = Experiment.recover_verified run m in
        let wall = Unix.gettimeofday () -. t0 in
        let logical = Client_sched.logical_digest db in
        let store = Experiment.store_digest db in
        ( cache_mb, m, s,
          Json.Obj
            ((method_json m :: ("wall_s", f 4 wall) :: stats_json s)
            @ [
                total_json s;
                ("redo_candidates", int s.redo_candidates);
                ("tail_records", int s.tail_records);
                ("dpt_size", int s.dpt_size);
                ("index_stall_ms", f 3 (s.index_stall_us /. 1000.0));
                ("store_digest", str store);
                ("logical_digest", str logical);
              ]) ))
  in
  objs
    (fun (cache_mb, run, build_wall_s) ->
      let mine = List.filter (fun (mb, _, _, _) -> mb = cache_mb) recovered in
      (* Δ/BW analysis counts come from any DPT-building method's stats. *)
      let _, _, counting, _ =
        match List.find_opt (fun (_, m, _, _) -> m = Recovery.Log1) mine with
        | Some r -> r
        | None -> List.hd mine
      in
      [
        ("cache_mb", int cache_mb);
        ("pool_pages", int (image_config run).Config.pool_pages);
        ("db_pages", int run.Experiment.db_pages);
        ("build_wall_s", f 3 build_wall_s);
        ("dirty_pct", f 3 (100.0 *. run.Experiment.dirty_fraction));
        ("deltas_seen", int counting.Rs.deltas_seen);
        ("bws_seen", int counting.Rs.bws_seen);
        ("methods", Json.Arr (List.map (fun (_, _, _, j) -> j) mine));
      ])
    builds

let fig2a rows =
  columns
    ~title:
      "Figure 2(a) — redo recovery time (simulated ms) vs cache size\n\
       (paper: Log1~SQL1; prefetch helps more at larger caches; only Log0 is\n\
       insensitive to cache growth)"
    (cache_col :: per_method "redo_ms" rows)
    rows

let phase_table rows =
  let phase name field = (name, fun (_, m) -> num "%.1f" m field) in
  columns
    ~title:
      "Per-phase breakdown — simulated ms spent in analysis / redo / undo\n\
       (redo dominates everywhere; analysis differences separate the DPT\n\
       construction costs of §3 vs §4)"
    [
      ("Cache (MB)", fun (row, _) -> num "%.0f" row "cache_mb");
      ("Method", fun (_, m) -> Json.str m "method");
      phase "analysis" "analysis_ms";
      phase "redo" "redo_ms";
      phase "undo" "undo_ms";
      phase "total (ms)" "total_ms";
    ]
    (List.concat_map (fun row -> List.map (fun m -> (row, m)) (items "methods" row)) rows)

let fig2b rows =
  columns
    ~title:
      "Figure 2(b) — dirty part of the cache at crash (%)\n\
       (paper: ~30% at 64MB falling to ~10% at 2048MB)"
    [
      cache_col;
      col "dirty % of cache" "dirty_pct" "%.1f%%";
      ("DPT size", fun row -> try num "%.0f" (method_of "Log1" row) "dpt_size" with Not_found -> "0");
      col "cache pages" "pool_pages" "%.0f";
      col "db pages" "db_pages" "%.0f";
    ]
    rows

let fig2c rows =
  columns
    ~title:
      "Figure 2(c) — Δ- and BW-log records seen by the analysis pass\n\
       (paper: Δ ≤ 1.5 × BW up to 1024MB; some Δ records carry only dirty pages)"
    [
      cache_col;
      col "Δ records" "deltas_seen" "%.0f";
      col "BW records" "bws_seen" "%.0f";
      ( "Δ/BW",
        fun row ->
          let bws = Json.num row "bws_seen" in
          if bws = 0.0 then "-" else Printf.sprintf "%.2f" (Json.num row "deltas_seen" /. bws) );
    ]
    rows

let pct_drop a b = 100.0 *. (a -. b) /. a

let sec53 rows =
  let redo m = method_num m "redo_ms" in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "Section 5.3 headline claims — paper vs this reproduction\n";
  let claim name paper measured =
    Buffer.add_string buf
      (Printf.sprintf "  %s paper: %s measured: %s\n" (Report.pad 52 name) (Report.pad 14 paper)
         measured)
  in
  (match List.find_opt (fun row -> Json.num row "cache_mb" = 512.0) rows with
  | Some c ->
      claim "DPT drops logical redo time (Log0→Log1, 512MB)" "65%"
        (Printf.sprintf "%.0f%%" (pct_drop (redo "Log0" c) (redo "Log1" c)));
      claim "prefetch drops a further (Log1→Log2, 512MB)" "20%"
        (Printf.sprintf "%.0f%%" (pct_drop (redo "Log1" c) (redo "Log2" c)))
  | None -> ());
  let per_cache fmt value =
    String.concat " "
      (List.map (fun row -> Printf.sprintf fmt (Json.num row "cache_mb") (value row)) rows)
  in
  claim "Log1 / SQL1 redo time" "~1.0 everywhere"
    (per_cache "%.0f:%.2f" (fun c -> redo "Log1" c /. redo "SQL1" c));
  claim "Log2 / SQL2 redo time" "<=1.15" (per_cache "%.0f:%.2f" (fun c -> redo "Log2" c /. redo "SQL2" c));
  let fetches m = method_num m "data_page_fetches" in
  claim "DPT cuts data-page IOs" "93% @64MB … 8% @2048MB"
    (per_cache "%.0f:%.0f%%" (fun c -> pct_drop (fetches "Log0" c) (fetches "Log1" c)));
  claim "index-page waits, share of Log1 redo" "16% @64MB … 2% @2048MB"
    (per_cache "%.0f:%.0f%%" (fun c -> 100.0 *. method_num "Log1" "index_stall_ms" c /. redo "Log1" c));
  Buffer.contents buf

let costmodel rows =
  let field header m name = (header, fun row -> num "%.0f" (method_of m row) name) in
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
      field "Log0 pred" "Log0" "redo_candidates";
      field "Log0 meas" "Log0" "data_page_fetches";
      (* Eq (2): the DPT size. *)
      field "SQL1 pred" "SQL1" "dpt_size";
      field "SQL1 meas" "SQL1" "data_page_fetches";
      (* Eq (3): DPT size plus the log tail. *)
      ( "Log1 pred",
        fun row ->
          let log1 field = method_num "Log1" field row in
          Printf.sprintf "%.0f" (log1 "dpt_size" +. log1 "tail_records") );
      field "Log1 meas" "Log1" "data_page_fetches";
    ]
    rows

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
    run_fig2

(* ---------- Figure 3 (Appendix C) ---------- *)

let fig3 =
  let table rows =
    columns
      ~title:
        "Figure 3 (Appendix C) — redo time (simulated ms) vs checkpoint interval\n\
         (paper: Log0 grows linearly; Log1/SQL1 roughly double at 5x; Log2/SQL2\n\
         grow only ~1.2x per step)"
      (col "ckpt interval" "multiplier" "%.0fx" :: per_method "redo_ms" rows)
      rows
  in
  sweep "fig3" ~doc:"Figure 3 (Appendix C): checkpoint-interval sweep"
    [ cache_param 512; list "multipliers" ~full:[ 1; 5; 10 ] ~quick:[ 1; 5 ] "Checkpoint interval multipliers." ]
    ~tables:[ ("FIGURE 3 (APPENDIX C)", table) ]
    (fun c arg ->
      let cache_mb = List.hd (arg "cache") in
      fan c
        (fun multiplier ->
          serial c (Printf.sprintf "fig3: checkpoint interval %dx (scale 1/%d)" multiplier c.scale);
          let setup =
            Experiment.paper_setup ~config:c.config ~scale:c.scale ~cache_mb
              ~ckpt_multiplier:multiplier ()
          in
          (multiplier, Experiment.run_all (Experiment.build ?cache:c.cache setup) Recovery.all_methods))
        (arg "multipliers")
      |> objs (fun (k, ms) ->
             [ ("multiplier", int k); ("methods", objs (fun (m, s) -> method_json m :: stats_json s) ms) ]))

(* ---------- Appendix D ablations ---------- *)

(* The DC-logging spectrum of Appendix D — Standard, Perfect (D.1), Reduced
   (D.2), all recovered with Log1 — plus classic ARIES checkpointing
   recovered physiologically, as ablation baselines. *)
let run_appd c arg =
  let cache_mb = List.hd (arg "cache") in
  let row label method_ run =
    let s = Experiment.run_method run method_ in
    Json.Obj
      [
        ("label", str label);
        ("dpt_size", int s.Rs.dpt_size);
        ("redo_ms", f 3 (Rs.redo_ms s));
        ("data_fetches", int s.Rs.data_page_fetches);
        ("delta_records", int run.Experiment.deltas_total);
        (* the DC's logging overhead during normal execution *)
        ("delta_kb", f 1 (float_of_int run.Experiment.delta_bytes /. 1024.0));
      ]
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
  Json.Arr [ standard; perfect; reduced; aries ]

let appd_table rows =
  columns
    ~title:
      "Appendix D — the DC-logging spectrum (512MB-equivalent cache)\n\
       More DC logging → more accurate DPT → faster redo; Reduced logs least\n\
       but keeps the most pages; Perfect matches SQL Server's DPT exactly."
    [
      text "variant" "label";
      col "DPT size" "dpt_size" "%.0f";
      col "Log1 redo (ms)" "redo_ms" "%.1f";
      col "data fetches" "data_fetches" "%.0f";
      col "Δ records" "delta_records" "%.0f";
      col "Δ bytes (KiB)" "delta_kb" "%.1f";
    ]
    rows

let appd =
  sweep "appd" ~doc:"Appendix D ablations: the DC-logging spectrum" [ cache_param 512 ]
    ~tables:[ ("APPENDIX D ABLATIONS", appd_table) ]
    run_appd

(* ---------- split-log layout (§4.2) ---------- *)

(* The Deuteronomy architecture proper vs the paper's integrated prototype:
   same workload, Log1/Log2 recovery from each layout. *)
let run_split c arg =
  let cache_mb = List.hd (arg "cache") in
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
      (* Retained log bytes at crash; the DC's log is the TC's when integrated. *)
      let retained log = float_of_int (Logm.end_lsn log - Logm.base_lsn log) /. 1024.0 in
      let tc_kb = retained image.Deut_core.Crash_image.log in
      let dc_kb = match image.dc_log with Some l -> retained l | None -> tc_kb in
      List.map
        (fun m ->
          let s = Experiment.run_method run m in
          [
            ("layout", str (Config.log_layout_to_string layout));
            method_json m;
            ("analysis_ms", f 3 (Rs.analysis_ms s));
            ("redo_ms", f 3 (Rs.redo_ms s));
            (* across both log devices *)
            ("log_pages_read", int s.Rs.log_pages_read);
            ("tc_log_kb", f 1 tc_kb);
            ("dc_log_kb", f 1 dc_kb);
          ])
        [ Recovery.Log1; Recovery.Log2 ])
    [ Config.Integrated; Config.Split ]
  |> objs Fun.id

let split_table rows =
  columns
    ~title:
      "Split-log layout (§4.2) vs the paper's integrated prototype (§5.1)\n\
       With its own log, the DC redo/analysis pass scans only SMO and Δ\n\
       records — \"a much smaller log than that needed for the analysis pass\n\
       with integrated recovery\"."
    [
      text "layout" "layout";
      text "method" "method";
      col "analysis (ms)" "analysis_ms" "%.1f";
      col "redo (ms)" "redo_ms" "%.1f";
      col "log pages read" "log_pages_read" "%.0f";
      col "TC log KiB" "tc_log_kb" "%.1f";
      col "DC log KiB" "dc_log_kb" "%.1f";
    ]
    rows

let split =
  sweep "split" ~command:"splitlog" ~doc:"Split-log layout (§4.2) vs the integrated prototype"
    [ cache_param 512 ]
    ~tables:[ ("SPLIT-LOG LAYOUT (§4.2)", split_table) ]
    run_split

(* ---------- parallel redo sweep ---------- *)

module Es = Deut_core.Engine_stats

(* One crash per cache size, recovered with every (method, worker count)
   pair, every recovery oracle-verified. *)
let run_workers c arg =
  grid c
    (fan c (crash c "workers") (arg "cache"))
    (pairs Recovery.all_methods (arg "counts"))
    (fun cache_mb run (m, w) ->
      let config = { (image_config run) with Config.redo_workers = w } in
      let db, s = Db.recover ~config run.Experiment.image m in
      (* Read the latencies before verification: the oracle scan does
         thousands of its own page fetches, which would swamp the
         recovery-time IO and stall histograms. *)
      let metrics = Engine.metrics (Db.engine db) in
      let latency name histogram =
        let h = Es.latency metrics histogram in
        [ (name ^ "_p50_us", f 1 h.Es.p50_us); (name ^ "_p95_us", f 1 h.Es.p95_us) ]
      in
      let stall = latency "stall" "cache.stall_wait_us" in
      let io = latency "io" "disk.data.io_us" in
      Experiment.verify
        (Printf.sprintf "workers sweep %d MB: %s with %d worker(s)" cache_mb
           (Recovery.method_to_string m) w)
        run.Experiment.driver db;
      [
        ("cache_mb", int cache_mb);
        method_json m;
        ("workers", int w);
        ("redo_ms", f 3 (Rs.redo_ms s));
        ("redo_applied", int s.Rs.redo_applied);
        ("stalls", int s.Rs.stalls);
      ]
      @ stall @ io)
  |> objs Fun.id

let workers_table rows =
  let redo row = Json.num row "redo_ms" in
  (* The workers=1 row of the same (cache, method) anchors the speedup. *)
  let base row =
    let same key r = Json.member key r = Json.member key row in
    let one r = same "cache_mb" r && same "method" r && Json.num r "workers" = 1.0 in
    redo (Option.value ~default:row (List.find_opt one rows))
  in
  columns
    ~title:
      "Parallel redo — simulated workers replaying the partitioned redo range\n\
       (application stays in log order, so recovered state and apply counts are\n\
       identical at every worker count; workers overlap CPU and fetch stalls on\n\
       the shared disk, so the speedup ceiling is set by how IO-bound redo is;\n\
       percentiles are histogram bucket upper bounds)"
    [
      cache_col;
      text "Method" "method";
      col "workers" "workers" "%.0f";
      col "redo (ms)" "redo_ms" "%.1f";
      ("speedup", fun row -> Printf.sprintf "%.2fx" (base row /. redo row));
      col "stalls" "stalls" "%.0f";
      p50_p95 "stall p50/p95 (µs)" "stall";
      p50_p95 "io p50/p95 (µs)" "io";
    ]
    rows

let workers =
  sweep "workers" ~doc:"Parallel-redo sweep: redo time and latency percentiles per worker count"
    [
      (* An IO-bound (small) and an apply-bound (large) cache. *)
      list "cache" ~full:[ 64; 512 ] ~quick:[ 64 ] "Comma-separated paper-equivalent cache sizes in MB.";
      list "counts" ~full:[ 1; 2; 4; 8 ] ~quick:[ 1; 4 ] "Comma-separated worker counts to sweep.";
    ]
    ~tables:[ ("PARALLEL REDO", workers_table) ]
    run_workers

(* ---------- normal-path concurrency ---------- *)

let txns_param ~full ~quick = one "txns" ~full ~quick "Committed transactions per cell."

(* The fields and columns every OLTP sweep shares, from its stats. *)
let oltp_json (s : Client_sched.stats) =
  [
    ("txns", int s.committed_txns);
    ("makespan_ms", f 3 s.makespan_ms);
    ("tput_tps", f 0 s.throughput_tps);
    ("aborts", int s.aborts);
    ("commit_p50_us", f 1 s.commit_p50_us);
    ("commit_p95_us", f 1 s.commit_p95_us);
  ]

let oltp_columns =
  [
    col "txns" "txns" "%.0f";
    col "makespan (ms)" "makespan_ms" "%.1f";
    col "tput (txn/s)" "tput_tps" "%.0f";
    col "aborts" "aborts" "%.0f";
  ]

(* Fresh database per (clients, group commit) cell, same workload seed
   everywhere, oracle-verified, and the final logical digest cross-checked
   identical in every cell. *)
let run_concurrency c arg =
  let cache_mb = List.hd (arg "cache") and txns = List.hd (arg "txns") in
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
        let digest = Client_sched.logical_digest (Driver.db driver) in
        let s = Client_sched.stats sched in
        ( Printf.sprintf "%d clients/gc=%d" n gc,
          digest,
          [ ("clients", int n); ("group_commit", int gc) ]
          @ oltp_json s
          @ [
              ("abort_rate", f 4 s.abort_rate);
              ("wounds", int s.wounds);
              ("conflicts", int s.conflicts);
              ("digest", str digest);
            ] ))
      (pairs (arg "group-commits") (arg "counts"))
  in
  (* The determinism contract, enforced on every sweep: same seed ⇒ same
     committed state at any client count and any commit batching. *)
  digests_agree "concurrency sweep" (List.map (fun (coord, d, _) -> (coord, d)) cells);
  objs (fun (_, _, row) -> row) cells

let concurrency_table rows =
  columns
    ~title:
      "Concurrency — simulated clients interleaving transactions on the virtual clock\n\
       (descriptors are drawn in ticket order and commits gated to ticket order, so\n\
       the final digest is identical in every row; group commit batches across\n\
       clients, trading commit latency for fewer log forces; percentiles are\n\
       histogram bucket upper bounds)"
    ([ col "clients" "clients" "%.0f"; col "group_commit" "group_commit" "%.0f" ]
    @ oltp_columns
    @ [
        ("abort %", fun row -> Printf.sprintf "%.1f" (100.0 *. Json.num row "abort_rate"));
        col "wounds" "wounds" "%.0f";
        col "conflicts" "conflicts" "%.0f";
        p50_p95 "commit p50/p95 (µs)" "commit";
        digest_col;
      ])
    rows

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
    run_concurrency

(* ---------- sharded data components ---------- *)

(* Fresh database per (shards, clients) cell on [c.config]'s transport,
   same workload seed everywhere, oracle-verified, with the final logical
   digest cross-checked identical in every cell (shard transparency).
   Each multi-shard cell then crashes its last shard on the live engine,
   serves sibling reads while it is down, recovers it alone with
   {!Db.recover_shard}, and re-checks the digest. *)
let run_sharding c arg =
  let cache_mb = List.hd (arg "cache") and txns = List.hd (arg "txns") in
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
           recover it alone, and require the state unperturbed.  Reads
           served meanwhile and the shard's recovery time; null on a
           single-shard cell. *)
        let sibling_reads, recover_ms =
          if n_shards <= 1 then (Json.Null, Json.Null)
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
            (int !served, f 3 recover_ms)
          end
        in
        (* Dc_access messages over Deut_net.Link (0 in-process). *)
        let net_msgs = Deut_obs.Metrics.read_int (Engine.metrics (Db.engine db)) "net.messages" in
        ( Printf.sprintf "%d shards/%d clients" n_shards n_clients,
          digest,
          [ ("shards", int n_shards); ("clients", int n_clients) ]
          @ oltp_json stats
          @ [
              ("net_msgs", int net_msgs);
              ("sibling_reads", sibling_reads);
              ("recover_shard_ms", recover_ms);
              ("digest", str digest);
            ] ))
      (pairs (arg "counts") (arg "clients"))
  in
  (* Shard transparency, enforced on every sweep: same seed ⇒ identical
     committed state at any shard count, any client count, any transport. *)
  digests_agree "sharding sweep" (List.map (fun (coord, d, _) -> (coord, d)) cells);
  objs (fun (_, _, row) -> row) cells

let sharding_table rows =
  columns
    ~title:
      "Sharded data components — one TC driving N DCs through the Dc_access\n\
       protocol (§4.1), key space striped [key mod shards], each shard with its\n\
       own store, cache and DC log (split layout); the digest is identical in\n\
       every row (shard transparency), and each multi-shard cell crashes one\n\
       shard on the live engine, serves sibling reads while it is down, and\n\
       recovers it alone from its DC log plus its stripe of the TC log"
    ([ col "shards" "shards" "%.0f"; col "clients" "clients" "%.0f" ]
    @ oltp_columns
    @ [
        col "net msgs" "net_msgs" "%.0f";
        col "crash: reads while down" "sibling_reads" "%.0f";
        col "recover shard (ms)" "recover_shard_ms" "%.2f";
        digest_col;
      ])
    rows

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
    run_sharding

(* ---------- log archiving ---------- *)

module Arch = Deut_wal.Archive

(* The long-running multi-client workload with periodic checkpoint +
   archive cuts, run twice — archiving off then on — with the same seed.
   Checks on every round that sealed coverage meets the live base (the
   durability contract), that the final digests match across the two
   cells, that the live log ends bounded below the total logged bytes, and
   that all five methods recover the oracle state from the truncated log;
   raises on any violation. *)
let run_archiving c arg =
  let first flag = List.hd (arg flag) in
  let cache_mb = first "cache" and clients = first "clients" and rounds = first "rounds" in
  let txns_per_round = first "txns" in
  let kib bytes = float_of_int bytes /. 1024.0 in
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
        (* (round, logged KiB ever appended, KiB the live log retains,
           sealed archive KiB, segments) *)
        let round_row i =
          let archive_bytes, segments =
            match Logm.archive log with
            | Some a ->
                (* The durability contract, checked on every round of the
                   long run: sealed coverage meets the live base exactly —
                   no gap, no unarchived drop. *)
                if Arch.segment_count a > 0 && Arch.covered_upto a <> Logm.base_lsn log then
                  failwith
                    (Printf.sprintf
                       "archiving sweep: coverage gap at round %d — sealed to %d, live base %d" i
                       (Arch.covered_upto a) (Logm.base_lsn log));
                (Arch.sealed_bytes a, Arch.segment_count a)
            | None -> (0, 0)
          in
          let live = Logm.end_lsn log - Logm.base_lsn log in
          (i, kib (Logm.end_lsn log), kib live, kib archive_bytes, segments)
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
              let recovered, s = Db.recover image m in
              Experiment.verify
                (Printf.sprintf "archiving sweep: %s from the %s log"
                   (Recovery.method_to_string m)
                   (if archive then "archived+truncated" else "compacted"))
                driver recovered;
              (method_json m :: stats_json s) @ [ total_json s ])
            Recovery.all_methods
        in
        let rounds = List.rev !rows in
        let _, logged, live, archived, segments = List.hd !rows in
        ( archive,
          digest,
          (logged, live, segments),
          [
            ("archive", Json.Bool archive);
            ("rounds", int (List.length rounds));
            ("final_logged_kb", f 1 logged);
            ("final_live_kb", f 1 live);
            ("final_archived_kb", f 1 archived);
            ("segments", int segments);
            ("digest", str digest);
            ( "per_round",
              objs
                (fun (i, logged, live, archived, segments) ->
                  [
                    ("round", int i);
                    ("logged_kb", f 1 logged);
                    ("live_kb", f 1 live);
                    ("archived_kb", f 1 archived);
                    ("segments", int segments);
                  ])
                rounds );
            ("methods", objs Fun.id methods);
          ] ))
      [ false; true ]
  in
  digests_agree "archiving sweep"
    (List.map (fun (archive, d, _, _) -> ((if archive then "archive on" else "archive off"), d)) cells);
  (match List.find_opt (fun (archive, _, _, _) -> archive) cells with
  | Some (_, _, (logged, live, segments), _) ->
      if segments = 0 then failwith "archiving sweep: no segment was ever sealed";
      if live >= logged then
        failwith
          (Printf.sprintf "archiving sweep: live log not bounded — %.1f KiB live of %.1f logged"
             live logged)
  | None -> ());
  objs (fun (_, _, _, row) -> row) cells

let archiving_table rows =
  let tag row = if Json.member "archive" row = Json.Bool true then "on" else "off" in
  let round header field fmt = (header, fun (_, r) -> num fmt r field) in
  let growth =
    columns
      ~title:
        "Log archiving — the live log stays bounded as logged bytes grow\n\
         (each round: concurrent transactions, then checkpoint + archive cut;\n\
         sealed-segment coverage meets the live base on every round — the\n\
         durability contract of DESIGN.md §8; final digests match with\n\
         archiving on and off)"
      [
        ("archive", fun (row, _) -> tag row);
        round "round" "round" "%.0f";
        round "logged KiB" "logged_kb" "%.1f";
        round "live KiB" "live_kb" "%.1f";
        round "archived KiB" "archived_kb" "%.1f";
        round "segments" "segments" "%.0f";
      ]
      (List.concat_map (fun row -> List.map (fun r -> (row, r)) (items "per_round" row)) rows)
  in
  let restart =
    columns
      ~title:
        "Restart from the truncated log + archive vs the compacted log\n\
         (every recovery oracle-verified; archived pages are charged to the\n\
         archive device and counted as log pages read)"
      (("method", Fun.id)
      :: List.concat_map
           (fun row ->
             [
               ("total ms (" ^ tag row ^ ")", fun m -> num "%.1f" (method_of m row) "total_ms");
               ("log pages (" ^ tag row ^ ")", fun m -> num "%.0f" (method_of m row) "log_pages_read");
             ])
           rows)
      (method_names rows)
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
    run_archiving

(* ---------- instant recovery: availability vs cache size ---------- *)

(* One crash per cache size.  Per cell: recover offline with Log2 (the
   baseline), recover with the drained form of InstantLog2 and require a
   byte-identical logical digest, then run the staged form with [probes]
   uniform reads interleaved with background drain steps, verify it
   against the oracle and the digest again, and report its TTFT / drain
   split. *)
let run_availability c arg =
  let probes = List.hd (arg "probes") in
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
      (* Open for business after analysis + the sequential log scan;
         drained once the background redo is done (same staged run). *)
      let ttft = Rs.ttft_ms si in
      let drained = Rs.drained_ms si in
      [
        ("cache_mb", int cache_mb);
        ("ttft_ms", f 3 ttft);
        ("drained_ms", f 3 drained);
        ("log2_total_ms", f 3 (Rs.total_ms s2));
        ("speedup", f 2 (if ttft > 0.0 then drained /. ttft else 0.0));
        (* pages replayed by probe-read faults, and by the drain *)
        ("pages_ondemand", int si.Rs.pages_ondemand);
        ("pages_background", int si.Rs.pages_background);
        (* reads served while redo was still pending *)
        ("probe_reads", int !served);
      ])
    (arg "cache-sizes")
  |> objs Fun.id

let availability_table rows =
  columns
    ~title:
      "Instant recovery — time to first transaction vs time to full recovery\n\
       (InstantLog2 opens right after analysis + log scan — history\n\
        indexing, redo and loser rollback are all demand-driven — and redoes\n\
       pages on demand; speedup = drained/open; every cell's digest is checked\n\
       byte-identical to offline Log2 before timings are reported)"
    [
      cache_col;
      col "open at (ms)" "ttft_ms" "%.1f";
      col "drained (ms)" "drained_ms" "%.1f";
      col "Log2 total (ms)" "log2_total_ms" "%.1f";
      col "speedup" "speedup" "%.1fx";
      col "pages on-demand" "pages_ondemand" "%.0f";
      col "pages background" "pages_background" "%.0f";
      col "probe reads" "probe_reads" "%.0f";
    ]
    rows

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
    run_availability

(* ---------- prefetch tuning (trace-mined) ---------- *)

module Analysis = Deut_obs.Analysis
module Tuner = Deut_obs.Tuner

(* One crash per cache size; for each method, every candidate
   [Config.prefetch_*] setting in the grid is recovered with tracing on,
   oracle-verified, and profiled with {!Analysis}.  The default setting
   always appears in the grid. *)
let run_tuning c arg =
  let cand_json o = str (Tuner.candidate_to_string o.Tuner.cand) in
  List.concat_map
    (fun cache_mb ->
      let _, run, _ = crash c "tuning" cache_mb in
      let base = image_config run in
      let { Config.prefetch_window; prefetch_chunk; prefetch_lookahead; prefetch_source; _ } = base in
      let default = ((prefetch_window, prefetch_chunk), (prefetch_lookahead, prefetch_source)) in
      let candidate ((window, chunk), (lookahead, source)) =
        { Tuner.window; chunk; lookahead; source = Config.prefetch_source_to_string source }
      in
      List.map
        (fun method_ ->
          (* Only the dimension the method's prefetcher reads is swept:
             Log2's PF-driven prefetch ignores the lookahead, SQL2's
             log-driven prefetch ignores the source (Appendix A). *)
          let swept =
            match method_ with
            | Recovery.Log2 ->
                List.map (fun source -> (prefetch_lookahead, source)) [ Config.Pf_list; Config.Dpt_order ]
            | _ -> List.map (fun lookahead -> (lookahead, prefetch_source)) (arg "lookaheads")
          in
          let grid = pairs (pairs (arg "windows") (arg "chunks")) swept in
          let grid = if List.mem default grid then grid else default :: grid in
          let outcomes =
            List.map
              (fun (((window, chunk), (lookahead, source)) as setting) ->
                let cand = candidate setting in
                c.progress
                  (Printf.sprintf "tuning: %s %d MB %s"
                     (Recovery.method_to_string method_)
                     cache_mb
                     (Tuner.candidate_to_string cand));
                let config =
                  {
                    base with
                    Config.tracing = true;
                    trace_capacity = 1 lsl 20;
                    prefetch_window = window;
                    prefetch_chunk = chunk;
                    prefetch_lookahead = lookahead;
                    prefetch_source = source;
                    (* Tuning compares prefetch settings, so everything else
                       is pinned — including the base config's worker/client
                       counts. *)
                    redo_workers = 1;
                    clients = 1;
                  }
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
          [
            ("cache_mb", int cache_mb);
            method_json method_;
            ("default", str (Tuner.candidate_to_string (candidate default)));
            ("best", Option.fold ~none:Json.Null ~some:cand_json (Tuner.best outcomes));
            ( "outcomes",
              objs
                (fun o ->
                  let p = o.Tuner.profile in
                  [
                    ("candidate", cand_json o);
                    ("redo_ms", f 3 o.Tuner.redo_ms);
                    ("stall_ms", f 3 (p.Analysis.stall_total_us /. 1000.0));
                    ("late", int p.Analysis.pf_late);
                    ("wasted", int p.Analysis.pf_wasted);
                    ("score", f 1 (Tuner.score p));
                  ])
                outcomes );
          ])
        (methods_or c [ Recovery.Log2; Recovery.Sql2 ]))
    (arg "cache")
  |> objs Fun.id

(* Per (cache size, method): one line per candidate in sweep order, the
   default marked [default] and the lowest score [<-- best], then the
   recommendation against the default. *)
let tuning_text rows =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.bprintf buf fmt in
  List.iter
    (fun row ->
      let default = Json.str row "default" in
      let best = match Json.member "best" row with Json.Str s -> Some s | _ -> None in
      let outcomes = items "outcomes" row in
      let redo cand =
        Json.num (List.find (fun o -> Json.str o "candidate" = cand) outcomes) "redo_ms"
      in
      add "=== prefetch tuning: %s, cache %.0f MB ===\n" (Json.str row "method") (Json.num row "cache_mb");
      add "  %-30s %10s %10s %6s %7s %10s  %s\n" "candidate" "redo ms" "stall ms" "late" "wasted" "score" "";
      List.iter
        (fun o ->
          let cand = Json.str o "candidate" in
          let mark =
            (if cand = default then " default" else "") ^ if Some cand = best then " <-- best" else ""
          in
          let n = Json.num o in
          add "  %-30s %10.3f %10.3f %6.0f %7.0f %10.1f %s\n" cand (n "redo_ms") (n "stall_ms")
            (n "late") (n "wasted") (n "score") mark)
        outcomes;
      Option.iter
        (fun best ->
          let b = redo best and d = redo default in
          add "recommendation: %s — redo %.3f ms vs default %.3f ms (%+.1f%%)\n" best b d
            (if d > 0.0 then 100.0 *. (b -. d) /. d else 0.0))
        best;
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf

let tuning =
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
    ~tables:[ ("PREFETCH TUNING", tuning_text) ]
    run_tuning

let sweeps =
  [ fig2; fig3; appd; split; workers; concurrency; sharding; archiving; availability; tuning ]
