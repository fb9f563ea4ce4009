(* The full benchmark harness: regenerates every table and figure of the
   paper's evaluation (simulated time, §5.3 + appendices) and finishes with
   Bechamel wall-clock micro-benchmarks of the engine's hot paths.

   Environment knobs:
     DEUT_SCALE        divisor of the paper's sizes (default 64; smaller =
                       bigger experiment; see DESIGN.md §1)
     DEUT_QUICK        if set, runs a reduced sweep for smoke-testing
     DEUT_BENCH_JSON   output path for the machine-readable run summary
                       (default BENCH_recovery.json in the working dir) *)

module Figures = Deut_workload.Figures
module Client_sched = Deut_workload.Client_sched
module Experiment = Deut_workload.Experiment
module Config = Deut_core.Config
module Recovery = Deut_core.Recovery
module Rs = Deut_core.Recovery_stats

let scale =
  match Sys.getenv_opt "DEUT_SCALE" with
  | Some s -> ( try max 8 (int_of_string s) with _ -> 64)
  | None -> 64

let quick = Sys.getenv_opt "DEUT_QUICK" <> None

(* Real OS-level parallelism for the DOMAINS section: DEUT_DOMAINS when
   set above 1, else as many of the machine's cores as the section can
   use (capped at 4 — the sweep it times has that much width).  Every
   other section honours DEUT_DOMAINS through [Config.default]. *)
let bench_domains =
  let d = Config.default.Config.domains in
  if d > 1 then d else Stdlib.min 4 (Deut_sim.Domain_pool.available_cores ())

let progress msg = Printf.eprintf "[bench] %s\n%!" msg

let section title =
  print_newline ();
  print_endline (String.make 78 '=');
  print_endline title;
  print_endline (String.make 78 '=');
  print_newline ()

(* Wall-clock accounting per harness section, reported at the end and in the
   JSON summary.  The workload is allocation-heavy (every insert encodes a
   log record; every flush stamps a page image), so a minor heap sized for
   interactive programs spends a measurable fraction of the run in the GC —
   give the bench process a larger nursery up front. *)
let () =
  Gc.set
    { (Gc.get ()) with Gc.minor_heap_size = 8 * 1024 * 1024; Gc.space_overhead = 400 }

let section_walls : (string * float) list ref = ref []

(* Shared across sections: several sweeps use structurally identical
   setups (fig2@512 = fig3@1x = the standard-Δ ablation row, fig2@64 =
   the small-cache parallel-redo sweep), and each duplicate build costs
   real seconds.  Results are identical either way — [Experiment.build]
   is deterministic. *)
let build_cache = Deut_workload.Experiment.build_cache ()

let timed_section name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  section_walls := (name, Unix.gettimeofday () -. t0) :: !section_walls;
  r

(* Machine-readable summary: wall-clock seconds alongside the key simulated
   metrics per (method, cache size).  Hand-rolled writer with a fixed field
   order so runs diff cleanly; consumed by CI as an artifact. *)
let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* The DOMAINS section's measurements, emitted as their own JSON block. *)
type domains_summary = {
  d_requested : int;  (* DEUT_DOMAINS as configured (1 when unset) *)
  d_used : int;  (* domains the parallel sweep actually ran on *)
  d_cores : int;  (* Domain.recommended_domain_count at run time *)
  d_seq_wall_s : float;
  d_par_wall_s : float;
  d_digests_identical : bool;
}

let write_bench_json ~total_wall_s ~(archiving : Figures.archiving_cell list)
    ~(availability : Figures.availability_cell list)
    ~(sharding : Figures.sharding_cell list) ~(domains : domains_summary)
    (fig2_cells : Figures.fig2_cell list) =
  let path =
    match Sys.getenv_opt "DEUT_BENCH_JSON" with Some p -> p | None -> "BENCH_recovery.json"
  in
  let b = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\n";
  add "  \"schema\": \"deut-bench-recovery/1\",\n";
  add "  \"scale\": %d,\n" scale;
  add "  \"quick\": %b,\n" quick;
  add "  \"total_wall_s\": %.3f,\n" total_wall_s;
  add "  \"sections\": [\n";
  let sections = List.rev !section_walls in
  List.iteri
    (fun i (name, w) ->
      add "    { \"name\": \"%s\", \"wall_s\": %.3f }%s\n" (json_escape name) w
        (if i < List.length sections - 1 then "," else ""))
    sections;
  add "  ],\n";
  add "  \"archiving\": [\n";
  let n_arch = List.length archiving in
  List.iteri
    (fun i (cell : Figures.archiving_cell) ->
      let last =
        List.nth cell.Figures.a_rounds (List.length cell.Figures.a_rounds - 1)
      in
      add
        "    { \"archive\": %b, \"rounds\": %d, \"final_logged_kb\": %.1f, \
         \"final_live_kb\": %.1f, \"final_archived_kb\": %.1f, \"segments\": %d, \
         \"digest\": \"%s\" }%s\n"
        cell.Figures.a_archive
        (List.length cell.Figures.a_rounds)
        last.Figures.ar_logged_kb last.Figures.ar_live_kb last.Figures.ar_archive_kb
        last.Figures.ar_segments (json_escape cell.Figures.a_digest)
        (if i < n_arch - 1 then "," else ""))
    archiving;
  add "  ],\n";
  add "  \"availability\": [\n";
  let n_av = List.length availability in
  List.iteri
    (fun i (c : Figures.availability_cell) ->
      add
        "    { \"cache_mb\": %d, \"ttft_ms\": %.3f, \"drained_ms\": %.3f, \
         \"log2_total_ms\": %.3f, \"speedup\": %.2f, \"pages_ondemand\": %d, \
         \"pages_background\": %d, \"probe_reads\": %d }%s\n"
        c.Figures.v_cache_mb c.Figures.v_ttft_ms c.Figures.v_drained_ms
        c.Figures.v_log2_total_ms c.Figures.v_speedup c.Figures.v_pages_ondemand
        c.Figures.v_pages_background c.Figures.v_probe_reads
        (if i < n_av - 1 then "," else ""))
    availability;
  add "  ],\n";
  add "  \"sharding\": [\n";
  let n_sh = List.length sharding in
  List.iteri
    (fun i (c : Figures.sharding_cell) ->
      let s = c.Figures.sh_stats in
      add
        "    { \"shards\": %d, \"clients\": %d, \"txns\": %d, \"makespan_ms\": %.3f, \
         \"tput_tps\": %.0f, \"net_msgs\": %d, \"recover_shard_ms\": %s, \
         \"digest\": \"%s\" }%s\n"
        c.Figures.sh_shards c.Figures.sh_clients s.Client_sched.committed_txns
        s.Client_sched.makespan_ms s.Client_sched.throughput_tps c.Figures.sh_net_msgs
        (match c.Figures.sh_crash with
        | Some cr -> Printf.sprintf "%.3f" cr.Figures.sc_recover_ms
        | None -> "null")
        (json_escape c.Figures.sh_digest)
        (if i < n_sh - 1 then "," else ""))
    sharding;
  add "  ],\n";
  let d = domains in
  add "  \"domains\": {\n";
  add "    \"requested\": %d,\n" d.d_requested;
  add "    \"used\": %d,\n" d.d_used;
  add "    \"cores_available\": %d,\n" d.d_cores;
  add "    \"harness_seq_wall_s\": %.3f,\n" d.d_seq_wall_s;
  add "    \"harness_par_wall_s\": %.3f,\n" d.d_par_wall_s;
  add "    \"harness_speedup\": %.2f,\n"
    (if d.d_par_wall_s > 0.0 then d.d_seq_wall_s /. d.d_par_wall_s else 0.0);
  add "    \"harness_digests_identical\": %b\n" d.d_digests_identical;
  add "  },\n";
  add "  \"fig2\": [\n";
  let n_cells = List.length fig2_cells in
  List.iteri
    (fun ci (cell : Figures.fig2_cell) ->
      add "    {\n";
      add "      \"cache_mb\": %d,\n" cell.Figures.cache_mb;
      add "      \"pool_pages\": %d,\n" cell.Figures.pool_pages;
      add "      \"db_pages\": %d,\n" cell.Figures.db_pages;
      add "      \"build_wall_s\": %.3f,\n" cell.Figures.build_wall_s;
      add "      \"methods\": [\n";
      let n_m = List.length cell.Figures.methods in
      List.iteri
        (fun mi (m, stats) ->
          let wall = try List.assoc m cell.Figures.method_walls with Not_found -> 0.0 in
          add "        { \"method\": \"%s\", \"wall_s\": %.4f, "
            (Recovery.method_to_string m) wall;
          add "\"analysis_ms\": %.3f, \"redo_ms\": %.3f, \"undo_ms\": %.3f, "
            (Rs.analysis_ms stats) (Rs.redo_ms stats) (Rs.undo_ms stats);
          add "\"records_scanned\": %d, \"redo_applied\": %d, "
            stats.Rs.records_scanned stats.Rs.redo_applied;
          add "\"data_page_fetches\": %d, \"log_pages_read\": %d }%s\n"
            stats.Rs.data_page_fetches stats.Rs.log_pages_read
            (if mi < n_m - 1 then "," else ""))
        cell.Figures.methods;
      add "      ]\n";
      add "    }%s\n" (if ci < n_cells - 1 then "," else ""))
    fig2_cells;
  add "  ]\n";
  add "}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents b);
  close_out oc;
  progress (Printf.sprintf "wrote %s" path)

let () =
  let harness_t0 = Unix.gettimeofday () in
  Printf.printf
    "Deuteronomy logical-recovery reproduction — benchmark harness\n\
     scale: 1/%d of the paper's sizes (DB %d pages-equivalent; see DESIGN.md)\n\
     All recovery runs are verified against the committed-state oracle before\n\
     their timings are reported.\n"
    scale (436_000 / scale);

  (* Figure 2: one workload+crash per cache size, five recoveries each. *)
  let cache_sizes = if quick then [ 64; 512; 2048 ] else [ 64; 128; 256; 512; 1024; 2048 ] in
  let fig2_cells =
    timed_section "fig2" (fun () -> Figures.run_fig2 ~cache:build_cache ~scale ~cache_sizes ~progress ())
  in
  section "FIGURE 2(a)";
  print_string (Figures.fig2a fig2_cells);
  section "FIGURE 2(b)";
  print_string (Figures.fig2b fig2_cells);
  section "FIGURE 2(c)";
  print_string (Figures.fig2c fig2_cells);
  section "PER-PHASE BREAKDOWN";
  print_string (Figures.phase_table fig2_cells);
  section "SECTION 5.3 CLAIMS";
  print_string (Figures.sec53 fig2_cells);
  section "APPENDIX B COST MODEL";
  print_string (Figures.costmodel fig2_cells);

  (* Figure 3: checkpoint-interval sweep. *)
  let multipliers = if quick then [ 1; 5 ] else [ 1; 5; 10 ] in
  let fig3_cells =
    timed_section "fig3" (fun () -> Figures.run_fig3 ~cache:build_cache ~scale ~multipliers ~progress ())
  in
  section "FIGURE 3 (APPENDIX C)";
  print_string (Figures.fig3 fig3_cells);

  (* Appendix D ablations. *)
  let appd_rows = timed_section "appd" (fun () -> Figures.run_appd ~cache:build_cache ~scale ~progress ()) in
  section "APPENDIX D ABLATIONS";
  print_string (Figures.appd appd_rows);

  (* Split-log layout: the Deuteronomy architecture proper (§4.2). *)
  let split_rows = timed_section "split" (fun () -> Figures.run_split ~cache:build_cache ~scale ~progress ()) in
  section "SPLIT-LOG LAYOUT (§4.2)";
  print_string (Figures.split_table split_rows);

  (* Partitioned parallel redo: worker-count sweep at an IO-bound (small)
     and an apply-bound (large) cache, with latency percentiles. *)
  let workers_cache_sizes = if quick then [ 64 ] else [ 64; 512 ] in
  let workers = if quick then [ 1; 4 ] else [ 1; 2; 4; 8 ] in
  let workers_cells =
    timed_section "workers" (fun () ->
        Figures.run_workers ~cache:build_cache ~scale ~cache_sizes:workers_cache_sizes ~workers ~progress ())
  in
  section "PARALLEL REDO";
  print_string (Figures.workers_table workers_cells);

  (* Real multicore: the same sweep run sequentially and fanned across
     OS-level domains.  Simulated results and digests must be identical
     (the determinism gate — the run aborts otherwise); only wall clock
     may differ.  Fresh caches on both sides so the parallel run cannot
     coast on the sequential run's builds. *)
  let domains_cache_sizes = if quick then [ 64; 128 ] else [ 64; 128; 256; 512 ] in
  let domains_summary =
    timed_section "domains" (fun () ->
        progress
          (Printf.sprintf "domains: sweep at 1 then %d domain(s), %d core(s) available"
             bench_domains
             (Deut_sim.Domain_pool.available_cores ()));
        let sweep domains =
          let cache = Experiment.build_cache () in
          let t0 = Unix.gettimeofday () in
          let cells =
            Figures.run_fig2 ~cache ~scale ~cache_sizes:domains_cache_sizes ~progress ~domains ()
          in
          Experiment.drop_cache cache;
          (cells, Unix.gettimeofday () -. t0)
        in
        let seq_cells, seq_wall = sweep 1 in
        let par_cells, par_wall = sweep bench_domains in
        let digests_identical =
          List.for_all2
            (fun (a : Figures.fig2_cell) (b : Figures.fig2_cell) ->
              a.Figures.digests = b.Figures.digests)
            seq_cells par_cells
        in
        if not digests_identical then
          failwith "DOMAINS: harness digests diverged between 1 domain and the parallel sweep";
        {
          d_requested = Config.default.Config.domains;
          d_used = bench_domains;
          d_cores = Deut_sim.Domain_pool.available_cores ();
          d_seq_wall_s = seq_wall;
          d_par_wall_s = par_wall;
          d_digests_identical = digests_identical;
        })
  in
  section "DOMAINS (real multicore)";
  Printf.printf
    "  cores available: %d, domains used: %d (DEUT_DOMAINS=%d)\n\
    \  harness sweep:   %.2f s sequential -> %.2f s parallel (%.2fx), digests identical: %b\n\
    \  (simulated times and digests are byte-identical by construction;\n\
    \   wall-clock speedup tracks the machine's real core count)\n"
    domains_summary.d_cores domains_summary.d_used domains_summary.d_requested
    domains_summary.d_seq_wall_s domains_summary.d_par_wall_s
    (if domains_summary.d_par_wall_s > 0.0 then
       domains_summary.d_seq_wall_s /. domains_summary.d_par_wall_s
     else 0.0)
    domains_summary.d_digests_identical;

  (* Concurrency: simulated clients sharing the engine during normal
     execution, swept over client count × group-commit batch.  The runner
     cross-checks that every cell converges to the same logical digest. *)
  let conc_clients = if quick then [ 1; 4 ] else [ 1; 2; 4; 8 ] in
  let conc_groups = if quick then [ 1; 4 ] else [ 1; 4; 16 ] in
  let conc_txns = if quick then 120 else 300 in
  let conc_cells =
    timed_section "concurrency" (fun () ->
        Figures.run_concurrency ~scale ~clients:conc_clients ~group_commits:conc_groups
          ~txns:conc_txns ~progress ())
  in
  section "CONCURRENCY";
  print_string (Figures.concurrency_table conc_cells);

  (* Sharding: one TC driving N data components through the Dc_access
     protocol.  The runner enforces shard transparency (digest identical
     in every cell) and runs the single-shard-crash availability scenario
     per multi-shard cell. *)
  let shard_counts = if quick then [ 1; 4 ] else [ 1; 2; 4; 8 ] in
  let shard_clients = if quick then [ 4 ] else [ 4; 8 ] in
  let shard_txns = if quick then 120 else 300 in
  let shard_cells =
    timed_section "sharding" (fun () ->
        Figures.run_sharding ~scale ~shards:shard_counts ~clients:shard_clients
          ~txns:shard_txns ~progress ())
  in
  section "SHARDING";
  print_string (Figures.sharding_table shard_cells);

  (* Log archiving: the long-running multi-client workload with periodic
     checkpoint + archive cuts.  The runner enforces the durability
     contract (sealed coverage meets the live base every round), digest
     equality with archiving off, a bounded live log, and oracle-verified
     restart from the truncated log + archive with every method. *)
  let arch_rounds = if quick then 4 else 8 in
  let arch_txns = if quick then 60 else 120 in
  let arch_cells =
    timed_section "archiving" (fun () ->
        Figures.run_archiving ~scale ~rounds:arch_rounds ~txns_per_round:arch_txns ~progress ())
  in
  section "ARCHIVING";
  print_string (Figures.archiving_table arch_cells);

  (* Instant recovery: availability vs cache size.  The runner enforces
     the determinism gate (drained InstantLog2 digest byte-identical to
     Log2 at every cache size) before reporting the TTFT / drain split. *)
  let avail_cells =
    timed_section "availability" (fun () ->
        Figures.run_availability ~cache:build_cache ~scale ~cache_sizes ~progress ())
  in
  section "INSTANT RECOVERY (AVAILABILITY)";
  print_string (Figures.availability_table avail_cells);

  (* Trace-mined prefetch tuning: sweep the prefetcher knobs per method,
     score candidates by stall-attributed time from the profiler. *)
  (* Quick mode tunes the 512 MB cell: smoke coverage is the same, and the
     build is already in the cache from Figure 2. *)
  let tune_caches = if quick then [ 512 ] else [ 256; 1024 ] in
  let tune_windows = if quick then [ 16; 32 ] else [ 8; 16; 32; 64 ] in
  let tune_chunks = if quick then [ 8; 16 ] else [ 4; 8; 16; 32 ] in
  let tune_lookaheads = if quick then [ 256; 512 ] else [ 128; 256; 512; 1024 ] in
  let tuning_cells =
    timed_section "tuning" (fun () ->
        Figures.run_tuning ~cache:build_cache ~scale ~cache_sizes:tune_caches ~windows:tune_windows
          ~chunks:tune_chunks ~lookaheads:tune_lookaheads ~progress ())
  in
  section "PREFETCH TUNING";
  print_string (Figures.tuning_table tuning_cells);

  (* Bechamel micro-benchmarks: wall-clock cost of the engine's hot paths.
     Drop the build cache first: bechamel compacts the heap around every
     benchmark, and hundreds of MB of retained crash images would turn each
     compaction into seconds. *)
  Deut_workload.Experiment.drop_cache build_cache;
  Gc.compact ();
  section "MICRO-BENCHMARKS (Bechamel, wall clock)";
  print_string (timed_section "micro" (fun () -> Micro.run ()));

  let total_wall_s = Unix.gettimeofday () -. harness_t0 in
  section "WALL-CLOCK PER SECTION (real seconds, not simulated)";
  List.iter
    (fun (name, w) -> Printf.printf "  %-14s %7.2f s\n" name w)
    (List.rev !section_walls);
  Printf.printf "  %-14s %7.2f s\n" "total" total_wall_s;
  write_bench_json ~total_wall_s ~archiving:arch_cells ~availability:avail_cells
    ~sharding:shard_cells ~domains:domains_summary fig2_cells
