(* The full benchmark harness: regenerates every table and figure of the
   paper's evaluation (simulated time, §5.3 + appendices) and finishes with
   Bechamel wall-clock micro-benchmarks of the engine's hot paths.

   Environment knobs:
     DEUT_SCALE        divisor of the paper's sizes (default 64; smaller =
                       bigger experiment; see DESIGN.md §1)
     DEUT_QUICK        if set, runs a reduced sweep for smoke-testing
     DEUT_BENCH_JSON   output path for the machine-readable run summary
                       (default BENCH_recovery.json in the working dir)
   plus the engine knobs of [Config.of_env], read once and passed down. *)

module Figures = Deut_workload.Figures
module Experiment = Deut_workload.Experiment
module Config = Deut_core.Config

let progress msg = Printf.eprintf "[bench] %s\n%!" msg

(* A malformed knob stops the harness before it starts. *)
let usage_error msg =
  Printf.eprintf "bench: %s\n" msg;
  exit 2

let config = try Config.of_env Config.default with Invalid_argument msg -> usage_error msg

let scale =
  match Option.map String.trim (Sys.getenv_opt "DEUT_SCALE") with
  | None | Some "" -> 64
  | Some s -> (
      match int_of_string_opt s with
      | Some n -> max 8 n
      | None -> usage_error (Printf.sprintf "DEUT_SCALE=%S: expected an integer" s))

let quick = Sys.getenv_opt "DEUT_QUICK" <> None

(* The workload is allocation-heavy (every insert encodes a log record;
   every flush stamps a page image), so a minor heap sized for interactive
   programs spends a measurable fraction of the run in the GC — give the
   bench process a larger nursery up front.  The major heap runs tighter
   than OCaml's default instead: a crash run at the default scale holds
   ~250 MB live (oracle, crash image, the dead engine), and slack on a
   few of them is what used to exhaust an 8 GB machine. *)
let () =
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 8 * 1024 * 1024; Gc.space_overhead = 80 }

(* Shared across sections: several sweeps use structurally identical
   setups (fig2@512 = fig3@1x = the standard-Δ ablation row, fig2@64 =
   the small-cache parallel-redo sweep), and each duplicate build costs
   real seconds.  Results are identical either way — [Experiment.build]
   is deterministic.  Every cached crash run stays live until evicted, so
   the LRU bound caps the harness's memory.  The cache is dropped before
   DOMAINS, which builds its own; availability then refills it, and
   tuning reuses availability's builds. *)
let cache = Experiment.build_cache ~max_entries:3 ()

(* Wall-clock seconds per harness section, reported at the end and in
   the JSON summary. *)
let section_walls : (string * float) list ref = ref []

let section title =
  print_newline ();
  print_endline (String.make 78 '=');
  print_endline title;
  print_endline (String.make 78 '=');
  print_newline ()

(* Run one timed section, then print each of its (title, renderer) tables. *)
let run_section name run renders =
  let t0 = Unix.gettimeofday () in
  let cells = run () in
  section_walls := (name, Unix.gettimeofday () -. t0) :: !section_walls;
  List.iter
    (fun (title, render) ->
      section title;
      print_string (render cells))
    renders;
  cells

(* Machine-readable summary: wall-clock seconds alongside the key simulated
   metrics ({!Deut_workload.Bench_summary}); CI compares it against
   baselines/BENCH_recovery_quick.json with [repro_cli bench-diff]. *)
let write_bench_json summary =
  let path =
    match Sys.getenv_opt "DEUT_BENCH_JSON" with Some p -> p | None -> "BENCH_recovery.json"
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Deut_workload.Bench_summary.to_string summary));
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
    run_section "fig2"
      (fun () -> Figures.run_fig2 ~cache ~scale ~cache_sizes ~progress ~config ())
      [
        ("FIGURE 2(a)", Figures.fig2a);
        ("FIGURE 2(b)", Figures.fig2b);
        ("FIGURE 2(c)", Figures.fig2c);
        ("PER-PHASE BREAKDOWN", Figures.phase_table);
        ("SECTION 5.3 CLAIMS", Figures.sec53);
        ("APPENDIX B COST MODEL", Figures.costmodel);
      ]
  in

  (* Figure 3: checkpoint-interval sweep. *)
  let multipliers = if quick then [ 1; 5 ] else [ 1; 5; 10 ] in
  ignore
    (run_section "fig3"
       (fun () -> Figures.run_fig3 ~cache ~scale ~multipliers ~progress ~config ())
       [ ("FIGURE 3 (APPENDIX C)", Figures.fig3) ]);

  (* Appendix D ablations, then the split-log layout: the Deuteronomy
     architecture proper (§4.2). *)
  ignore
    (run_section "appd"
       (fun () -> Figures.run_appd ~cache ~scale ~progress ~config ())
       [ ("APPENDIX D ABLATIONS", Figures.appd) ]);
  ignore
    (run_section "split"
       (fun () -> Figures.run_split ~cache ~scale ~progress ~config ())
       [ ("SPLIT-LOG LAYOUT (§4.2)", Figures.split_table) ]);

  (* Partitioned parallel redo: worker-count sweep at an IO-bound (small)
     and an apply-bound (large) cache, with latency percentiles. *)
  let workers_cache_sizes = if quick then [ 64 ] else [ 64; 512 ] in
  let workers = if quick then [ 1; 4 ] else [ 1; 2; 4; 8 ] in
  ignore
    (run_section "workers"
       (fun () ->
         Figures.run_workers ~cache ~scale ~cache_sizes:workers_cache_sizes ~workers ~progress
           ~config ())
       [ ("PARALLEL REDO", Figures.workers_table) ]);

  (* Real multicore: the Figure 2 sweep run sequentially and fanned across
     OS-level domains.  Simulated results and digests must be identical
     (the determinism gate — the run aborts otherwise); only wall clock
     may differ.  The sweep builds its own crash runs, so release the
     shared ones first: two parallel builds on top of them set the
     harness's peak memory. *)
  Experiment.drop_cache cache;
  Gc.compact ();
  let domains_cache_sizes = if quick then [ 64; 128 ] else [ 64; 128; 256; 512 ] in
  let domains =
    run_section "domains"
      (fun () -> Figures.run_domains ~scale ~cache_sizes:domains_cache_sizes ~progress ~config ())
      [
        ( "DOMAINS (real multicore)",
          fun d ->
            Printf.sprintf
              "  cores available: %d, domains used: %d (DEUT_DOMAINS=%d)\n\
              \  harness sweep:   %.2f s sequential -> %.2f s parallel (%.2fx), digests \
               identical: true\n\
              \  (simulated times and digests are byte-identical by construction;\n\
              \   wall-clock speedup tracks the machine's real core count)\n"
              d.Figures.dm_cores d.Figures.dm_domains config.Config.domains
              d.Figures.dm_seq_wall_s d.Figures.dm_par_wall_s (Figures.domains_speedup d) );
      ]
  in

  (* Concurrency: simulated clients sharing the engine during normal
     execution, swept over client count × group-commit batch.  The runner
     cross-checks that every cell converges to the same logical digest. *)
  let conc_clients = if quick then [ 1; 4 ] else [ 1; 2; 4; 8 ] in
  let conc_groups = if quick then [ 1; 4 ] else [ 1; 4; 16 ] in
  let conc_txns = if quick then 120 else 300 in
  ignore
    (run_section "concurrency"
       (fun () ->
         Figures.run_concurrency ~scale ~clients:conc_clients ~group_commits:conc_groups
           ~txns:conc_txns ~progress ~config ())
       [ ("CONCURRENCY", Figures.concurrency_table) ]);

  (* Sharding: one TC driving N data components through the Dc_access
     protocol.  The runner enforces shard transparency (digest identical
     in every cell) and runs the single-shard-crash availability scenario
     per multi-shard cell. *)
  let shard_counts = if quick then [ 1; 4 ] else [ 1; 2; 4; 8 ] in
  let shard_clients = if quick then [ 4 ] else [ 4; 8 ] in
  let shard_txns = if quick then 120 else 300 in
  let shard_cells =
    run_section "sharding"
      (fun () ->
        Figures.run_sharding ~scale ~shards:shard_counts ~clients:shard_clients ~txns:shard_txns
          ~progress ~config ())
      [ ("SHARDING", Figures.sharding_table) ]
  in

  (* Log archiving: the long-running multi-client workload with periodic
     checkpoint + archive cuts.  The runner enforces the durability
     contract (sealed coverage meets the live base every round), digest
     equality with archiving off, a bounded live log, and oracle-verified
     restart from the truncated log + archive with every method. *)
  let arch_rounds = if quick then 4 else 8 in
  let arch_txns = if quick then 60 else 120 in
  let arch_cells =
    run_section "archiving"
      (fun () ->
        Figures.run_archiving ~scale ~rounds:arch_rounds ~txns_per_round:arch_txns ~progress
          ~config ())
      [ ("ARCHIVING", Figures.archiving_table) ]
  in

  (* Instant recovery: availability vs cache size.  The runner enforces
     the determinism gate (drained InstantLog2 digest byte-identical to
     Log2 at every cache size) before reporting the TTFT / drain split. *)
  let avail_cells =
    run_section "availability"
      (fun () -> Figures.run_availability ~cache ~scale ~cache_sizes ~progress ~config ())
      [ ("INSTANT RECOVERY (AVAILABILITY)", Figures.availability_table) ]
  in

  (* Trace-mined prefetch tuning: sweep the prefetcher knobs per method,
     score candidates by stall-attributed time from the profiler.  Quick
     mode tunes the 512 MB cell: smoke coverage is the same, and the
     build is still in the cache from availability. *)
  let tune_caches = if quick then [ 512 ] else [ 256; 1024 ] in
  let tune_windows = if quick then [ 16; 32 ] else [ 8; 16; 32; 64 ] in
  let tune_chunks = if quick then [ 8; 16 ] else [ 4; 8; 16; 32 ] in
  let tune_lookaheads = if quick then [ 256; 512 ] else [ 128; 256; 512; 1024 ] in
  ignore
    (run_section "tuning"
       (fun () ->
         Figures.run_tuning ~cache ~scale ~cache_sizes:tune_caches ~windows:tune_windows
           ~chunks:tune_chunks ~lookaheads:tune_lookaheads ~progress ~config ())
       [ ("PREFETCH TUNING", Figures.tuning_table) ]);

  (* Bechamel micro-benchmarks: wall-clock cost of the engine's hot paths.
     Drop the build cache first: bechamel runs a major collection around
     every benchmark, and hundreds of MB of retained crash images would
     make each one cost seconds. *)
  Experiment.drop_cache cache;
  Gc.compact ();
  ignore
    (run_section "micro" (Micro.run ~quick)
       [ ("MICRO-BENCHMARKS (Bechamel, wall clock)", Fun.id) ]);

  let total_wall_s = Unix.gettimeofday () -. harness_t0 in
  section "WALL-CLOCK PER SECTION (real seconds, not simulated)";
  List.iter (fun (name, w) -> Printf.printf "  %-14s %7.2f s\n" name w) (List.rev !section_walls);
  Printf.printf "  %-14s %7.2f s\n" "total" total_wall_s;
  write_bench_json
    (Deut_workload.Bench_summary.to_json ~config ~scale ~quick ~total_wall_s
       ~sections:(List.rev !section_walls) ~archiving:arch_cells ~availability:avail_cells
       ~sharding:shard_cells ~domains fig2_cells)
