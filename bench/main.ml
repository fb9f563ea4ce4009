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
module Report = Deut_workload.Report
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
   the LRU bound caps the harness's memory. *)
let cache = Experiment.build_cache ~max_entries:3 ()

(* Wall-clock seconds per harness section, reported at the end and in
   the JSON summary. *)
let section_walls : (string * float) list ref = ref []

(* Run one timed section. *)
let timed name run =
  let t0 = Unix.gettimeofday () in
  let result = run () in
  section_walls := (name, Unix.gettimeofday () -. t0) :: !section_walls;
  result

(* Machine-readable summary: wall-clock seconds alongside every sweep's
   simulated numbers and digests ({!Deut_workload.Bench_summary}); CI
   compares it against baselines/BENCH_recovery_quick.json with
   [repro_cli bench-diff]. *)
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

  (* Every sweep of the registry, at its quick or full parameter values;
     its tables are printed from the JSON block it returns, the block the
     summary saves and [repro_cli show] reprints. *)
  let ctx = { Figures.config; scale; cache = Some cache; methods = None; progress } in
  let blocks =
    List.map
      (fun (sw : Figures.sweep) ->
        let args =
          List.map (fun (p : Figures.param) -> (p.flag, if quick then p.quick else p.full)) sw.params
        in
        let json = timed sw.name (fun () -> sw.run ctx args) in
        print_string (Figures.sections sw json);
        (sw.name, json))
      Figures.sweeps
  in

  (* Bechamel micro-benchmarks: wall-clock cost of the engine's hot paths.
     Drop the build cache first: bechamel runs a major collection around
     every benchmark, and hundreds of MB of retained crash images would
     make each one cost seconds. *)
  Experiment.drop_cache cache;
  Gc.compact ();
  let micro = timed "micro" (Micro.run ~quick) in
  print_string (Report.section "MICRO-BENCHMARKS (Bechamel, wall clock)" ^ micro);

  let total_wall_s = Unix.gettimeofday () -. harness_t0 in
  print_string (Report.section "WALL-CLOCK PER SECTION (real seconds, not simulated)");
  List.iter (fun (name, w) -> Printf.printf "  %-14s %7.2f s\n" name w) (List.rev !section_walls);
  Printf.printf "  %-14s %7.2f s\n" "total" total_wall_s;
  write_bench_json
    (Deut_workload.Bench_summary.to_json ~scale ~quick ~domains:config.Config.domains
       ~total_wall_s ~sections:(List.rev !section_walls) blocks)
