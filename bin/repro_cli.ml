(* Command-line driver: run individual experiments from the paper's
   evaluation, or a single detailed crash/recovery cell. *)

open Cmdliner
module Figures = Deut_workload.Figures
module Experiment = Deut_workload.Experiment
module Recovery = Deut_core.Recovery
module Recovery_stats = Deut_core.Recovery_stats
module Config = Deut_core.Config
module Db = Deut_core.Db
module Engine = Deut_core.Engine
module Report = Deut_workload.Report
module Trace = Deut_obs.Trace
module Metrics = Deut_obs.Metrics
module Analysis = Deut_obs.Analysis

let progress msg = Printf.eprintf "[repro] %s\n%!" msg

let write_file p s =
  let oc = open_out p in
  output_string oc s;
  close_out oc

(* Gates report a violation as "FAIL: ..." and exit 1, whether it is
   found here or raised by a harness runner (oracle mismatch, diverged
   digest, truncated trace). *)
let or_fail f =
  try f () with Failure msg ->
    Printf.eprintf "FAIL: %s\n" msg;
    exit 1

(* A gate's JSON input, read and decoded; a file that is missing,
   unreadable or malformed fails the gate like any other violation. *)
let read_input what decode path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> failwith (Printf.sprintf "cannot read %s: %s" what msg)
  | text -> (
      match decode text with
      | Ok v -> v
      | Error msg -> failwith (Printf.sprintf "cannot parse %s %s: %s" what path msg))

(* Every size, count and scale the CLI takes must be at least 1; anything
   else is a usage error rather than a crash deep inside a sweep. *)
let pos_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let counts_arg ?(name = "counts") ?(docv = "NS") default doc =
  Arg.(value & opt (list pos_int) default & info [ name ] ~docv ~doc)

let scale_arg =
  let doc = "Divide the paper's sizes (database, cache, checkpoint interval) by $(docv)." in
  Arg.(value & opt pos_int 64 & info [ "s"; "scale" ] ~docv:"N" ~doc)

let cache_arg =
  let doc = "Paper-equivalent cache size in MB (64..2048)." in
  Arg.(value & opt pos_int 512 & info [ "c"; "cache" ] ~docv:"MB" ~doc)

let cache_sizes_arg =
  counts_arg ~name:"cache-sizes" ~docv:"MBS" Figures.paper_cache_sizes
    "Comma-separated paper-equivalent cache sizes in MB."

let workers_arg =
  let doc = "Simulated parallel redo workers (overrides Config.redo_workers)." in
  Arg.(value & opt (some pos_int) None & info [ "w"; "workers" ] ~docv:"N" ~doc)

let txns_arg default doc = Arg.(value & opt pos_int default & info [ "t"; "txns" ] ~docv:"N" ~doc)

(* The standard Figure-2 crash at --cache/--scale, built for [methods]. *)
let build_crash ~scale ~cache methods =
  progress (Printf.sprintf "building crash at cache %d MB, scale 1/%d" cache scale);
  Experiment.paper_crash ~scale ~cache_mb:cache methods

let recovering ~tracing method_ =
  progress
    (Printf.sprintf "recovering with %s%s" (Recovery.method_to_string method_)
       (if tracing then ", tracing on" else ""))

(* The config of a single CLI recovery: the crash's own, with tracing as
   asked and the DEUT_* environment (DEUT_TRACE_CAP included) on top —
   except the shard count, which the image fixes (DEUT_SHARDS would ask
   the single-shard paper image to instantiate as several). *)
let recovery_config crash ~tracing =
  let image_config = crash.Experiment.image.Deut_core.Crash_image.config in
  {
    (Config.of_env { image_config with Config.tracing; trace_capacity = 1 lsl 20 }) with
    Config.shards = image_config.Config.shards;
  }

let method_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "log0" -> Ok Recovery.Log0
    | "log1" -> Ok Recovery.Log1
    | "log2" -> Ok Recovery.Log2
    | "sql1" -> Ok Recovery.Sql1
    | "sql2" -> Ok Recovery.Sql2
    | "aries" | "aries-ckpt" -> Ok Recovery.Aries_ckpt
    | "instant" | "instant-log2" -> Ok Recovery.InstantLog2
    | other -> Error (`Msg (Printf.sprintf "unknown recovery method %S" other))
  in
  Arg.conv (parse, fun fmt m -> Format.pp_print_string fmt (Recovery.method_to_string m))

let fig2_cmd =
  let run scale cache_sizes =
    let cells = Figures.run_fig2 ~scale ~cache_sizes ~progress () in
    print_string (Figures.fig2a cells);
    print_newline ();
    print_string (Figures.fig2b cells);
    print_newline ();
    print_string (Figures.fig2c cells);
    print_newline ();
    print_string (Figures.sec53 cells);
    print_newline ();
    print_string (Figures.costmodel cells)
  in
  Cmd.v
    (Cmd.info "fig2" ~doc:"Figures 2(a)-(c), the §5.3 claims, and the Appendix B cost model")
    Term.(const run $ scale_arg $ cache_sizes_arg)

let fig3_cmd =
  let multipliers_arg =
    counts_arg ~name:"multipliers" ~docv:"KS" [ 1; 5; 10 ] "Checkpoint interval multipliers."
  in
  let run scale cache multipliers =
    let cells = Figures.run_fig3 ~scale ~cache_mb:cache ~multipliers ~progress () in
    print_string (Figures.fig3 cells)
  in
  Cmd.v
    (Cmd.info "fig3" ~doc:"Figure 3 (Appendix C): checkpoint-interval sweep")
    Term.(const run $ scale_arg $ cache_arg $ multipliers_arg)

let appd_cmd =
  let run scale cache =
    print_string (Figures.appd (Figures.run_appd ~scale ~cache_mb:cache ~progress ()))
  in
  Cmd.v
    (Cmd.info "appd" ~doc:"Appendix D ablations: the DC-logging spectrum")
    Term.(const run $ scale_arg $ cache_arg)

let splitlog_cmd =
  let run scale cache =
    print_string (Figures.split_table (Figures.run_split ~scale ~cache_mb:cache ~progress ()))
  in
  Cmd.v
    (Cmd.info "splitlog" ~doc:"Split-log layout (§4.2) vs the integrated prototype")
    Term.(const run $ scale_arg $ cache_arg)

let workers_cmd =
  let worker_counts_arg = counts_arg [ 1; 2; 4; 8 ] "Comma-separated worker counts to sweep." in
  let run scale cache counts =
    print_string
      (Figures.workers_table
         (Figures.run_workers ~scale ~cache_sizes:[ cache ] ~workers:counts ~progress ()))
  in
  Cmd.v
    (Cmd.info "workers"
       ~doc:"Parallel-redo sweep: redo time and latency percentiles per worker count")
    Term.(const run $ scale_arg $ cache_arg $ worker_counts_arg)

let clients_cmd =
  let client_counts_arg = counts_arg [ 1; 2; 4; 8 ] "Comma-separated client counts to sweep." in
  let group_commits_arg =
    counts_arg ~name:"group-commits" ~docv:"GS" [ 1; 4 ] "Comma-separated group-commit batch sizes."
  in
  let txns_arg = txns_arg 300 "Committed transactions per cell." in
  let run scale cache counts group_commits txns =
    print_string
      (Figures.concurrency_table
         (Figures.run_concurrency ~scale ~cache_mb:cache ~clients:counts ~group_commits ~txns
            ~progress ()))
  in
  Cmd.v
    (Cmd.info "clients"
       ~doc:
         "Concurrency sweep: simulated multi-client normal execution per (clients, \
          group_commit) cell, with the cross-cell determinism digest check")
    Term.(const run $ scale_arg $ cache_arg $ client_counts_arg $ group_commits_arg $ txns_arg)

let shards_cmd =
  let shard_counts_arg = counts_arg [ 1; 2; 4; 8 ] "Comma-separated shard counts to sweep." in
  let client_counts_arg =
    counts_arg ~name:"clients" [ 4; 8 ] "Comma-separated client counts to sweep."
  in
  let txns_arg = txns_arg 300 "Committed transactions per cell." in
  let net_arg =
    Arg.(
      value & flag
      & info [ "net" ]
          ~doc:
            "Route the TC-DC protocol over simulated network links (latency model from \
             DEUT_NET_* / defaults) instead of in-process calls.")
  in
  let run scale cache counts clients txns net =
    print_string
      (Figures.sharding_table
         (Figures.run_sharding ~scale ~cache_mb:cache ~shards:counts ~clients ~txns ~net
            ~progress ()))
  in
  Cmd.v
    (Cmd.info "shards"
       ~doc:
         "Sharding sweep: one TC driving N data components per (shards, clients) cell, \
          with the cross-cell shard-transparency digest check and a single-shard-crash \
          availability scenario per multi-shard cell")
    Term.(
      const run $ scale_arg $ cache_arg $ shard_counts_arg $ client_counts_arg $ txns_arg
      $ net_arg)

let archive_cmd =
  let clients_arg =
    Arg.(
      value & opt pos_int 4
      & info [ "clients" ] ~docv:"N" ~doc:"Simulated concurrent clients driving the workload.")
  in
  let rounds_arg =
    Arg.(
      value & opt pos_int 6
      & info [ "rounds" ] ~docv:"N" ~doc:"Checkpoint + archive-cut rounds to run.")
  in
  let txns_arg = txns_arg 100 "Committed transactions per round." in
  let run scale cache clients rounds txns =
    print_string
      (Figures.archiving_table
         (Figures.run_archiving ~scale ~cache_mb:cache ~clients ~rounds ~txns_per_round:txns
            ~progress ()))
  in
  Cmd.v
    (Cmd.info "archive"
       ~doc:
         "Log-archiving sweep: the long-running multi-client workload with periodic \
          checkpoint + archive cuts, run with archiving off and on.  Shows the live log \
          staying bounded while logged bytes grow, checks the sealed-coverage durability \
          contract every round, cross-checks the final digests, and restarts from the \
          truncated log + archive with every method (oracle-verified).")
    Term.(const run $ scale_arg $ cache_arg $ clients_arg $ rounds_arg $ txns_arg)

let crash_cmd =
  let methods_arg =
    Arg.(
      value
      & opt (list method_conv) Recovery.all_methods
      & info [ "m"; "methods" ] ~docv:"METHODS"
          ~doc:"Recovery methods to run (log0, log1, log2, sql1, sql2, aries).")
  in
  let repeat_arg =
    Arg.(
      value & opt pos_int 1
      & info [ "r"; "repeat" ] ~docv:"N"
          ~doc:
            "Recover N times per method (fresh copies of the same image) and report redo time              mean ± stddev — the paper notes the high run-to-run variance of the prefetching              methods.")
  in
  let run scale cache methods repeat workers =
    let crash = build_crash ~scale ~cache methods in
    Printf.printf
      "crash image: %d db pages, %d dirty of %d cached (%.1f%% of cache), %d Δ / %d BW \
       records, %d updates run\n\n"
      crash.Experiment.db_pages crash.Experiment.dirty_at_crash crash.Experiment.cached_at_crash
      (100.0 *. crash.Experiment.dirty_fraction)
      crash.Experiment.deltas_total crash.Experiment.bws_total crash.Experiment.updates_run;
    List.iter
      (fun m ->
        let stats = Experiment.run_method ?workers crash m in
        Printf.printf "--- %s (verified against the oracle) ---\n%s\n"
          (Recovery.method_to_string m)
          (Recovery_stats.to_string stats);
        if repeat > 1 then begin
          let acc = Deut_sim.Stats.create () in
          Deut_sim.Stats.add acc (Recovery_stats.redo_ms stats);
          for _ = 2 to repeat do
            Deut_sim.Stats.add acc
              (Recovery_stats.redo_ms (Experiment.run_method ?workers crash m))
          done;
          Printf.printf "redo over %d runs: %s ms\n" repeat (Deut_sim.Stats.summary acc)
        end;
        print_newline ())
      methods
  in
  Cmd.v
    (Cmd.info "crash" ~doc:"One crash, recovered side-by-side with full per-method statistics")
    Term.(const run $ scale_arg $ cache_arg $ methods_arg $ repeat_arg $ workers_arg)

let trace_cmd =
  let method_arg =
    Arg.(
      value
      & pos 0 method_conv Recovery.Log2
      & info [] ~docv:"METHOD"
          ~doc:"Recovery method to trace (log0, log1, log2, sql1, sql2, aries).")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Chrome trace_event JSON output path (default trace_<method>_<cache>.json).")
  in
  let csv_arg =
    Arg.(
      value & flag
      & info [ "csv" ] ~doc:"Also write the flat event list as CSV next to the JSON file.")
  in
  let run scale cache method_ out emit_csv workers =
    or_fail @@ fun () ->
    let crash = build_crash ~scale ~cache [ method_ ] in
    let config = recovery_config crash ~tracing:true in
    let config =
      match workers with None -> config | Some w -> { config with Config.redo_workers = w }
    in
    recovering ~tracing:true method_;
    let db, stats, tr = Experiment.recover_traced ~config crash method_ in
    let path =
      match out with
      | Some p -> p
      | None ->
          Printf.sprintf "trace_%s_%d.json" (Recovery.method_to_string method_) cache
    in
    write_file path (Trace.to_chrome_json ~metrics:(Engine.metrics (Db.engine db)) tr);
    Printf.printf "wrote %s (%d events, %d dropped)\n" path (Trace.length tr) (Trace.dropped tr);
    if emit_csv then begin
      let csv_path = Filename.remove_extension path ^ ".csv" in
      write_file csv_path (Report.csv ~header:Trace.csv_header ~rows:(Trace.csv_rows tr));
      Printf.printf "wrote %s\n" csv_path
    end;
    print_newline ();
    print_string
      (Report.table ~title:"Per-phase breakdown (simulated ms)"
         ~header:[ "phase"; "ms" ]
         ~rows:
           [
             [ "analysis"; Report.ms (Recovery_stats.analysis_ms stats) ];
             [ "redo"; Report.ms (Recovery_stats.redo_ms stats) ];
             [ "undo"; Report.ms (Recovery_stats.undo_ms stats) ];
             [ "total"; Report.ms (Recovery_stats.total_ms stats) ];
           ]
         ());
    print_newline ();
    (* Cross-check the trace against the counters: every page fetch and every
       redo candidate must have produced exactly one span. *)
    let fetch_spans = Trace.count tr ~kind:Trace.Span ~name:"page_fetch" () in
    let redo_spans = Trace.count tr ~kind:Trace.Span ~name:"redo_op" () in
    let fetches =
      stats.Recovery_stats.data_page_fetches + stats.Recovery_stats.index_page_fetches
    in
    let candidates = stats.Recovery_stats.redo_candidates in
    Printf.printf "page_fetch spans: %d (stats: %d)\nredo_op spans:    %d (stats: %d)\n"
      fetch_spans fetches redo_spans candidates;
    if fetch_spans <> fetches || redo_spans <> candidates then begin
      Printf.eprintf "FAIL: trace spans disagree with Recovery_stats counters\n";
      exit 1
    end;
    print_endline "trace/counter cross-check OK"
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Recover once with virtual-clock tracing on and export a Chrome trace_event JSON \
          (load it in chrome://tracing or Perfetto); validates span counts against \
          Recovery_stats.")
    Term.(const run $ scale_arg $ cache_arg $ method_arg $ out_arg $ csv_arg $ workers_arg)

(* Shared by analyze/metrics: one traced (or not), oracle-verified recovery
   of the standard Figure-2 crash.  Profiling pins redo_workers/clients to
   1 so the emitted profile is byte-identical regardless of the
   DEUT_REDO_WORKERS / DEUT_CLIENTS environment — a committed baseline must
   not depend on the CI matrix leg that produced it. *)
let profiled_config crash ~tracing =
  { (recovery_config crash ~tracing) with Config.redo_workers = 1; clients = 1 }

let method_pos_arg =
  Arg.(
    value
    & pos 0 method_conv Recovery.Log2
    & info [] ~docv:"METHOD" ~doc:"Recovery method (log0, log1, log2, sql1, sql2, aries).")

let analyze_cmd =
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Write the profile JSON here.")
  in
  let trace_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:"Also export the Chrome trace_event JSON (with the metrics snapshot embedded).")
  in
  let csv_arg =
    Arg.(
      value & flag
      & info [ "csv" ] ~doc:"Also write the profile as CSV next to the $(b,--out) file.")
  in
  let check_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "check" ] ~docv:"BASELINE"
          ~doc:
            "Compare against a committed baseline profile JSON and exit non-zero when \
             stall-attributed time or fetch counts regress beyond the tolerance.")
  in
  let tolerance_arg =
    Arg.(
      value & opt float 10.0
      & info [ "tolerance" ] ~docv:"PCT"
          ~doc:"Allowed regression, in percent over the baseline (default 10).")
  in
  let run scale cache method_ out trace_out emit_csv check tolerance =
    or_fail @@ fun () ->
    let baseline = Option.map (fun p -> (p, read_input "baseline" Analysis.of_json p)) check in
    let crash = build_crash ~scale ~cache [ method_ ] in
    recovering ~tracing:true method_;
    let db, stats, tr =
      Experiment.recover_traced ~config:(profiled_config crash ~tracing:true) crash method_
    in
    let meta =
      [
        ("method", Recovery.method_to_string method_);
        ("cache_mb", string_of_int cache);
        ("scale", string_of_int scale);
      ]
    in
    let profile = Analysis.of_trace ~meta tr in
    print_string (Analysis.render profile);
    print_newline ();
    (* The profile is mined from the trace alone; the counters are kept by
       the engine.  They must agree exactly — same invariant as
       test_analysis.ml, enforced on every CLI run. *)
    let fetches =
      stats.Recovery_stats.data_page_fetches + stats.Recovery_stats.index_page_fetches
    in
    let stall_us =
      stats.Recovery_stats.data_stall_us +. stats.Recovery_stats.index_stall_us
    in
    let mismatches =
      List.filter_map
        (fun (name, got, want) -> if got = want then None else Some (name, got, want))
        [
          ("page fetches", profile.Analysis.fetch_total, fetches);
          ("index fetches", profile.Analysis.fetch_index, stats.Recovery_stats.index_page_fetches);
          ("stalls", profile.Analysis.stall_count, stats.Recovery_stats.stalls);
          ( "prefetch claims",
            profile.Analysis.pf_hit + profile.Analysis.pf_late,
            stats.Recovery_stats.prefetch_hits );
          ("prefetch issued", profile.Analysis.pf_issued, stats.Recovery_stats.prefetch_issued);
          ("redo ops", profile.Analysis.redo_ops, stats.Recovery_stats.redo_candidates);
        ]
    in
    let stall_drift = Float.abs (profile.Analysis.stall_total_us -. stall_us) in
    if mismatches <> [] || stall_drift > 0.01 then begin
      List.iter
        (fun (name, got, want) ->
          Printf.eprintf "FAIL: profile %s = %d, counters say %d\n" name got want)
        mismatches;
      if stall_drift > 0.01 then
        Printf.eprintf "FAIL: profile stall mass %.3f µs, counters say %.3f µs\n"
          profile.Analysis.stall_total_us stall_us;
      exit 1
    end;
    print_endline "profile/counter cross-check OK";
    let json = Analysis.to_json profile in
    (match out with
    | Some path ->
        write_file path json;
        Printf.printf "wrote %s\n" path;
        if emit_csv then begin
          let csv_path = Filename.remove_extension path ^ ".csv" in
          write_file csv_path
            (Report.csv ~header:Analysis.csv_header ~rows:(Analysis.csv_rows profile));
          Printf.printf "wrote %s\n" csv_path
        end
    | None -> ());
    (match trace_out with
    | Some path ->
        write_file path (Trace.to_chrome_json ~metrics:(Engine.metrics (Db.engine db)) tr);
        Printf.printf "wrote %s\n" path
    | None -> ());
    match baseline with
    | None -> ()
    | Some (baseline_path, baseline) ->
        let checks = Analysis.check ~baseline ~current:profile ~tolerance_pct:tolerance in
        print_newline ();
        Printf.printf "regression gate vs %s (tolerance +%g%%):\n" baseline_path tolerance;
        print_string (Analysis.check_table checks);
        if not (Analysis.check_ok checks) then begin
          Printf.eprintf "FAIL: profile regressed beyond tolerance\n";
          exit 1
        end;
        print_endline "profile gate OK"
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Recover once with tracing on and mine the trace into a profile: per-phase \
          compute/IO/stall budget, every stall attributed to the device span it waited on, \
          prefetched pages classified hit/late/wasted.  Cross-checks the profile against the \
          engine counters; with $(b,--check), gates against a committed baseline profile.")
    Term.(
      const run $ scale_arg $ cache_arg $ method_pos_arg $ out_arg $ trace_out_arg $ csv_arg
      $ check_arg $ tolerance_arg)

let bench_diff_cmd =
  let file_arg i docv doc = Arg.(required & pos i (some string) None & info [] ~docv ~doc) in
  let run old_path new_path =
    or_fail @@ fun () ->
    let read = read_input "bench summary" Deut_obs.Json.parse in
    let d = Deut_workload.Bench_summary.diff (read old_path) (read new_path) in
    List.iter (Printf.printf "  wall clock, not gated: %s\n") d.wall;
    List.iter print_endline d.simulated;
    if d.simulated <> [] then
      failwith
        (Printf.sprintf "%d simulated field(s) differ from %s" (List.length d.simulated) old_path);
    Printf.printf "simulated fields match %s\n" old_path
  in
  Cmd.v
    (Cmd.info "bench-diff"
       ~doc:
         "Compare two bench summaries (BENCH_recovery.json) field by field.  Lists every \
          differing path; wall-clock fields are printed old -> new but never gated, and any \
          other difference (a value, a missing key, a changed list length) exits 1.")
    Term.(
      const run
      $ file_arg 0 "OLD" "The reference summary, e.g. baselines/BENCH_recovery_quick.json."
      $ file_arg 1 "NEW" "The summary to check.")

let tune_cmd =
  let ints_opt name doc =
    Arg.(value & opt (some (list pos_int)) None & info [ name ] ~docv:"NS" ~doc)
  in
  let windows_arg = ints_opt "windows" "Comma-separated prefetch_window candidates." in
  let chunks_arg = ints_opt "chunks" "Comma-separated prefetch_chunk candidates." in
  let lookaheads_arg =
    ints_opt "lookaheads" "Comma-separated prefetch_lookahead candidates (SQL2 only)."
  in
  let run scale cache method_ windows chunks lookaheads =
    (match method_ with
    | Recovery.Log2 | Recovery.Sql2 -> ()
    | m ->
        Printf.eprintf "tune: %s does not prefetch; only log2 and sql2 can be tuned\n"
          (Recovery.method_to_string m);
        exit 1);
    let cells =
      Figures.run_tuning ~scale ~cache_sizes:[ cache ] ~methods:[ method_ ] ?windows ?chunks
        ?lookaheads ~progress ()
    in
    print_string (Figures.tuning_table cells)
  in
  Cmd.v
    (Cmd.info "tune"
       ~doc:
         "Sweep prefetch settings for one method at one cache size, score each candidate by \
          its trace-mined profile (stall-attributed time plus late/wasted-prefetch \
          penalties), and print the recommendation table.  Every candidate recovery is \
          oracle-verified.")
    Term.(
      const run $ scale_arg $ cache_arg $ method_pos_arg $ windows_arg $ chunks_arg
      $ lookaheads_arg)

let instant_cmd =
  let min_speedup_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "min-speedup" ] ~docv:"R"
          ~doc:
            "Gate: fail (exit 1) unless time-to-full-recovery is at least $(docv)x the \
             time-to-first-transaction at the smallest cache size.")
  in
  let probes_arg =
    Arg.(
      value & opt pos_int 32
      & info [ "probes" ] ~docv:"N"
          ~doc:"Probe reads served while the background redo is still draining.")
  in
  let run scale cache_sizes probes min_speedup =
    let cells = Figures.run_availability ~scale ~cache_sizes ~probes ~progress () in
    print_string (Figures.availability_table cells);
    match min_speedup with
    | None -> ()
    | Some r -> (
        let by_size =
          List.stable_sort
            (fun (a : Figures.availability_cell) b -> compare a.Figures.v_cache_mb b.Figures.v_cache_mb)
            cells
        in
        match by_size with
        | [] ->
            Printf.eprintf "FAIL: no availability cells were produced\n";
            exit 1
        | smallest :: _ ->
            print_newline ();
            if smallest.Figures.v_speedup < r then begin
              Printf.eprintf
                "FAIL: availability gate — %.1fx at %d MB, need >= %.1fx (open %.3f ms, \
                 drained %.3f ms)\n"
                smallest.Figures.v_speedup smallest.Figures.v_cache_mb r
                smallest.Figures.v_ttft_ms smallest.Figures.v_drained_ms;
              exit 1
            end;
            Printf.printf "availability gate OK: %.1fx at %d MB (need >= %.1fx)\n"
              smallest.Figures.v_speedup smallest.Figures.v_cache_mb r)
  in
  Cmd.v
    (Cmd.info "instant"
       ~doc:
         "Instant-recovery availability sweep: per cache size, recover with InstantLog2 and \
          report time-to-first-transaction vs time-to-full-recovery.  Each cell first \
          proves the determinism gate — the drained InstantLog2 state is byte-identical to \
          offline Log2 — then serves probe reads during the staged drain.  With \
          $(b,--min-speedup), acts as a regression gate on the availability win.")
    Term.(const run $ scale_arg $ cache_sizes_arg $ probes_arg $ min_speedup_arg)

let domains_cmd =
  let domains_arg =
    Arg.(
      value
      & opt (some pos_int) None
      & info [ "d"; "domains" ] ~docv:"N"
          ~doc:
            "Domains for the parallel run (default: DEUT_DOMAINS when set above 1, else \
             min(4, available cores)).")
  in
  let min_speedup_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "min-speedup" ] ~docv:"R"
          ~doc:
            "Gate: fail (exit 1) unless the parallel sweep finishes at least $(docv)x \
             faster than the sequential one.  Wall-clock speedup tracks the machine's \
             real core count — only gate on hardware with enough idle cores.")
  in
  let run scale cache_sizes domains min_speedup =
    let d = or_fail (fun () -> Figures.run_domains ~scale ~cache_sizes ?domains ~progress ()) in
    let speedup = Figures.domains_speedup d in
    print_string
      (Report.table ~title:"Real multicore — identical results, wall clock only"
         ~header:
           [ "measure"; "sequential"; Printf.sprintf "%d domains" d.Figures.dm_domains; "speedup" ]
         ~rows:
           [
             [
               "fig2 sweep (s)";
               Printf.sprintf "%.2f" d.Figures.dm_seq_wall_s;
               Printf.sprintf "%.2f" d.Figures.dm_par_wall_s;
               Printf.sprintf "%.2fx" speedup;
             ];
           ]
         ());
    Printf.printf
      "determinism gate OK: digests byte-identical at 1 and %d domains; %d core(s) available\n"
      d.Figures.dm_domains d.Figures.dm_cores;
    match min_speedup with
    | None -> ()
    | Some r ->
        if speedup < r then begin
          Printf.eprintf "FAIL: domains gate — %.2fx, need >= %.2fx (%d cores available)\n"
            speedup r d.Figures.dm_cores;
          exit 1
        end;
        Printf.printf "domains gate OK: %.2fx (need >= %.2fx)\n" speedup r
  in
  Cmd.v
    (Cmd.info "domains"
       ~doc:
         "Real-multicore determinism and speedup check: run the Figure-2 sweep \
          sequentially and fanned across OS-level domains and prove every cell's store \
          and logical digests byte-identical.  With $(b,--min-speedup), gates on the \
          wall-clock win.")
    Term.(const run $ scale_arg $ cache_sizes_arg $ domains_arg $ min_speedup_arg)

let metrics_cmd =
  let run scale cache method_ =
    let crash = build_crash ~scale ~cache [ method_ ] in
    recovering ~tracing:false method_;
    let db, _ =
      Db.recover ~config:(profiled_config crash ~tracing:false) crash.Experiment.image method_
    in
    (* Rendered before the oracle check, so the dump holds the recovery's
       own traffic and not the checker's reads. *)
    let dump = Metrics.render (Engine.metrics (Db.engine db)) in
    Experiment.verify
      ("recovery with " ^ Recovery.method_to_string method_)
      crash.Experiment.driver db;
    print_string dump
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Recover once and dump the engine's metrics registry as the recovery left \
          it, then verify the recovered state against the oracle.")
    Term.(const run $ scale_arg $ cache_arg $ method_pos_arg)

let forensics_cmd =
  let seed_arg =
    Arg.(
      required
      & pos 0 (some int) None
      & info [] ~docv:"SEED" ~doc:"Fuzz seed whose crash image to rebuild.")
  in
  let shards_arg =
    Arg.(
      value & opt pos_int 1
      & info [ "shards" ] ~docv:"N"
          ~doc:"Shard count the failing run used (the fuzz suite's DEUT_SHARDS).")
  in
  let run seed shards =
    (* Same generator the fuzz suite uses: the image — flight snapshot
       included — is a pure function of (seed, shards), so this prints
       exactly the black box the failing run crashed with. *)
    let image = Deut_workload.Fuzz.build_image ~shards seed in
    match Deut_core.Crash_image.flight image with
    | Some snap -> print_string (Deut_obs.Flight.render snap)
    | None ->
        Printf.eprintf
          "FAIL: no flight recorder in the image — was it built with DEUT_FLIGHT=0?\n";
        exit 1
  in
  Cmd.v
    (Cmd.info "forensics"
       ~doc:
         "Post-crash forensics for a crash-recovery fuzz seed: rebuild the seed's sampled \
          crash image and dump the flight recorder that rode through the crash — the last \
          N protocol sends/receives, log forces, checkpoints and recovery-phase \
          transitions per component, plus causal chains grouped by message id.  \
          Deterministic: same seed, byte-identical dump.")
    Term.(const run $ seed_arg $ shards_arg)

let () =
  let doc =
    "reproduction of 'Implementing Performance Competitive Logical Recovery' (VLDB 2011)"
  in
  let info = Cmd.info "repro_cli" ~version:"1.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            fig2_cmd;
            fig3_cmd;
            appd_cmd;
            splitlog_cmd;
            workers_cmd;
            clients_cmd;
            shards_cmd;
            archive_cmd;
            crash_cmd;
            trace_cmd;
            analyze_cmd;
            bench_diff_cmd;
            tune_cmd;
            instant_cmd;
            domains_cmd;
            metrics_cmd;
            forensics_cmd;
          ]))
