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
module Trace = Deut_obs.Trace
module Metrics = Deut_obs.Metrics
module Analysis = Deut_obs.Analysis
module Json = Deut_obs.Json

let progress msg = Printf.eprintf "[repro] %s\n%!" msg

(* The DEUT_* environment, read once: every command's configs start from
   it.  A malformed value is a usage error, reported before any work. *)
let env =
  try Config.of_env Config.default
  with Invalid_argument msg ->
    Printf.eprintf "repro_cli: %s\n" msg;
    exit Cmd.Exit.cli_error

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

let scale_arg =
  let doc = "Divide the paper's sizes (database, cache, checkpoint interval) by $(docv)." in
  Arg.(value & opt pos_int 64 & info [ "s"; "scale" ] ~docv:"N" ~doc)

let cache_arg =
  let doc = "Paper-equivalent cache size in MB (64..2048)." in
  Arg.(value & opt pos_int 512 & info [ "c"; "cache" ] ~docv:"MB" ~doc)

let workers_arg =
  let doc =
    "Simulated parallel redo workers (default: DEUT_REDO_WORKERS for crash, 1 for analyze)."
  in
  Arg.(value & opt (some pos_int) None & info [ "w"; "workers" ] ~docv:"N" ~doc)

(* The standard Figure-2 crash at --cache/--scale, built for [methods];
   --workers sets the redo worker count its recoveries inherit. *)
let build_crash ?(workers = env.Config.redo_workers) ~scale ~cache methods =
  progress (Printf.sprintf "building crash at cache %d MB, scale 1/%d" cache scale);
  Experiment.paper_crash ~config:{ env with Config.redo_workers = workers } ~scale ~cache_mb:cache
    methods

let recovering ~tracing method_ =
  progress
    (Printf.sprintf "recovering with %s%s" (Recovery.method_to_string method_)
       (if tracing then ", tracing on" else ""))

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

(* One command per sweep of the registry: --scale plus one option per
   parameter, defaulting to the bench's full value.  [adjust] changes the
   run context before the sweep runs (tune's METHOD); [gate] checks the
   sweep's JSON after its tables print (instant's --min-speedup). *)
let sweep_cmd ?(adjust = Term.const Fun.id) ?(gate = Term.const ignore) (sw : Figures.sweep) =
  let param (p : Figures.param) =
    let opt kind default docv = Arg.(value & opt kind default & info [ p.flag ] ~docv ~doc:p.doc) in
    if p.single then Term.(const (fun v -> [ v ]) $ opt pos_int (List.hd p.full) "N")
    else opt (Arg.list pos_int) p.full "NS"
  in
  let args =
    List.fold_right
      (fun (p : Figures.param) rest -> Term.(const (fun v rest -> (p.flag, v) :: rest) $ param p $ rest))
      sw.params (Term.const [])
  in
  let run adjust gate scale args =
    or_fail @@ fun () ->
    let ctx = adjust { Figures.config = env; scale; cache = None; methods = None; progress } in
    let json = sw.run ctx args in
    print_string (String.concat "\n" (List.map snd (Figures.tables sw json)));
    gate json
  in
  Cmd.v (Cmd.info sw.command ~doc:sw.doc) Term.(const run $ adjust $ gate $ scale_arg $ args)

let tune_method =
  let method_arg =
    Arg.(
      value
      & pos 0 (some method_conv) None
      & info [] ~docv:"METHOD" ~doc:"Tune only this method: log2 or sql2 (default: both).")
  in
  let adjust m (ctx : Figures.ctx) =
    match m with
    | None -> ctx
    | Some ((Recovery.Log2 | Recovery.Sql2) as m) -> { ctx with methods = Some [ m ] }
    | Some m ->
        failwith
          (Printf.sprintf "tune: %s does not prefetch; only log2 and sql2 can be tuned"
             (Recovery.method_to_string m))
  in
  Term.(const adjust $ method_arg)

let min_speedup_gate =
  let min_speedup_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "min-speedup" ] ~docv:"R"
          ~doc:
            "Gate: fail (exit 1) unless time-to-full-recovery is at least $(docv)x the \
             time-to-first-transaction at the smallest cache size.")
  in
  let gate min_speedup json =
    Option.iter
      (fun min_speedup ->
        print_newline ();
        match Deut_workload.Bench_summary.availability_gate ~min_speedup json with
        | Ok verdict -> print_endline verdict
        | Error msg -> failwith msg)
      min_speedup
  in
  Term.(const gate $ min_speedup_arg)

let sweep_cmds =
  List.map
    (fun (sw : Figures.sweep) ->
      match sw.command with
      | "tune" -> sweep_cmd ~adjust:tune_method sw
      | "instant" -> sweep_cmd ~gate:min_speedup_gate sw
      | _ -> sweep_cmd sw)
    Figures.sweeps

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
    let crash = build_crash ?workers ~scale ~cache methods in
    Printf.printf
      "crash image: %d db pages, %d dirty of %d cached (%.1f%% of cache), %d Δ / %d BW \
       records, %d updates run\n\n"
      crash.Experiment.db_pages crash.Experiment.dirty_at_crash crash.Experiment.cached_at_crash
      (100.0 *. crash.Experiment.dirty_fraction)
      crash.Experiment.deltas_total crash.Experiment.bws_total crash.Experiment.updates_run;
    List.iter
      (fun m ->
        let stats = Experiment.run_method crash m in
        Printf.printf "--- %s (verified against the oracle) ---\n%s\n"
          (Recovery.method_to_string m)
          (Recovery_stats.to_string stats);
        if repeat > 1 then begin
          let acc = Deut_sim.Stats.create () in
          Deut_sim.Stats.add acc (Recovery_stats.redo_ms stats);
          for _ = 2 to repeat do
            Deut_sim.Stats.add acc
              (Recovery_stats.redo_ms (Experiment.run_method crash m))
          done;
          Printf.printf "redo over %d runs: %s ms\n" repeat (Deut_sim.Stats.summary acc)
        end;
        print_newline ())
      methods
  in
  Cmd.v
    (Cmd.info "crash" ~doc:"One crash, recovered side-by-side with full per-method statistics")
    Term.(const run $ scale_arg $ cache_arg $ methods_arg $ repeat_arg $ workers_arg)

(* The config of analyze's and metrics' one recovery: the crash's own
   (built from [env], so the shard count is the paper image's one), with
   tracing as asked into a ring of at least 1M events (DEUT_TRACE_CAP can
   raise it), and redo_workers/clients pinned (to [workers] and 1) so a
   committed baseline does not depend on the CI leg that produced it. *)
let profiled_config ?(workers = 1) crash ~tracing =
  {
    crash.Experiment.image.Deut_core.Crash_image.config with
    Config.tracing;
    trace_capacity = Stdlib.max (1 lsl 20) env.Config.trace_capacity;
    redo_workers = workers;
    clients = 1;
  }

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
          ~doc:
            "Also export the Chrome trace_event JSON (with the metrics snapshot embedded); \
             load it in chrome://tracing or Perfetto.")
  in
  let check_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "check" ] ~docv:"BASELINE"
          ~doc:
            "Compare every field of the profile JSON with a committed baseline profile, \
             the way $(b,bench-diff) compares bench summaries, and exit 1 listing each \
             differing path when any differs.")
  in
  let run scale cache method_ out trace_out check workers =
    or_fail @@ fun () ->
    let baseline = Option.map (fun p -> (p, read_input "baseline" Json.parse p)) check in
    let crash = build_crash ~scale ~cache [ method_ ] in
    recovering ~tracing:true method_;
    let meta =
      [
        ("method", Recovery.method_to_string method_);
        ("cache_mb", string_of_int cache);
        ("scale", string_of_int scale);
      ]
    in
    let db, _, tr, profile =
      Experiment.recover_traced ~meta ~config:(profiled_config ?workers crash ~tracing:true) crash
        method_
    in
    print_string (Analysis.render profile);
    print_newline ();
    print_endline "profile/counter cross-check OK";
    let json = Analysis.to_json profile in
    Option.iter
      (fun path ->
        write_file path json;
        Printf.printf "wrote %s\n" path)
      out;
    Option.iter
      (fun path ->
        write_file path (Trace.to_chrome_json ~metrics:(Engine.metrics (Db.engine db)) tr);
        Printf.printf "wrote %s (%d events)\n" path (Trace.length tr))
      trace_out;
    Option.iter
      (fun (baseline_path, baseline) ->
        let d = Json.diff baseline (Result.get_ok (Json.parse json)) in
        List.iter print_endline d.gated;
        if d.gated <> [] then
          failwith
            (Printf.sprintf "%d profile field(s) differ from %s" (List.length d.gated)
               baseline_path);
        Printf.printf "profile matches %s in every field\n" baseline_path)
      baseline
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Recover once with tracing on and mine the trace into a profile: per-phase \
          compute/IO/stall budget, every stall attributed to the device span it waited on, \
          prefetched pages classified hit/late/wasted.  Cross-checks the profile against the \
          engine counters (exit 1 on any mismatch); with $(b,--check), gates it exactly \
          against a committed baseline profile.")
    Term.(
      const run $ scale_arg $ cache_arg $ method_pos_arg $ out_arg $ trace_out_arg $ check_arg
      $ workers_arg)

let bench_diff_cmd =
  let file_arg i docv doc = Arg.(required & pos i (some string) None & info [] ~docv ~doc) in
  let run old_path new_path =
    or_fail @@ fun () ->
    let read = read_input "bench summary" Json.parse in
    let current = read new_path in
    let d = Json.diff ~ungated:Deut_workload.Bench_summary.is_wall (read old_path) current in
    List.iter (Printf.printf "  wall clock, not gated: %s\n") d.ungated;
    List.iter print_endline d.gated;
    let broken = Deut_workload.Bench_summary.check current in
    List.iter (Printf.printf "invariant broken: %s\n") broken;
    if d.gated <> [] || broken <> [] then
      failwith
        (Printf.sprintf "%d simulated field(s) differ from %s; %d invariant(s) broken in %s"
           (List.length d.gated) old_path (List.length broken) new_path);
    Printf.printf "simulated fields match %s; every invariant holds in %s\n" old_path new_path
  in
  Cmd.v
    (Cmd.info "bench-diff"
       ~doc:
         "Compare two bench summaries (BENCH_recovery.json) field by field.  Lists every \
          differing path; wall-clock fields are printed old -> new but never gated, and any \
          other difference (a value, a missing key, a changed list length) exits 1.  Also \
          checks the invariants every summary must show (sealed archive segments, the \
          instant-recovery speedup, both shard counts, one digest per sweep, ...) on NEW.")
    Term.(
      const run
      $ file_arg 0 "OLD" "The reference summary, e.g. baselines/BENCH_recovery_quick.json."
      $ file_arg 1 "NEW" "The summary to check.")

let show_cmd =
  let run path =
    or_fail @@ fun () ->
    let summary = read_input "bench summary" Json.parse path in
    match
      if Json.str summary "schema" <> Deut_workload.Bench_summary.schema then
        failwith (Printf.sprintf "%s is not a %s summary" path Deut_workload.Bench_summary.schema);
      List.filter_map
        (fun (sw : Figures.sweep) ->
          match Json.member sw.name summary with
          | block -> Some (Figures.sections sw block)
          | exception Json.Parse_error _ -> None)
        Figures.sweeps
    with
    | [] -> failwith (path ^ " holds no sweep")
    | texts -> print_string (String.concat "" texts)
    | exception Json.Parse_error msg -> failwith (Printf.sprintf "cannot read %s: %s" path msg)
  in
  Cmd.v
    (Cmd.info "show"
       ~doc:
         "Reprint the tables of a saved bench summary (BENCH_recovery.json): every sweep block \
          it holds, rendered by the code the bench prints its own tables with, so the output \
          equals the bench's sweep sections byte for byte.")
    Term.(
      const run
      $ Arg.(
          required
          & pos 0 (some string) None
          & info [] ~docv:"SUMMARY" ~doc:"A bench summary, e.g. BENCH_recovery.json."))

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
    let image = Deut_workload.Fuzz.build_image ~config:{ env with Config.shards } seed in
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
          (sweep_cmds
          @ [ crash_cmd; analyze_cmd; bench_diff_cmd; show_cmd; metrics_cmd; forensics_cmd ])))
