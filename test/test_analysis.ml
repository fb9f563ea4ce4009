(* Trace-mining profiler: stall-attribution invariants against the engine
   counters and the stall histogram, prefetch hit/late/wasted
   reconciliation, byte-identical same-seed profiles, the exact profile
   gate, [Experiment.recover_traced]'s reconciliation, empty-input guards,
   and tuner scoring. *)

module Db = Deut_core.Db
module Config = Deut_core.Config
module Engine = Deut_core.Engine
module Recovery = Deut_core.Recovery
module Recovery_stats = Deut_core.Recovery_stats
module Workload = Deut_workload.Workload
module Driver = Deut_workload.Driver
module Trace = Deut_obs.Trace
module Metrics = Deut_obs.Metrics
module Analysis = Deut_obs.Analysis
module Json = Deut_obs.Json
module Experiment = Deut_workload.Experiment
module Tuner = Deut_obs.Tuner
module Figures = Deut_workload.Figures

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let close msg a b = check (Printf.sprintf "%s (%.6f vs %.6f)" msg a b) true (Float.abs (a -. b) < 1e-6)

(* Same small traced setup as test_trace.ml. *)
let traced_config =
  {
    Env.config with
    Config.page_size = 1024;
    pool_pages = 48;
    delta_period = 40;
    delta_capacity = 64;
    shards = 1;
    tracing = true;
    (* Pin the timing overlays so the single-cursor invariants below
       (phase stall <= phase duration) hold regardless of the
       DEUT_REDO_WORKERS / DEUT_CLIENTS environment the CI matrix sets. *)
    redo_workers = 1;
    clients = 1;
  }

let small_spec = { Workload.default with Workload.rows = 1200; value_size = 16; seed = 5 }

let make_crash () =
  let driver = Driver.create ~config:traced_config small_spec in
  Driver.run_crash_protocol driver ~checkpoints:3 ~interval:300 ~tail:15;
  Driver.start_loser driver ~ops:8;
  (driver, Driver.crash driver)

let recover_profiled image method_ =
  let db, stats = Db.recover ~config:traced_config image method_ in
  let tr =
    match Engine.trace (Db.engine db) with
    | Some tr -> tr
    | None -> Alcotest.fail "tracing enabled in config but engine has no trace"
  in
  (db, stats, tr, Analysis.of_trace tr)

(* ---------- attribution invariants ---------- *)

let test_stall_attribution_matches_counters () =
  let _, image = make_crash () in
  List.iter
    (fun m ->
      let name fmt = Printf.sprintf "%s: %s" (Recovery.method_to_string m) fmt in
      let db, stats, _, p = recover_profiled image m in
      check_int (name "stall span count = counter") stats.Recovery_stats.stalls p.Analysis.stall_count;
      close (name "stall mass = counter stall time")
        (stats.Recovery_stats.data_stall_us +. stats.Recovery_stats.index_stall_us)
        p.Analysis.stall_total_us;
      (* The histogram records exactly the waits the spans describe: total
         stall time attributed by the profiler equals the histogram mass. *)
      (match Metrics.find_histogram (Engine.metrics (Db.engine db)) "cache.stall_wait_us" with
      | None -> Alcotest.fail "cache.stall_wait_us not registered"
      | Some h ->
          close (name "stall mass = histogram mass")
            (Metrics.read (Engine.metrics (Db.engine db)) "cache.stall_wait_us")
            p.Analysis.stall_total_us;
          check_int (name "stall spans = histogram n") (Metrics.observations h)
            p.Analysis.stall_count);
      (* Every stall waits on a request the deterministic disk model had
         already scheduled, so its span must find its device span. *)
      close (name "every stall attributed") p.Analysis.stall_total_us
        p.Analysis.stall_attributed_us;
      let bucket_sum =
        List.fold_left (fun acc s -> acc +. s.Analysis.src_stall_us) 0.0 p.Analysis.sources
      in
      close (name "attribution buckets partition the mass") p.Analysis.stall_attributed_us
        bucket_sum;
      check_int (name "bucket counts partition the spans") p.Analysis.stall_count
        (List.fold_left (fun acc s -> acc + s.Analysis.src_count) 0 p.Analysis.sources))
    [ Recovery.Log2; Recovery.Sql2; Recovery.Log1 ]

let test_prefetch_classes_reconcile () =
  let _, image = make_crash () in
  List.iter
    (fun m ->
      let name fmt = Printf.sprintf "%s: %s" (Recovery.method_to_string m) fmt in
      let _, stats, _, p = recover_profiled image m in
      check_int (name "hit + late = prefetch_hits counter")
        stats.Recovery_stats.prefetch_hits
        (p.Analysis.pf_hit + p.Analysis.pf_late);
      check_int (name "issued = prefetch_issued counter") stats.Recovery_stats.prefetch_issued
        p.Analysis.pf_issued;
      check_int (name "hit + late + wasted = issued") p.Analysis.pf_issued
        (p.Analysis.pf_hit + p.Analysis.pf_late + p.Analysis.pf_wasted);
      check_int (name "fetch total = counters")
        (stats.Recovery_stats.data_page_fetches + stats.Recovery_stats.index_page_fetches)
        p.Analysis.fetch_total;
      check_int (name "index fetches = counter") stats.Recovery_stats.index_page_fetches
        p.Analysis.fetch_index;
      check_int (name "prefetched fetches = claims") stats.Recovery_stats.prefetch_hits
        p.Analysis.fetch_prefetched)
    [ Recovery.Log2; Recovery.Sql2 ]

let test_phase_budget_consistent () =
  let _, image = make_crash () in
  let _, stats, _, p = recover_profiled image Recovery.Log2 in
  close "profile total = analysis + redo + undo"
    (stats.Recovery_stats.analysis_us +. stats.Recovery_stats.redo_us
    +. stats.Recovery_stats.undo_us)
    p.Analysis.total_us;
  List.iter
    (fun ph ->
      check
        (Printf.sprintf "phase %s: overlap <= io busy" ph.Analysis.ph_name)
        true
        (ph.Analysis.ph_overlap_us <= ph.Analysis.ph_io_us +. 1e-9);
      check
        (Printf.sprintf "phase %s: budget components non-negative" ph.Analysis.ph_name)
        true
        (ph.Analysis.ph_stall_us >= 0.0 && ph.Analysis.ph_io_us >= 0.0
        && ph.Analysis.ph_compute_us >= 0.0))
    p.Analysis.phases;
  (* Single-cursor recovery: a phase cannot wait longer than it lasted. *)
  List.iter
    (fun ph ->
      check
        (Printf.sprintf "phase %s: stall <= duration" ph.Analysis.ph_name)
        true
        (ph.Analysis.ph_stall_us <= ph.Analysis.ph_dur_us +. 1e-9))
    p.Analysis.phases

(* ---------- determinism and round-trip ---------- *)

let test_profiles_byte_identical () =
  let _, image = make_crash () in
  List.iter
    (fun m ->
      let _, _, _, p1 = recover_profiled image m in
      let _, _, _, p2 = recover_profiled image m in
      check
        (Printf.sprintf "%s: same-seed profile JSON byte-identical" (Recovery.method_to_string m))
        true
        (String.equal (Analysis.to_json p1) (Analysis.to_json p2));
      check
        (Printf.sprintf "%s: same-seed render byte-identical" (Recovery.method_to_string m))
        true
        (String.equal (Analysis.render p1) (Analysis.render p2)))
    [ Recovery.Log2; Recovery.Sql2 ]

(* ---------- the exact profile gate ---------- *)

let json_of p =
  match Json.parse (Analysis.to_json p) with
  | Ok j -> j
  | Error msg -> Alcotest.failf "profile JSON does not parse: %s" msg

(* [analyze --check] diffs every field: one prefetch claimed late instead
   of on time moves no total and no fetch count, and must still be
   reported, as exactly the two leaves that moved. *)
let test_gate_hit_to_late () =
  let _, image = make_crash () in
  let _, _, _, p = recover_profiled image Recovery.Log2 in
  check "the crash claims a prefetch on time" true (p.Analysis.pf_hit > 0);
  let d = Json.diff (json_of p) (json_of p) in
  check "a profile against itself: no difference" true (d.Json.gated = [] && d.Json.ungated = []);
  let moved = { p with Analysis.pf_hit = p.Analysis.pf_hit - 1; pf_late = p.Analysis.pf_late + 1 } in
  let d = Json.diff (json_of p) (json_of moved) in
  Alcotest.(check (list string))
    "hit and late, and only they"
    [
      Printf.sprintf "/prefetch/hit: %d -> %d" p.Analysis.pf_hit moved.Analysis.pf_hit;
      Printf.sprintf "/prefetch/late: %d -> %d" p.Analysis.pf_late moved.Analysis.pf_late;
    ]
    d.Json.gated;
  check "nothing ungated" true (d.Json.ungated = [])

(* The paper crash at a tiny scale, profiled through [recover_traced]. *)
let paper_crash = lazy (Experiment.paper_crash ~config:Env.config ~scale:512 ~cache_mb:256 [])

let traced ?(workers = 1) run method_ =
  let config =
    {
      run.Experiment.image.Deut_core.Crash_image.config with
      Config.tracing = true;
      redo_workers = workers;
      clients = 1;
    }
  in
  Experiment.recover_traced ~config run method_

(* [recover_traced] reconciles the profile with the counters before it
   returns (it raises otherwise), serial and with parallel redo workers. *)
let test_recover_traced_workers () =
  let run = Lazy.force paper_crash in
  List.iter
    (fun (m, workers) ->
      let _, _, _, p = traced ~workers run m in
      check
        (Printf.sprintf "%s, %d workers: redo ran" (Recovery.method_to_string m) workers)
        true (p.Analysis.redo_ops > 0))
    [ (Recovery.Log2, 1); (Recovery.Log2, 4); (Recovery.Log1, 4); (Recovery.Sql2, 4) ]

(* Every stall names one read on its device's lane, and that read ends
   when the stall does: the pool records the request it waits on rather
   than leaving the profiler to guess it from the clock. *)
let test_stalls_name_their_reads () =
  let run = Lazy.force paper_crash in
  List.iter
    (fun (m, workers) ->
      let name what =
        Printf.sprintf "%s, %d workers: %s" (Recovery.method_to_string m) workers what
      in
      let _, _, tr, p = traced ~workers run m in
      let events = Trace.events tr in
      let arg ev key = List.assoc_opt key ev.Trace.args in
      let stalls =
        List.filter (fun ev -> ev.Trace.kind = Trace.Span && ev.Trace.name = "stall") events
      in
      check (name "stalled") true (stalls <> []);
      List.iter
        (fun st ->
          let dev = arg st "dev" and io = arg st "io" in
          check (name "stall carries dev and io") true (dev <> None && io <> None);
          match
            List.filter
              (fun ev ->
                ev.Trace.cat = "io" && Some ev.Trace.track = dev && arg ev "io" = io)
              events
          with
          | [ req ] ->
              check (name "the request is a read") true
                (req.Trace.name = "io_read" || req.Trace.name = "io_batch");
              close (name "the request ends with the stall")
                (st.Trace.ts +. st.Trace.dur) (req.Trace.ts +. req.Trace.dur)
          | reqs -> Alcotest.failf "%s" (name (Printf.sprintf "%d spans match" (List.length reqs))))
        stalls;
      close (name "every stall attributed") p.Analysis.stall_total_us
        p.Analysis.stall_attributed_us)
    [
      (Recovery.Log2, 1); (Recovery.Sql2, 1); (Recovery.InstantLog2, 1); (Recovery.Log1, 4);
    ]

(* Every method's phase budget adds up to its recovery's total: analysis +
   redo + undo offline, and for instant recovery analysis + log_scan + the
   drain, which ends when [drained_us] is taken.  [recover_traced] checks
   this through [reconcile]; the instant case is also asserted here. *)
let test_phase_budget_sums () =
  let run = Lazy.force paper_crash in
  List.iter
    (fun m ->
      let _, stats, _, p = traced run m in
      if m = Recovery.InstantLog2 then begin
        check "InstantLog2 profile has a drain phase" true
          (List.exists (fun ph -> ph.Analysis.ph_name = "drain") p.Analysis.phases);
        close "InstantLog2 phase budget = drained_us" stats.Recovery_stats.drained_us
          p.Analysis.total_us
      end)
    Recovery.all_methods_with_instant

(* [reconcile] rejects that profile once any reconciled field is tampered
   with, naming the field. *)
let test_reconcile_tampered () =
  let _, stats, _, p = traced (Lazy.force paper_crash) Recovery.Log2 in
  let rejects field tampered =
    match Experiment.reconcile stats tampered with
    | () -> Alcotest.failf "a tampered %s passed" field
    | exception Failure msg ->
        check (Printf.sprintf "%s named in %S" field msg) true
          (let n = String.length field in
           let rec go i = i + n <= String.length msg && (String.sub msg i n = field || go (i + 1)) in
           go 0)
  in
  rejects "page fetches" { p with Analysis.fetch_total = p.Analysis.fetch_total + 1 };
  rejects "index fetches" { p with Analysis.fetch_index = p.Analysis.fetch_index - 1 };
  rejects "stalls" { p with Analysis.stall_count = p.Analysis.stall_count + 1 };
  rejects "prefetch claims" { p with Analysis.pf_late = p.Analysis.pf_late + 1 };
  rejects "prefetch issued" { p with Analysis.pf_issued = p.Analysis.pf_issued + 1 };
  rejects "redo ops" { p with Analysis.redo_ops = p.Analysis.redo_ops - 1 };
  rejects "stall mass" { p with Analysis.stall_total_us = p.Analysis.stall_total_us +. 1.0 };
  rejects "phase budget" { p with Analysis.total_us = p.Analysis.total_us +. 1.0 }

(* ---------- empty inputs must yield zeros, not NaN ---------- *)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let no_nan p =
  List.iter
    (fun (name, v) -> check (name ^ " is finite") true (Float.is_finite v))
    [
      ("total_us", p.Analysis.total_us);
      ("stall_total_us", p.Analysis.stall_total_us);
      ("stall_attributed_us", p.Analysis.stall_attributed_us);
    ];
  (* The rendered ratios are guarded too: no NaN or infinity is printed. *)
  let text = Analysis.render p in
  List.iter
    (fun bad -> check ("render prints no " ^ bad) false (contains text bad))
    [ "nan"; "inf" ]

let test_empty_trace_guards () =
  let p = Analysis.of_trace (Trace.create ~now:(fun () -> 0.0) ()) in
  check_int "no events, no fetches" 0 p.Analysis.fetch_total;
  check_int "no events, no stalls" 0 p.Analysis.stall_count;
  close "no events, zero stall mass" 0.0 p.Analysis.stall_total_us;
  let text = Analysis.render p in
  check "late and wasted fractions of nothing are 0" true
    (contains text "0 late (0.0% of claims), 0 wasted (0.0% of issued)");
  check "attribution of no stalls is vacuously complete" true
    (contains text "attributed 0.000 ms (100.0%)");
  no_nan p;
  check "render total on empty input" true (String.length (Analysis.render p) > 0);
  Alcotest.(check string)
    "empty profile JSON reprints unchanged" (Analysis.to_json p)
    (Json.to_string (json_of p));
  check "empty histogram percentile is 0" true
    (let m = Metrics.create () in
     Metrics.percentile (Metrics.histogram m "h") 95.0 = 0.0)

(* A warm, hit-everything run: phases exist but nothing stalled and nothing
   was fetched. *)
let test_warm_run_all_zero () =
  let clock = ref 0.0 in
  let tr = Trace.create ~now:(fun () -> !clock) () in
  Trace.span tr ~name:"analysis" ~cat:"phase" ~ts:0.0 ~dur:10.0 ();
  Trace.span tr ~name:"redo" ~cat:"phase" ~ts:10.0 ~dur:20.0 ();
  Trace.span tr ~name:"undo" ~cat:"phase" ~ts:30.0 ~dur:5.0 ();
  let p = Analysis.of_trace tr in
  close "warm total is the phase time" 35.0 p.Analysis.total_us;
  check_int "warm run fetched nothing" 0 p.Analysis.fetch_total;
  close "warm run stalled for nothing" 0.0 p.Analysis.stall_total_us;
  no_nan p;
  List.iter
    (fun ph -> close ("warm " ^ ph.Analysis.ph_name ^ " is pure compute") ph.Analysis.ph_dur_us
        ph.Analysis.ph_compute_us)
    p.Analysis.phases

(* ---------- synthetic classification ---------- *)

let test_synthetic_classification () =
  let clock = ref 0.0 in
  let tr = Trace.create ~now:(fun () -> !clock) () in
  let data = Trace.track_data_disk in
  (* One batch of three pages on the data disk, busy 0–100. *)
  List.iter
    (fun pid ->
      Trace.instant tr ~name:"prefetch_page" ~cat:"cache" ~args:[ ("pid", pid); ("lane", 0) ] ())
    [ 1; 2; 3 ];
  Trace.span tr ~name:"io_batch" ~cat:"io" ~track:data ~ts:0.0 ~dur:100.0
    ~args:[ ("first_pid", 1); ("count", 3); ("io", 1) ]
    ();
  (* Page 1 claimed after completion: a hit (zero-duration fetch). *)
  Trace.span tr ~name:"page_fetch" ~cat:"cache" ~ts:110.0 ~dur:0.0
    ~args:[ ("pid", 1); ("prefetched", 1); ("index", 0) ]
    ();
  (* Page 2 claimed at 60, waits until the batch lands at 100: late. *)
  Trace.span tr ~name:"stall" ~cat:"cache" ~ts:60.0 ~dur:40.0 ~args:[ ("dev", data); ("io", 1) ] ();
  Trace.span tr ~name:"page_fetch" ~cat:"cache" ~ts:60.0 ~dur:40.0
    ~args:[ ("pid", 2); ("prefetched", 1); ("index", 1) ]
    ();
  (* Page 3 never claimed: wasted.  A demand read stalls 120–150. *)
  Trace.span tr ~name:"io_read" ~cat:"io" ~track:data ~ts:120.0 ~dur:30.0
    ~args:[ ("pid", 9); ("io", 2) ]
    ();
  Trace.span tr ~name:"stall" ~cat:"cache" ~ts:120.0 ~dur:30.0 ~args:[ ("dev", data); ("io", 2) ] ();
  Trace.span tr ~name:"page_fetch" ~cat:"cache" ~ts:120.0 ~dur:30.0
    ~args:[ ("pid", 9); ("prefetched", 0); ("index", 0) ]
    ();
  let p = Analysis.of_trace tr in
  check_int "issued" 3 p.Analysis.pf_issued;
  check_int "hit" 1 p.Analysis.pf_hit;
  check_int "late" 1 p.Analysis.pf_late;
  check_int "wasted" 1 p.Analysis.pf_wasted;
  check_int "fetches" 3 p.Analysis.fetch_total;
  check_int "index fetches" 1 p.Analysis.fetch_index;
  check_int "demand fetches" 1 p.Analysis.fetch_demand;
  close "stall mass" 70.0 p.Analysis.stall_total_us;
  close "fully attributed" 70.0 p.Analysis.stall_attributed_us;
  let find kind =
    List.find_opt (fun s -> s.Analysis.src_kind = kind) p.Analysis.sources
  in
  (match find "io_batch" with
  | Some s ->
      close "late wait charged to the batch" 40.0 s.Analysis.src_stall_us;
      Alcotest.(check string) "batch on the data disk" "data-disk" s.Analysis.src_device
  | None -> Alcotest.fail "no io_batch attribution bucket");
  (match find "io_read" with
  | Some s -> close "demand wait charged to the read" 30.0 s.Analysis.src_stall_us
  | None -> Alcotest.fail "no io_read attribution bucket")

(* A stall is charged to the request it names, not to whichever span
   ends with it: here a log-disk read that started earlier ends at the
   same instant as the data-disk read the stall waited on.  On a shard's
   lane, where the data disk and the DC-log disk number their requests
   apart, the stall still finds its read; a stall naming no span stays
   unattributed. *)
let test_stall_joins_its_request () =
  let clock = ref 0.0 in
  let tr = Trace.create ~now:(fun () -> !clock) () in
  let data = Trace.track_data_disk and shard = Trace.track_shard 1 in
  Trace.span tr ~name:"io_log" ~cat:"io" ~track:Trace.track_log_disk ~ts:0.0 ~dur:100.0
    ~args:[ ("first_pid", 4); ("count", 1); ("io", 7) ]
    ();
  Trace.span tr ~name:"io_read" ~cat:"io" ~track:data ~ts:50.0 ~dur:50.0
    ~args:[ ("pid", 9); ("io", 3) ]
    ();
  Trace.span tr ~name:"stall" ~cat:"cache" ~ts:60.0 ~dur:40.0 ~args:[ ("dev", data); ("io", 3) ] ();
  let p = Analysis.of_trace tr in
  close "attributed" 40.0 p.Analysis.stall_attributed_us;
  (match p.Analysis.sources with
  | [ s ] ->
      Alcotest.(check (pair string string))
        "charged to the data-disk read" ("data-disk", "io_read")
        (s.Analysis.src_device, s.Analysis.src_kind)
  | _ -> Alcotest.fail "expected one attribution bucket");
  let tr = Trace.create ~now:(fun () -> !clock) () in
  Trace.span tr ~name:"io_log" ~cat:"io" ~track:shard ~ts:0.0 ~dur:80.0
    ~args:[ ("first_pid", 2); ("count", 1); ("io", 2) ]
    ();
  Trace.span tr ~name:"io_batch" ~cat:"io" ~track:shard ~ts:10.0 ~dur:70.0
    ~args:[ ("first_pid", 5); ("count", 2); ("io", 2) ]
    ();
  Trace.span tr ~name:"stall" ~cat:"cache" ~ts:20.0 ~dur:60.0 ~args:[ ("dev", shard); ("io", 2) ] ();
  Trace.span tr ~name:"stall" ~cat:"cache" ~ts:90.0 ~dur:5.0 ~args:[ ("dev", shard); ("io", 3) ] ();
  let p = Analysis.of_trace tr in
  close "stall mass" 65.0 p.Analysis.stall_total_us;
  close "the stall naming no span is unattributed" 60.0 p.Analysis.stall_attributed_us;
  match p.Analysis.sources with
  | [ s ] ->
      Alcotest.(check string) "shard stall charged to its data read" "io_batch" s.Analysis.src_kind
  | _ -> Alcotest.fail "expected one attribution bucket"

(* ---------- tuner ---------- ----------------------------------------- *)

let profile_with_stall us wasted =
  let clock = ref 0.0 in
  let tr = Trace.create ~now:(fun () -> !clock) () in
  for pid = 1 to wasted do
    Trace.instant tr ~name:"prefetch_page" ~cat:"cache" ~args:[ ("pid", pid); ("lane", 0) ] ()
  done;
  if us > 0.0 then begin
    Trace.span tr ~name:"io_read" ~cat:"io" ~track:Trace.track_data_disk ~ts:0.0 ~dur:us
      ~args:[ ("pid", 1); ("io", 1) ]
      ();
    Trace.span tr ~name:"stall" ~cat:"cache" ~ts:0.0 ~dur:us
      ~args:[ ("dev", Trace.track_data_disk); ("io", 1) ]
      ()
  end;
  Analysis.of_trace tr

let test_tuner_scoring () =
  let cand window = { Tuner.window; chunk = 16; lookahead = 512; source = "pf-list" } in
  let out window us wasted =
    { Tuner.cand = cand window; profile = profile_with_stall us wasted; redo_ms = us /. 1000.0 }
  in
  check "best of nothing" true (Tuner.best [] = None);
  (* Lower stall wins. *)
  (match Tuner.best [ out 8 500.0 0; out 16 100.0 0; out 32 300.0 0 ] with
  | Some o -> check_int "lowest stall-attributed score wins" 16 o.Tuner.cand.Tuner.window
  | None -> Alcotest.fail "no winner");
  (* Wasted prefetch is penalised even at equal stall time. *)
  (match Tuner.best [ out 8 100.0 4; out 16 100.0 0 ] with
  | Some o -> check_int "waste penalty breaks the stall tie" 16 o.Tuner.cand.Tuner.window
  | None -> Alcotest.fail "no winner");
  (* Exact score ties resolve by candidate order, deterministically. *)
  (match Tuner.best [ out 32 100.0 0; out 8 100.0 0; out 16 100.0 0 ] with
  | Some o -> check_int "tie-break picks the smallest setting" 8 o.Tuner.cand.Tuner.window
  | None -> Alcotest.fail "no winner");
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  (* The tuning sweep's renderer marks the default row and the winner,
     reading only the sweep's JSON row. *)
  let outcomes = [ out 8 500.0 0; out 32 300.0 0 ] in
  let name (c : Tuner.candidate) = Tuner.candidate_to_string c in
  let row =
    Json.Obj
      [
        ("cache_mb", Json.int 512);
        ("method", Json.Str "Log2");
        ("default", Json.Str (name (cand 8)));
        ("best", Option.fold ~none:Json.Null ~some:(fun o -> Json.Str (name o.Tuner.cand)) (Tuner.best outcomes));
        ( "outcomes",
          Json.Arr
            (List.map
               (fun o ->
                 let p = o.Tuner.profile in
                 Json.Obj
                   [
                     ("candidate", Json.Str (name o.Tuner.cand));
                     ("redo_ms", Json.fixed ~decimals:3 o.Tuner.redo_ms);
                     ("stall_ms", Json.fixed ~decimals:3 (p.Analysis.stall_total_us /. 1000.0));
                     ("late", Json.int p.Analysis.pf_late);
                     ("wasted", Json.int p.Analysis.pf_wasted);
                     ("score", Json.fixed ~decimals:1 (Tuner.score p));
                   ])
               outcomes) );
      ]
  in
  let tuning = List.find (fun (s : Figures.sweep) -> s.name = "tuning") Figures.sweeps in
  let lines =
    String.split_on_char '\n' (String.concat "" (List.map snd (Figures.tables tuning (Json.Arr [ row ]))))
  in
  let line_of c = List.find (fun l -> contains l (name (cand c))) lines in
  let ends_with suffix l = contains l suffix && String.ends_with ~suffix l in
  check "table marks the default row" true (ends_with " default" (line_of 8));
  check "table marks the winner" true (ends_with " <-- best" (line_of 32));
  check "table recommends the winner" true
    (List.mem ("recommendation: " ^ name (cand 32) ^ " — redo 0.300 ms vs default 0.500 ms (-40.0%)") lines)

let suite =
  [
    Alcotest.test_case "stall attribution matches counters" `Quick
      test_stall_attribution_matches_counters;
    Alcotest.test_case "prefetch classes reconcile" `Quick test_prefetch_classes_reconcile;
    Alcotest.test_case "phase budget consistent" `Quick test_phase_budget_consistent;
    Alcotest.test_case "same-seed profiles byte-identical" `Quick test_profiles_byte_identical;
    Alcotest.test_case "gate reports a prefetch hit turned late" `Quick test_gate_hit_to_late;
    Alcotest.test_case "recover_traced reconciles at 1 and 4 workers" `Quick
      test_recover_traced_workers;
    Alcotest.test_case "phase budget sums to every method's total" `Quick test_phase_budget_sums;
    Alcotest.test_case "reconcile rejects a tampered profile" `Quick test_reconcile_tampered;
    Alcotest.test_case "empty-input guards" `Quick test_empty_trace_guards;
    Alcotest.test_case "warm run reports zeros" `Quick test_warm_run_all_zero;
    Alcotest.test_case "synthetic classification" `Quick test_synthetic_classification;
    Alcotest.test_case "stall joins its request" `Quick test_stall_joins_its_request;
    Alcotest.test_case "every stall names its read" `Quick test_stalls_name_their_reads;
    Alcotest.test_case "tuner scoring" `Quick test_tuner_scoring;
  ]
