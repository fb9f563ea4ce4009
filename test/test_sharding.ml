(* Sharded data components behind the Dc_access protocol (§4.1 made
   explicit): shard transparency (same workload, same digest, at any shard
   count), whole-image crash/recovery at shards = 4, single-shard crash
   with siblings serving and per-shard recovery, cross-shard commit
   atomicity through the one TC log, the simulated-network transport's
   determinism, and the guard rails (barred methods, env knobs). *)

module Db = Deut_core.Db
module Config = Deut_core.Config
module Engine = Deut_core.Engine
module Dc_access = Deut_core.Dc_access
module Recovery = Deut_core.Recovery
module Recovery_stats = Deut_core.Recovery_stats
module Metrics = Deut_obs.Metrics
module Analysis = Deut_obs.Analysis
module Workload = Deut_workload.Workload
module Driver = Deut_workload.Driver
module Client_sched = Deut_workload.Client_sched
module Figures = Deut_workload.Figures
module Json = Deut_obs.Json

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let config ?(shards = 4) ?(net = false) () =
  {
    Env.config with
    Config.page_size = 1024;
    pool_pages = 64;
    locking = true;
    clients = 4;
    shards;
    net;
  }

let spec ~rows = { Workload.default with Workload.rows; seed = 1903 }

let verified driver db =
  match Driver.verify_recovered driver db with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let table = 1

(* A small hand-driven db: [n] committed rows striped over every shard. *)
let seeded ?shards ?net ~rows () =
  let db = Db.create ~config:(config ?shards ?net ()) () in
  Db.create_table db ~table;
  for k = 0 to rows - 1 do
    Db.put db ~table ~key:k ~value:(Printf.sprintf "v%d" k)
  done;
  Db.flush_commits db;
  db

(* {2 Shard transparency} *)

(* The facade contract: striping is invisible.  The same seeded workload
   must commit the identical logical state — byte-identical digest — at
   one, two, and four shards. *)
let test_digest_across_shard_counts () =
  let run shards =
    let driver = Driver.create ~config:(config ~shards ()) (spec ~rows:200) in
    let sched = Driver.run_concurrent driver ~txns:60 in
    Client_sched.flush sched;
    verified driver (Driver.db driver);
    check_int "shard_count" shards (Db.shard_count (Driver.db driver));
    Client_sched.logical_digest (Driver.db driver)
  in
  let d1 = run 1 and d2 = run 2 and d4 = run 4 in
  check_string "1 vs 2 shards" d1 d2;
  check_string "1 vs 4 shards" d1 d4

(* Every key readable, inspection ops merge the stripes in key order. *)
let test_striped_reads_and_scans () =
  let rows = 40 in
  let db = seeded ~rows () in
  for k = 0 to rows - 1 do
    check_string "read" (Printf.sprintf "v%d" k)
      (Option.get (Db.read db ~table ~key:k))
  done;
  check_int "entry_count sums stripes" rows (Db.entry_count db ~table);
  let dump = Db.dump_table db ~table in
  check_int "dump has every row" rows (List.length dump);
  check "dump sorted by key" true
    (List.for_all2 (fun (k, _) i -> k = i) dump (List.init rows Fun.id));
  (match Db.check_integrity db with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  check_int "scan range" 10 (List.length (Db.scan db ~table ~lo:5 ~hi:15))

(* {2 Whole-image crash and recovery} *)

(* Crash the whole sharded engine; every logical method must recover the
   committed prefix, per shard in parallel, to the same digest. *)
let test_sharded_crash_recovery () =
  let driver = Driver.create ~config:(config ~shards:4 ()) (spec ~rows:300) in
  let sched = Driver.run_concurrent driver ~txns:80 in
  Client_sched.flush sched;
  let reference = Client_sched.logical_digest (Driver.db driver) in
  let image = Driver.crash driver in
  List.iter
    (fun m ->
      let recovered, stats = Db.recover image m in
      verified driver recovered;
      check_string
        (Printf.sprintf "%s digest" (Recovery.method_to_string m))
        reference
        (Client_sched.logical_digest recovered);
      check
        (Printf.sprintf "%s did work" (Recovery.method_to_string m))
        true
        (stats.Deut_core.Recovery_stats.records_scanned > 0))
    [ Recovery.Log0; Recovery.Log1; Recovery.Log2 ]

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* Physiological and SQL-analysis methods need one physical page space;
   instant recovery is not yet sharded.  All must refuse, not corrupt, and
   the refusal names the method and the layout that bars it. *)
let test_barred_methods_sharded () =
  let driver = Driver.create ~config:(config ~shards:2 ()) (spec ~rows:60) in
  let sched = Driver.run_concurrent driver ~txns:10 in
  Client_sched.flush sched;
  let image = Driver.crash driver in
  List.iter
    (fun m ->
      let name = Recovery.method_to_string m in
      match Db.recover image m with
      | exception Invalid_argument msg ->
          check (name ^ " refusal names the method") true (contains msg name);
          check (name ^ " refusal names the layout") true (contains msg "split-log layout")
      | _ -> Alcotest.failf "%s ran sharded" name)
    [ Recovery.Sql1; Recovery.Sql2; Recovery.Aries_ckpt ];
  check "InstantLog2 barred" true
    (match Db.recover image Recovery.InstantLog2 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check "recover_instant barred" true
    (match Db.recover_instant image with exception Invalid_argument _ -> true | _ -> false)

(* The profile's phase budget accounts for every simulated microsecond of
   a sharded restart: [Analysis.total_us] leaves [log_scan] out because
   the [redo] span covers the scan, so the redo span must start before the
   scan at any shard count — as [Recovery_stats.redo_us] does. *)
let test_sharded_phase_budget () =
  let driver = Driver.create ~config:(config ~shards:4 ()) (spec ~rows:400) in
  let sched = Driver.run_concurrent driver ~txns:60 in
  Client_sched.flush sched;
  let image = Driver.crash driver in
  let traced =
    { (Deut_core.Crash_image.config image) with Config.tracing = true; trace_capacity = 1 lsl 18 }
  in
  let db, stats = Db.recover ~config:traced image Recovery.Log2 in
  verified driver db;
  let tr = Option.get (Engine.trace (Db.engine db)) in
  check_int "trace ring did not overflow" 0 (Deut_obs.Trace.dropped tr);
  Alcotest.(check (float 1e-6))
    "profile total = analysis + redo + undo"
    (stats.Recovery_stats.analysis_us +. stats.Recovery_stats.redo_us
    +. stats.Recovery_stats.undo_us)
    (Analysis.of_trace tr).Analysis.total_us

(* The ARIES CLR discipline across shards: a crash in the middle of the
   undo pass, whose compensations route to every stripe, resumes at the
   last CLR's undo-next on the next restart — exactly the remaining
   compensations, and the committed state. *)
let test_sharded_crash_during_undo () =
  let driver = Driver.create ~config:(config ~shards:4 ()) (spec ~rows:300) in
  let sched = Driver.run_concurrent driver ~txns:40 in
  Client_sched.flush sched;
  Driver.start_loser driver ~ops:8;
  let image = Driver.crash driver in
  List.iter
    (fun m ->
      let name = Recovery.method_to_string m in
      let engine, s1 = Recovery.recover ~undo_fault_after_clrs:3 image m in
      check_int (name ^ ": fault stopped undo after 3 CLRs") 3 s1.Recovery_stats.clrs_written;
      let mid = Db.crash (Db.of_engine engine) in
      let recovered, s2 = Db.recover mid m in
      verified driver recovered;
      check_int (name ^ ": loser still detected") 1 s2.Recovery_stats.losers;
      check_int (name ^ ": exactly the remaining 5 compensations") 5
        s2.Recovery_stats.clrs_written)
    [ Recovery.Log1; Recovery.Log2 ]

(* ARIES fuzzy checkpoints capture one runtime DPT over one page space —
   meaningless across shards, so assembly refuses the combination. *)
let test_aries_fuzzy_barred () =
  let c = { (config ~shards:2 ()) with Config.checkpoint_mode = Config.Aries_fuzzy } in
  check "aries-fuzzy + shards refused" true
    (match Db.create ~config:c () with exception Invalid_argument _ -> true | _ -> false)

(* {2 Single-shard crash: siblings keep serving} *)

let shard_of db key = key mod Db.shard_count db

let test_shard_crash_siblings_serve () =
  let rows = 48 in
  let db = seeded ~rows () in
  let before = Db.dump_table db ~table in
  let down = 2 in
  Db.crash_shard db ~shard:down;
  check "shard reported down" false (Db.shard_up db ~shard:down);
  check "siblings reported up" true
    (Db.shard_up db ~shard:0 && Db.shard_up db ~shard:1 && Db.shard_up db ~shard:3);
  (* A write routed to the down stripe: typed error, not an exception. *)
  let txn = Db.begin_txn db in
  let key_down = down and key_up = down + 1 in
  (match Db.update db txn ~table ~key:key_down ~value:"x" with
  | Error (Db.Shard_down s) -> check_int "error names the shard" down s
  | Ok () -> Alcotest.fail "write to down shard succeeded"
  | Error e -> Alcotest.failf "unexpected error: %s" (Db.error_to_string e));
  Db.abort db txn;
  (* A sibling write commits while the shard is down. *)
  let txn = Db.begin_txn db in
  check_int "sibling key routes elsewhere" (shard_of db key_up) (key_up mod 4);
  (match Db.update db txn ~table ~key:key_up ~value:"sibling" with
  | Ok () -> Db.commit db txn
  | Error e -> Alcotest.failf "sibling write failed: %s" (Db.error_to_string e));
  Db.flush_commits db;
  (* Reads on the down stripe raise; sibling reads serve. *)
  check "down-stripe read raises" true
    (match Db.read db ~table ~key:key_down with
    | exception Dc_access.Unavailable s -> s = down
    | _ -> false);
  check_string "sibling read serves" "sibling" (Option.get (Db.read db ~table ~key:key_up));
  (* Checkpoint needs every shard's RSSP flush. *)
  check "checkpoint refused while down" true
    (match Db.checkpoint db with exception Invalid_argument _ -> true | _ -> false);
  (* Recover the one shard on the live engine; full state returns,
     including the sibling commit made while it was down. *)
  Db.recover_shard db ~shard:down;
  check "shard back up" true (Db.shard_up db ~shard:down);
  let expected =
    List.map (fun (k, v) -> if k = key_up then (k, "sibling") else (k, v)) before
  in
  check "state intact after per-shard recovery" true (Db.dump_table db ~table = expected);
  (match Db.check_integrity db with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* And the db keeps working: checkpoint + a fresh commit. *)
  Db.checkpoint db;
  Db.put db ~table ~key:1000 ~value:"after";
  check_string "post-recovery write" "after" (Option.get (Db.read db ~table ~key:1000))

(* The crashed shard's unforced DC-log tail and cache dirt vanish, but the
   TC log survives — so commits whose Δ records never reached the shard's
   stable log still recover, replayed from the TC log stripe. *)
let test_shard_crash_loses_nothing_committed () =
  let db = seeded ~rows:32 () in
  (* More committed writes after the flush: their DC-side state is cache
     dirt + volatile DC-log tail only. *)
  for k = 100 to 131 do
    Db.put db ~table ~key:k ~value:(Printf.sprintf "tail%d" k)
  done;
  let before = Db.dump_table db ~table in
  let down = 1 in
  Db.crash_shard db ~shard:down;
  Db.recover_shard db ~shard:down;
  check "committed tail recovered from TC log" true (Db.dump_table db ~table = before)

let test_shard_guards () =
  let single = seeded ~shards:1 ~rows:8 () in
  check "crash_shard refused on single-shard engine" true
    (match Db.crash_shard single ~shard:0 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let db = seeded ~rows:16 () in
  let txn = Db.begin_txn db in
  (match Db.insert db txn ~table ~key:999 ~value:"x" with Ok () -> () | Error _ -> ());
  check "crash_shard refused with active txn" true
    (match Db.crash_shard db ~shard:1 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Db.abort db txn;
  Db.crash_shard db ~shard:1;
  check "double crash refused" true
    (match Db.crash_shard db ~shard:1 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check "recover_shard refused on up shard" true
    (match Db.recover_shard db ~shard:0 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Db.recover_shard db ~shard:1

(* {2 Cross-shard commit atomicity} *)

(* Each transaction writes one key on every shard; the single TC log
   sequences all commits, so after a crash each transaction is all-or-
   nothing across shards — whatever the group-commit tail swallowed. *)
let test_cross_shard_atomicity () =
  let shards = 4 in
  let c = { (config ~shards ()) with Config.group_commit = 4 } in
  let db = Db.create ~config:c () in
  Db.create_table db ~table;
  let n_txns = 25 in
  for t = 0 to n_txns - 1 do
    let txn = Db.begin_txn db in
    for s = 0 to shards - 1 do
      match Db.insert db txn ~table ~key:((t * shards) + s) ~value:(Printf.sprintf "t%d" t) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "insert failed: %s" (Db.error_to_string e)
    done;
    Db.commit db txn
  done;
  (* No flush: the last group-commit batch is volatile and dies here. *)
  let image = Db.crash db in
  List.iter
    (fun m ->
      let recovered, _ = Db.recover image m in
      let present = Hashtbl.create 32 in
      List.iter
        (fun (k, v) -> Hashtbl.replace present (k / shards) v)
        (Db.dump_table recovered ~table);
      for t = 0 to n_txns - 1 do
        let keys =
          List.filter_map
            (fun s -> Db.read recovered ~table ~key:((t * shards) + s))
            (List.init shards Fun.id)
        in
        let n = List.length keys in
        if n <> 0 && n <> shards then
          Alcotest.failf "%s: txn %d committed on %d of %d shards (dump: %s)"
            (Recovery.method_to_string m) t n shards
            (String.concat ","
               (List.map (fun (k, v) -> Printf.sprintf "%d=%s" k v)
                  (Db.dump_table recovered ~table)))
      done)
    [ Recovery.Log0; Recovery.Log2 ]

(* {2 The networked transport} *)

(* Latency, jitter, loss and reordering all draw from seeded streams on
   the virtual clock: two identical runs must agree byte for byte, and
   the link counters must show the traffic (and the retransmits). *)
let test_net_determinism () =
  let lossy =
    {
      (config ~shards:2 ~net:true ()) with
      Config.net_latency_us = 80.0;
      net_jitter_us = 40.0;
      net_loss = 0.05;
      net_reorder = 0.1;
      net_timeout_us = 500.0;
    }
  in
  let run () =
    let driver = Driver.create ~config:lossy (spec ~rows:120) in
    let sched = Driver.run_concurrent driver ~txns:30 in
    Client_sched.flush sched;
    verified driver (Driver.db driver);
    let m = Engine.metrics (Db.engine (Driver.db driver)) in
    (Client_sched.logical_digest (Driver.db driver),
     Metrics.read_int m "net.messages",
     Metrics.read_int m "net.retransmits")
  in
  let d1, msgs1, rts1 = run () in
  let d2, msgs2, rts2 = run () in
  check_string "same seed, same digest over the network" d1 d2;
  check_int "same message count" msgs1 msgs2;
  check_int "same retransmit count" rts1 rts2;
  check "messages flowed" true (msgs1 > 0);
  check "losses forced retransmits" true (rts1 > 0)

(* The cost model is charged on the virtual clock: the same workload takes
   longer with the network on than off, and the digest is unchanged. *)
let test_net_is_transparent_but_costly () =
  let run net =
    let driver = Driver.create ~config:(config ~shards:2 ~net ()) (spec ~rows:120) in
    let sched = Driver.run_concurrent driver ~txns:30 in
    Client_sched.flush sched;
    (Client_sched.logical_digest (Driver.db driver), Db.now_ms (Driver.db driver))
  in
  let d_off, t_off = run false in
  let d_on, t_on = run true in
  check_string "digest unchanged by the transport" d_off d_on;
  check "network time was charged" true (t_on > t_off)

(* {2 Zero observer effect} *)

(* Recording never advances the clock: the always-on flight recorder and
   opt-in causal tracing, in every combination, must leave the committed
   state, the operation counts and the simulated clock untouched. *)
let test_observers_change_nothing () =
  let run ~flight ~tracing =
    let c =
      {
        (config ~shards:2 ~net:true ()) with
        Config.flight;
        tracing;
        trace_capacity = 1 lsl 18;
      }
    in
    let driver = Driver.create ~config:c (spec ~rows:120) in
    let sched = Driver.run_concurrent driver ~txns:30 in
    Client_sched.flush sched;
    let m = Engine.metrics (Db.engine (Driver.db driver)) in
    ( Client_sched.logical_digest (Driver.db driver),
      Metrics.read_int m "net.messages",
      Db.now_ms (Driver.db driver) )
  in
  let reference = run ~flight:true ~tracing:false in
  let d0, m0, t0 = reference in
  List.iter
    (fun (flight, tracing) ->
      let d, m, t = run ~flight ~tracing in
      let label = Printf.sprintf "flight=%b tracing=%b" flight tracing in
      check_string (label ^ ": digest unchanged") d0 d;
      check_int (label ^ ": op counts unchanged") m0 m;
      check (label ^ ": clock unchanged") true (t = t0))
    [ (false, false); (true, true); (false, true) ]

(* {2 One stats namespace} *)

(* [Db.metric] reads gauges that [Engine.register_gauges] sums over the
   shards; at four shards each must equal the sum over the per-shard
   components, and the TC log count the one TC log's. *)
let test_metrics_sum_shards () =
  let db = seeded ~rows:400 () in
  Db.checkpoint db;
  for k = 0 to 99 do
    Db.put db ~table ~key:k ~value:"again"
  done;
  let e = Db.engine db in
  let sum f =
    List.fold_left (fun acc i -> acc + f (Engine.shard e i)) 0
      (List.init (Engine.shard_count e) Fun.id)
  in
  let module Pool = Deut_buffer.Buffer_pool in
  let module Monitor = Deut_core.Monitor in
  let pool f = sum (fun sh -> f sh.Engine.s_pool) in
  let mon f = sum (fun sh -> f (Deut_core.Dc.monitor sh.Engine.s_dc)) in
  let store f = sum (fun sh -> f sh.Engine.s_store) in
  List.iter
    (fun (name, expected) ->
      check (name ^ " is nonzero") true (expected > 0);
      check_int name expected (Db.metric db name))
    [
      ("cache.dirty", pool Pool.dirty_count);
      ("cache.resident", pool Pool.size);
      ("store.allocated", store Deut_storage.Page_store.allocated_count);
      ("monitor.delta_records", mon Monitor.deltas_written);
      ("monitor.bw_records", mon Monitor.bws_written);
      ("monitor.delta_bytes", mon Monitor.delta_bytes);
      ("monitor.bw_bytes", mon Monitor.bw_bytes);
      ("log.tc.records", Deut_wal.Log_manager.record_count e.Engine.log);
    ]

(* {2 Env knobs} *)

(* [Config.of_env] over a fake environment, so the process environment
   stays untouched. *)
let of_bindings bindings = Config.of_env ~getenv:(fun name -> List.assoc_opt name bindings)

(* Every variable [of_env] reads, a valid non-default value for it, and
   where the value must land. *)
let env_knobs =
  [
    ("DEUT_TRACE_CAP", "4096", fun c -> c.Config.trace_capacity = 4096);
    ("DEUT_FLIGHT", "0", fun c -> not c.Config.flight);
    ("DEUT_FLIGHT_CAP", "64", fun c -> c.Config.flight_capacity = 64);
    ("DEUT_REDO_WORKERS", "3", fun c -> c.Config.redo_workers = 3);
    ("DEUT_CLIENTS", "3", fun c -> c.Config.clients = 3);
    ("DEUT_ARCHIVE", "1", fun c -> c.Config.archive);
    ("DEUT_ARCHIVE_MIN_BYTES", "512", fun c -> c.Config.archive_min_bytes = 512);
    ("DEUT_SHARDS", "4", fun c -> c.Config.shards = 4);
    ("DEUT_DOMAINS", "2", fun c -> c.Config.domains = 2);
    ("DEUT_NET", "yes", fun c -> c.Config.net);
    ("DEUT_NET_LATENCY_US", "123.5", fun c -> c.Config.net_latency_us = 123.5);
    ("DEUT_NET_JITTER_US", "7.5", fun c -> c.Config.net_jitter_us = 7.5);
    ("DEUT_NET_LOSS", "0.25", fun c -> c.Config.net_loss = 0.25);
    ("DEUT_NET_REORDER", "0.125", fun c -> c.Config.net_reorder = 0.125);
    ("DEUT_NET_TIMEOUT_US", "2500", fun c -> c.Config.net_timeout_us = 2500.0);
  ]

let test_env_knobs () =
  check "no variables: the default" true (of_bindings [] Config.default = Config.default);
  check "empty values count as unset" true
    (of_bindings (List.map (fun (name, _, _) -> (name, "")) env_knobs) Config.default
    = Config.default);
  let all = of_bindings (List.map (fun (name, v, _) -> (name, v)) env_knobs) Config.default in
  List.iter
    (fun (name, v, landed) ->
      check (name ^ " is not the default") false (landed Config.default);
      check (name ^ " lands alone") true (landed (of_bindings [ (name, v) ] Config.default));
      check (name ^ " lands beside the others") true (landed all))
    env_knobs

(* One parser per value class; a malformed value of each raises, naming
   the variable and the value, rather than running the default. *)
let test_env_malformed bad () =
  List.iter
    (fun (name, v) ->
      match of_bindings [ (name, v) ] Config.default with
      | _ -> Alcotest.failf "%s=%S was accepted" name v
      | exception Invalid_argument msg ->
          check (name ^ " error names the variable") true (contains msg name);
          check (name ^ " error names the value") true (contains msg v))
    bad

let env_malformed =
  [
    ("pos_int", [ ("DEUT_SHARDS", "four"); ("DEUT_CLIENTS", "0"); ("DEUT_TRACE_CAP", "1.5") ]);
    ("nonneg_int", [ ("DEUT_ARCHIVE_MIN_BYTES", "-1"); ("DEUT_ARCHIVE_MIN_BYTES", "lots") ]);
    ("nonneg_float", [ ("DEUT_NET_LOSS", "-0.5"); ("DEUT_NET_LATENCY_US", "fast") ]);
    ("flag", [ ("DEUT_NET", "maybe"); ("DEUT_ARCHIVE", "2") ]);
  ]

(* The cheap sharding sweep: one- and two-shard cells, 30 transactions. *)
let sharding_sweep = List.find (fun (s : Figures.sweep) -> s.name = "sharding") Figures.sweeps

let run_sharding_sweep config =
  sharding_sweep.run
    { Figures.config; scale = 512; cache = None; methods = None; progress = ignore }
    [ ("cache", [ 64 ]); ("counts", [ 1; 2 ]); ("clients", [ 2 ]); ("txns", [ 30 ]) ]

(* The sharding sweep runs on its config's transport: with [net] on, the
   multi-shard cell's TC-DC messages cross the simulated links. *)
let test_sweep_honours_net () =
  let out = run_sharding_sweep { Config.default with Config.net = true } in
  match Json.to_list "sharding" out with
  | [ _; multi ] ->
      check_int "the multi-shard cell" 2 (int_of_float (Json.num multi "shards"));
      check "its messages crossed the network" true (Json.num multi "net_msgs" > 0.0)
  | cells -> Alcotest.failf "expected two cells, got %d" (List.length cells)

(* The tables render from the JSON alone: a sweep's JSON printed and
   parsed back (what [repro_cli show] reads from a saved summary) renders
   the tables of the live run byte for byte. *)
let test_tables_survive_json_round_trip () =
  let live = run_sharding_sweep Config.default in
  let saved =
    match Json.parse (Json.to_string ~indent:true live) with
    | Ok j -> j
    | Error msg -> Alcotest.failf "the sweep's JSON does not parse: %s" msg
  in
  let render block = Figures.tables sharding_sweep block in
  Alcotest.(check (list (pair string string))) "tables from the saved JSON" (render live) (render saved)

let suite =
  [
    Alcotest.test_case "digest equal across shard counts" `Quick
      test_digest_across_shard_counts;
    Alcotest.test_case "striped reads and merged scans" `Quick test_striped_reads_and_scans;
    Alcotest.test_case "sharded crash recovery (Log0/1/2)" `Quick test_sharded_crash_recovery;
    Alcotest.test_case "non-logical methods barred sharded" `Quick test_barred_methods_sharded;
    Alcotest.test_case "sharded phase budget covers the log scan" `Quick
      test_sharded_phase_budget;
    Alcotest.test_case "sharded crash during undo (CLR resumption)" `Quick
      test_sharded_crash_during_undo;
    Alcotest.test_case "aries-fuzzy barred sharded" `Quick test_aries_fuzzy_barred;
    Alcotest.test_case "shard crash: siblings serve" `Quick test_shard_crash_siblings_serve;
    Alcotest.test_case "shard crash loses nothing committed" `Quick
      test_shard_crash_loses_nothing_committed;
    Alcotest.test_case "shard guard rails" `Quick test_shard_guards;
    Alcotest.test_case "cross-shard commit atomicity" `Quick test_cross_shard_atomicity;
    Alcotest.test_case "network transport determinism" `Quick test_net_determinism;
    Alcotest.test_case "network cost is charged, digest unchanged" `Quick
      test_net_is_transparent_but_costly;
    Alcotest.test_case "sharding sweep honours net" `Quick test_sweep_honours_net;
    Alcotest.test_case "sweep tables survive the JSON round trip" `Quick
      test_tables_survive_json_round_trip;
    Alcotest.test_case "observers change nothing" `Quick test_observers_change_nothing;
    Alcotest.test_case "metrics sum over shards" `Quick test_metrics_sum_shards;
    Alcotest.test_case "env knobs" `Quick test_env_knobs;
  ]
  @ List.map
      (fun (cls, bad) ->
        Alcotest.test_case
          ("env: malformed " ^ cls ^ " is an error")
          `Quick (test_env_malformed bad))
      env_malformed
