(* What the three workloads share: pinned configurations, seed mapping,
   the oracle check, the serve stream of single-key transactions, engine
   counter snapshots, and the per-run accumulator of samples and failures. *)

module Config = Deut_core.Config
module Db = Deut_core.Db
module Engine = Deut_core.Engine
module Recovery = Deut_core.Recovery
module Rs = Deut_core.Recovery_stats
module Crash_image = Deut_core.Crash_image
module Metrics = Deut_obs.Metrics
module Rng = Deut_sim.Rng
module Log_manager = Deut_wal.Log_manager
module Page_store = Deut_storage.Page_store
module Workload = Deut_workload.Workload
module Driver = Deut_workload.Driver
module Oracle = Deut_workload.Oracle
module Experiment = Deut_workload.Experiment
module Client_sched = Deut_workload.Client_sched

(* ---------- the run's parameters ---------- *)

type run = {
  seed : int;
  seconds : float;
  trace : bool;
  fault : bool;  (* corrupt one recovered state, to prove the gate fires *)
}

let setups = 3  (* builds per run behind [setup_s]; the last one is measured *)

(* ---------- pinned configuration ---------- *)

(* Every knob a [DEUT_*] variable could otherwise move is set here, so the
   measured system is the same whatever the environment says: one domain,
   one shard, sequential redo, no archive, no network, the flight recorder
   on, engine tracing off, the lazy writer on. *)
let pin ?(clients = 1) ?(locking = false) ?(group_commit = 1) (c : Config.t) =
  {
    c with
    Config.shards = 1;
    domains = 1;
    redo_workers = 1;
    clients;
    locking;
    group_commit;
    archive = false;
    net = false;
    flight = true;
    tracing = false;
    lazy_writer_every = 1;
  }

let describe (c : Config.t) =
  Printf.sprintf
    "pool_pages=%d delta_period=%d shards=%d domains=%d redo_workers=%d clients=%d locking=%b \
     group_commit=%d archive=%b net=%b flight=%b tracing=%b lazy_writer_every=%d seed=%d"
    c.Config.pool_pages c.delta_period c.shards c.domains c.redo_workers c.clients c.locking
    c.group_commit c.archive c.net c.flight c.tracing c.lazy_writer_every c.seed

(* The paper's §5.2 setup at 1/64 scale.  Seed 0 reproduces
   [Experiment.paper_setup]'s own seeds exactly; any other seed shifts both
   the engine and the workload seed. *)
let paper_scale = 64

let paper_setup ~seed ~cache_mb ~ckpt_multiplier =
  let s = Experiment.paper_setup ~scale:paper_scale ~cache_mb ~ckpt_multiplier () in
  {
    s with
    Experiment.config = pin { s.Experiment.config with Config.seed = s.Experiment.config.Config.seed + seed };
    spec = { s.Experiment.spec with Workload.seed = s.Experiment.spec.Workload.seed + seed };
  }

(* ---------- oracle check ---------- *)

(* [Driver.verify_recovered]'s two steps, each its own layer: the B-tree's
   structural invariants, then the table against the committed state. *)
let verify sp oracle ~tables db =
  match Wall.span sp "btree.integrity" (fun () -> Db.check_integrity db) with
  | Error msg -> Error ("integrity: " ^ msg)
  | Ok () -> Wall.span sp "oracle.verify" (fun () -> Oracle.verify oracle db ~tables)

(* ---------- serve stream ---------- *)

(* One single-key transaction: a locked read whose committed value (or
   absence) is known in advance, or an update. *)
type op = Read of { key : int; expect : string option } | Write of { key : int; value : string }

let value_bytes = function Read _ -> 0 | Write { value; _ } -> 8 + String.length value

(* Draw the next op against the committed state plus the stream's own
   earlier writes ([overlay]). *)
let draw_op rng spec oracle overlay =
  let key = Rng.int rng spec.Workload.rows in
  if Rng.bool rng then begin
    let value = Workload.value_of rng ~size:spec.Workload.value_size in
    Hashtbl.replace overlay key value;
    Write { key; value }
  end
  else
    let expect =
      match Hashtbl.find_opt overlay key with
      | Some v -> Some v
      | None -> Oracle.committed_value oracle ~table:1 ~key
    in
    Read { key; expect }

let stream_rng spec = Rng.create ~seed:(spec.Workload.seed + 0x5e7e)

(* Run one op as its own transaction; [false] when the engine disagreed
   with the expected outcome. *)
let run_op db op =
  let txn = Db.begin_txn db in
  let ok =
    match op with
    | Read { key; expect } -> (
        match Db.read_locked db txn ~table:1 ~key with Ok v -> v = expect | Error _ -> false)
    | Write { key; value } -> Db.update db txn ~table:1 ~key ~value = Ok ()
  in
  Db.commit db txn;
  ok

(* Fold the stream's writes into the oracle as one committed transaction,
   then seal it again. *)
let commit_stream oracle ops =
  let txn = max_int in
  Oracle.begin_txn oracle txn;
  Array.iter
    (function
      | Write { key; value } -> Oracle.buffer_put oracle ~txn ~table:1 ~key ~value
      | Read _ -> ())
    ops;
  Oracle.commit oracle ~txn;
  Oracle.seal oracle

(* ---------- engine counters ---------- *)

type counters = {
  hits : int;
  misses : int;
  evictions : int;
  flushes : int;
  stall_us : float;
  data_reads : int;
  data_writes : int;
  seeks : int;
  log_bytes : int;
  forces : int;
  delta_bytes : int;
  bw_bytes : int;
  commits : int;
  now_us : float;
}

let counters db =
  let e = Db.engine db in
  let m = Engine.metrics e in
  let i = Metrics.read_int m in
  {
    hits = i "cache.hits";
    misses = i "cache.misses";
    evictions = i "cache.evictions";
    flushes = i "cache.flushes";
    stall_us = Metrics.read m "cache.stall_us";
    data_reads = i "disk.data.pages_read";
    data_writes = i "disk.data.pages_written";
    seeks = i "disk.data.seeks";
    log_bytes = i "log.tc.end_lsn";
    forces = i "log.tc.forces";
    delta_bytes = i "monitor.delta_bytes";
    bw_bytes = i "monitor.bw_bytes";
    commits = i "tc.commits";
    now_us = Metrics.read m "clock.now_us";
  }

let diff a b =
  {
    hits = b.hits - a.hits;
    misses = b.misses - a.misses;
    evictions = b.evictions - a.evictions;
    flushes = b.flushes - a.flushes;
    stall_us = b.stall_us -. a.stall_us;
    data_reads = b.data_reads - a.data_reads;
    data_writes = b.data_writes - a.data_writes;
    seeks = b.seeks - a.seeks;
    log_bytes = b.log_bytes - a.log_bytes;
    forces = b.forces - a.forces;
    delta_bytes = b.delta_bytes - a.delta_bytes;
    bw_bytes = b.bw_bytes - a.bw_bytes;
    commits = b.commits - a.commits;
    now_us = b.now_us -. a.now_us;
  }

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

(* The buffer and simulated-disk layers over a counter interval. *)
let pool_and_disk c =
  [
    ("buffer.hit_ratio", ratio c.hits (c.hits + c.misses));
    ("buffer.misses", float_of_int c.misses);
    ("buffer.evictions", float_of_int c.evictions);
    ("buffer.flushes", float_of_int c.flushes);
    ("buffer.stall_sim_ms", c.stall_us /. 1000.0);
    ("disk.data_reads", float_of_int c.data_reads);
    ("disk.data_writes", float_of_int c.data_writes);
    ("disk.seeks", float_of_int c.seeks);
    (* The log device is charged per force, not per page written. *)
    ("disk.log_writes", float_of_int c.forces);
  ]

(* Log and DC-monitor cost of a stretch of normal execution: [ops] data
   operations carrying [user_bytes] of keys and values over [txns]
   committed transactions. *)
let write_path c ~ops ~user_bytes ~txns =
  [
    ("wal.bytes_per_user_byte", ratio c.log_bytes user_bytes);
    ("wal.forces_per_txn", ratio c.forces txns);
    ("dc.delta_bytes_per_update", ratio c.delta_bytes ops);
    ("dc.bw_bytes_per_update", ratio c.bw_bytes ops);
  ]

let recovery_layers (s : Rs.t) =
  [
    ("recovery.analysis_sim_ms", Rs.analysis_ms s);
    ("recovery.redo_sim_ms", Rs.redo_ms s);
    ("recovery.undo_sim_ms", Rs.undo_ms s);
    ("recovery.records_scanned", float_of_int s.Rs.records_scanned);
    ("recovery.redo_candidates", float_of_int s.Rs.redo_candidates);
    ("recovery.redo_applied", float_of_int s.Rs.redo_applied);
    ("recovery.dpt_size", float_of_int s.Rs.dpt_size);
    ("recovery.data_page_fetches", float_of_int s.Rs.data_page_fetches);
    ("recovery.index_page_fetches", float_of_int s.Rs.index_page_fetches);
    ("recovery.pages_ondemand", float_of_int s.Rs.pages_ondemand);
    ("recovery.pages_background", float_of_int s.Rs.pages_background);
    ("recovery.prefetch_hit_ratio", ratio s.Rs.prefetch_hits s.Rs.prefetch_issued);
    ("wal.log_pages_read", float_of_int s.Rs.log_pages_read);
  ]

(* The layer calls a restart makes internally, each timed on its own from
   the image and from a settled heap, like a sample: the deep store copy,
   the whole image instantiation, and the redo-range log scan. *)
let image_layers sp image =
  Wall.settle ();
  ignore (Wall.span sp "storage.clone" (fun () -> Page_store.clone image.Crash_image.store));
  Wall.settle ();
  ignore (Wall.span sp "crash_image.instantiate" (fun () -> Crash_image.instantiate image));
  let log = Log_manager.crash image.Crash_image.log in
  Wall.settle ();
  ignore
    (Wall.span sp "wal.scan" (fun () -> Recovery.scan_log log ~from:(Crash_image.master image)))

let clone_mb image =
  float_of_int (Crash_image.stable_pages image * image.Crash_image.config.Config.page_size)
  /. 1_048_576.0

(* Recover [image] once with each of the paper's five methods, verifying
   every one; simulated total per method. *)
let five_methods image oracle ~tables =
  List.map
    (fun m ->
      let db, s = Db.recover image m in
      (match verify (Wall.recorder ~enabled:false) oracle ~tables db with
      | Ok () -> ()
      | Error e -> failwith (Recovery.method_to_string m ^ " recovered wrong state: " ^ e));
      (Printf.sprintf "recovery.%s.sim_ms" (Recovery.method_to_string m), Rs.total_ms s))
    Recovery.all_methods

(* ---------- failures and results ---------- *)

type tally = { mutable attempted : int; mutable failed : int }

(* A workload's result: its end-to-end metrics (untraced run) or its
   per-layer metrics (traced run), by name. *)
type outcome = { tally : tally; e2e : (string * float) list; layers : (string * float) list }

let tally () = { attempted = 0; failed = 0 }

let failure t what =
  t.failed <- t.failed + 1;
  Printf.eprintf "FAIL: %s\n%!" what

(* Compare a sample's deterministic fingerprint with the run's first. *)
let check_same first t ~what v =
  match !first with
  | None -> first := Some v
  | Some v0 -> if v <> v0 then failure t (what ^ " differs from the run's first sample")

(* Every sample must time enough batches to support its own p99 (1,000):
   a sample with fewer counts as a failure. *)
let check_batches t ~what batches =
  match Wall.supported_tail (List.length batches) with
  | Some p when p >= 99.0 -> ()
  | _ -> failure t (Printf.sprintf "%s: %d batches cannot support a p99" what (List.length batches))

(* The median over samples of each sample's [p]th percentile batch time. *)
let batch_percentile samples p =
  Wall.median (Array.map (fun batches -> Wall.percentile (Array.of_list batches) p) samples)

(* Overwrite one committed row behind the oracle's back: the state a buggy
   recovery would leave, which the oracle check must catch. *)
let corrupt db ~key = Db.put db ~table:1 ~key ~value:"corrupted-by-fault-injection"
