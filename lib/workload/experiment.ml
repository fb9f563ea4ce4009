module Config = Deut_core.Config
module Db = Deut_core.Db
module Recovery = Deut_core.Recovery
module Recovery_stats = Deut_core.Recovery_stats
module Pool = Deut_buffer.Buffer_pool
module Analysis = Deut_obs.Analysis

type protocol = { checkpoints : int; interval : int; tail : int; loser_ops : int }

type scaled = {
  label : string;
  config : Config.t;
  spec : Workload.spec;
  protocol : protocol;
  cache_mb_equiv : int;
}

(* Paper constants (§5.2). *)
let paper_db_pages = 436_000
let paper_ckpt_interval = 40_000
let paper_tail = 100
let paper_checkpoints = 10

(* Sequentially loaded leaves are half full (split at midpoint), giving
   ~113 24-byte rows per 8 KiB page. *)
let rows_per_page = 113

let paper_setup ?(config = Config.default) ?(scale = 32) ?(ckpt_multiplier = 1)
    ?(dpt_mode = Config.Standard) ?(checkpoint_mode = Config.Penultimate)
    ?(key_dist = Workload.Uniform) ~cache_mb () =
  let pool_pages = Stdlib.max 64 (cache_mb * 128 / scale) in
  let interval = Stdlib.max 200 (paper_ckpt_interval / scale * ckpt_multiplier) in
  let delta_period = Stdlib.max 20 (interval / 20) in
  let config =
    {
      config with
      Config.pool_pages;
      delta_period;
      dpt_mode;
      checkpoint_mode;
      (* The paper's experiment is a single data component; callers that
         want a sharded cell (Figures.run_sharding) override this. *)
      shards = 1;
      seed = 42 + cache_mb;
    }
  in
  let rows = paper_db_pages / scale * rows_per_page in
  let spec =
    {
      Workload.default with
      Workload.rows;
      key_dist;
      seed = 7 + cache_mb + (1000 * ckpt_multiplier);
    }
  in
  let protocol =
    {
      checkpoints = paper_checkpoints;
      interval;
      tail = Stdlib.max 5 (paper_tail * 2 / scale);
      loser_ops = 10;
    }
  in
  {
    label =
      Printf.sprintf "cache=%dMB ci=%dx dpt=%s ckpt=%s" cache_mb ckpt_multiplier
        (Config.dpt_mode_to_string dpt_mode)
        (Config.checkpoint_mode_to_string checkpoint_mode);
    config;
    spec;
    protocol;
    cache_mb_equiv = cache_mb;
  }

type crash_run = {
  image : Deut_core.Crash_image.t;
  driver : Driver.t;
  dirty_at_crash : int;
  cached_at_crash : int;
  dirty_fraction : float;
  db_pages : int;
  deltas_total : int;
  bws_total : int;
  delta_bytes : int;
  bw_bytes : int;
  updates_run : int;
}

(* [build] is deterministic: the same [scaled] record always yields the same
   workload, crash image, and statistics.  A cache therefore only saves wall
   clock — several harness sections use structurally identical setups (e.g.
   the 512 MB Figure 2 cell, the 1x Figure 3 cell, and the standard-Δ
   ablation row), and each build costs real seconds at small scales.  The
   cached [crash_run] is safe to share: recoveries instantiate fresh store
   and log copies from the image, and verification only reads the (sealed)
   oracle.

   The cache is the one structure the domain-parallel harness shares
   between cells, so a mutex guards the table.  A build runs outside it:
   no sweep fans two requests for one setup at once (every fan is over
   distinct cache sizes or multipliers), and if a list repeats a setup it
   is simply built twice, to the same result.  An LRU list bounds retained
   crash images ([max_entries]). *)
type build_cache = {
  mutex : Mutex.t;
  entries : (scaled, crash_run) Hashtbl.t;
  mutable lru : scaled list;  (* keys, most recently used first *)
  max_entries : int;
}

let build_cache ?(max_entries = 16) () : build_cache =
  if max_entries < 1 then invalid_arg "Experiment.build_cache: max_entries must be >= 1";
  { mutex = Mutex.create (); entries = Hashtbl.create 8; lru = []; max_entries }

let build_uncached scaled =
  let driver = Driver.create ~config:scaled.config scaled.spec in
  Driver.warm_to_equilibrium driver;
  Driver.run_crash_protocol driver ~checkpoints:scaled.protocol.checkpoints
    ~interval:scaled.protocol.interval ~tail:scaled.protocol.tail;
  Driver.start_loser driver ~ops:scaled.protocol.loser_ops;
  let database = Driver.db driver in
  let pool = (Deut_core.Engine.shard (Db.engine database) 0).Deut_core.Engine.s_pool in
  (* Read every statistic before the crash: [Db.crash] poisons the handle. *)
  let metric = Db.metric database in
  let dirty = metric "cache.dirty" in
  let cached_at_crash = metric "cache.resident" in
  let db_pages = metric "store.allocated" in
  let deltas_total = metric "monitor.delta_records" in
  let bws_total = metric "monitor.bw_records" in
  let delta_bytes = metric "monitor.delta_bytes" in
  let bw_bytes = metric "monitor.bw_bytes" in
  let run =
    {
      image = Driver.crash driver;
      driver;
      dirty_at_crash = dirty;
      cached_at_crash;
      dirty_fraction = float_of_int dirty /. float_of_int (Pool.capacity pool);
      db_pages;
      deltas_total;
      bws_total;
      delta_bytes;
      bw_bytes;
      updates_run = Driver.updates_done driver;
    }
  in
  (* Seal before the run is shared: the harness fans recoveries of one
     crash_run across domains, and each verifies against this oracle. *)
  Oracle.seal (Driver.oracle driver);
  run

let drop_cache c =
  Mutex.protect c.mutex (fun () ->
      Hashtbl.reset c.entries;
      c.lru <- [])

let build ?cache scaled =
  match cache with
  | None -> build_uncached scaled
  | Some c -> (
      let touch () = c.lru <- scaled :: List.filter (fun s -> s <> scaled) c.lru in
      let cached =
        Mutex.protect c.mutex (fun () ->
            let found = Hashtbl.find_opt c.entries scaled in
            if Option.is_some found then touch ();
            found)
      in
      match cached with
      | Some run -> run
      | None ->
          let run = build_uncached scaled in
          Mutex.protect c.mutex (fun () ->
              Hashtbl.replace c.entries scaled run;
              touch ();
              if List.length c.lru > c.max_entries then
                match List.rev c.lru with
                | oldest :: _ ->
                    Hashtbl.remove c.entries oldest;
                    c.lru <- List.filter (fun s -> s <> oldest) c.lru
                | [] -> ());
          run)

(* The paper crash (§5.2) at [cache_mb] for recovery with [methods]: fuzzy
   ARIES checkpoints when the physiological baseline is among them,
   penultimate logical checkpoints otherwise. *)
let paper_crash ?cache ?config ?scale ~cache_mb methods =
  let checkpoint_mode =
    if List.mem Recovery.Aries_ckpt methods then Config.Aries_fuzzy else Config.Penultimate
  in
  build ?cache (paper_setup ?config ?scale ~checkpoint_mode ~cache_mb ())

let verify what driver db =
  match Driver.verify_recovered driver db with
  | Ok () -> ()
  | Error msg -> failwith (Printf.sprintf "%s produced wrong state: %s" what msg)

let recover_verified ?config run method_ =
  let recovered, stats = Db.recover ?config run.image method_ in
  verify ("recovery with " ^ Recovery.method_to_string method_) run.driver recovered;
  (recovered, stats)

(* The profile is mined from the trace alone; the counters are kept by
   the engine.  They must agree exactly. *)
let reconcile (stats : Recovery_stats.t) (p : Analysis.t) =
  let ints =
    [
      ("page fetches", p.fetch_total, stats.data_page_fetches + stats.index_page_fetches);
      ("index fetches", p.fetch_index, stats.index_page_fetches);
      ("stalls", p.stall_count, stats.stalls);
      ("prefetch claims", p.pf_hit + p.pf_late, stats.prefetch_hits);
      ("prefetch issued", p.pf_issued, stats.prefetch_issued);
      ("redo ops", p.redo_ops, stats.redo_candidates);
    ]
  in
  let stall_us = stats.data_stall_us +. stats.index_stall_us in
  let mismatches =
    List.filter_map
      (fun (name, got, want) ->
        if got = want then None
        else Some (Printf.sprintf "profile %s = %d, counters say %d" name got want))
      ints
    @
    if Float.abs (p.stall_total_us -. stall_us) > 0.01 then
      [ Printf.sprintf "profile stall mass %.3f µs, counters say %.3f µs" p.stall_total_us stall_us ]
    else []
  in
  if mismatches <> [] then failwith (String.concat "; " mismatches)

let recover_traced ?meta ~config run method_ =
  let db, stats = recover_verified ~config run method_ in
  match Deut_core.Engine.trace (Db.engine db) with
  | None -> invalid_arg "Experiment.recover_traced: config has tracing off"
  | Some tr -> (
      (* A dropped event means a profile would describe a truncated run. *)
      match Deut_obs.Trace.overflow_advice tr with
      | Some advice -> failwith advice
      | None ->
          let profile = Analysis.of_trace ?meta tr in
          reconcile stats profile;
          (db, stats, tr, profile))

let run_method run method_ = snd (recover_verified run method_)
let run_all run methods = List.map (fun m -> (m, run_method run m)) methods

(* Digest of the stable page store after forcing every dirty frame out:
   the complete post-recovery database image, byte for byte.  Paired with
   [Client_sched.logical_digest], this is what the determinism gate
   compares across domain counts. *)
let store_digest db =
  let sh0 = Deut_core.Engine.shard (Db.engine db) 0 in
  Pool.flush_all_dirty sh0.Deut_core.Engine.s_pool;
  let pages = ref [] in
  Deut_storage.Page_store.iter_stable sh0.Deut_core.Engine.s_store (fun p ->
      pages := (p.Deut_storage.Page.pid, Bytes.to_string p.Deut_storage.Page.buf) :: !pages);
  let buf = Buffer.create 4096 in
  List.iter
    (fun (pid, bytes) ->
      Buffer.add_string buf (string_of_int pid);
      Buffer.add_char buf ':';
      Buffer.add_string buf bytes)
    (List.sort compare !pages);
  Digest.to_hex (Digest.string (Buffer.contents buf))
