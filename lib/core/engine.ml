(** Assembly of one running engine instance: clock, disks, stable store,
    log, cache, DC shards, TC, and the trace, metrics and flight recorder.
    [Db] wraps this for users; the recovery drivers assemble one from a
    crash image.

    The TC side never holds a [Dc.t] — it holds a {!Dc_access.router}
    whose endpoints dispatch into the shards, either in-process (the
    default: a closure straight onto {!Dc.handle}, zero simulated cost)
    or over a per-shard {!Deut_net.Link} when [Config.net] is on.  With
    [Config.shards = 1] and the in-process transport the assembly below
    is structurally identical to the pre-protocol engine, which is what
    keeps its digests byte-identical. *)

module Clock = Deut_sim.Clock
module Disk = Deut_sim.Disk
module Page_store = Deut_storage.Page_store
module Log_manager = Deut_wal.Log_manager
module Archive = Deut_wal.Archive
module Pool = Deut_buffer.Buffer_pool
module Link = Deut_net.Link
module Trace = Deut_obs.Trace
module Metrics = Deut_obs.Metrics
module Flight = Deut_obs.Flight

(* One data component: its own stable store, cache, DC log and devices.
   The mutable fields are what a per-shard crash destroys and a per-shard
   recovery rebuilds; the router's endpoint closures read them afresh on
   every call, so a recovered shard swaps in without re-wiring the TC. *)
type shard = {
  s_id : int;
  s_data_disk : Disk.t;
  s_dc_log_disk : Disk.t option;  (* [None] only in the integrated layout *)
  s_link : Link.t option;  (* the simulated TC↔DC link when [Config.net] *)
  mutable s_store : Page_store.t;
  mutable s_dc_log : Log_manager.t;
  mutable s_pool : Pool.t;
  mutable s_dc : Dc.t;
  mutable s_up : bool;
}

type t = {
  config : Config.t;
  clock : Clock.t;
  log_disk : Disk.t;
  archive_disk : Disk.t option;  (* the archive's device when archiving is on *)
  log : Log_manager.t;  (* the TC log; also carries DC records when integrated *)
  tc : Tc.t;
  trace : Trace.t option;  (* present only when [Config.tracing] is on *)
  metrics : Metrics.t;
  flight : Flight.t option;  (* absent only when [Config.flight] is off *)
  shards : shard array;
  router : Dc_access.router;
  tc_ep : Dc_access.tc_endpoint;  (* the un-networked DC→TC direction *)
}

let split t = t.config.Config.log_layout = Config.Split
let trace t = t.trace
let metrics t = t.metrics
let flight t = t.flight
let shard_count t = Array.length t.shards
let shard t i = t.shards.(i)
let shard_up t i = t.shards.(i).s_up
let router t = t.router

(* Per-shard layout: more than one shard forces the split layout (each DC
   logs into its own short log — pids are per-shard page spaces, so a
   single integrated log would interleave records no one shard could
   replay) and an equal slice of the cache budget. *)
let normalize config =
  if config.Config.shards <= 1 then config
  else begin
    if config.Config.checkpoint_mode = Config.Aries_fuzzy then
      invalid_arg
        "Engine: ARIES fuzzy checkpoints need a single physical page space (shards = 1)";
    { config with Config.log_layout = Config.Split }
  end

let shard_pool_pages config =
  if config.Config.shards <= 1 then config.Config.pool_pages
  else Stdlib.max 8 (config.Config.pool_pages / config.Config.shards)

(* Lazy gauges over every live counter the engine keeps: the one stats
   namespace, which [Db.metric], [Db.stats_string] and the CLI read by name
   instead of crawling component records.  Reading a gauge never mutates
   anything; every per-shard counter is summed across shards here and
   nowhere else (a single shard reads exactly as before). *)
let register_gauges t =
  let m = metrics t in
  let fi name f = Metrics.gauge m name (fun () -> float_of_int (f ())) in
  let ff name f = Metrics.gauge m name f in
  let sum f = Array.fold_left (fun acc sh -> acc + f sh) 0 t.shards in
  let sumf f = Array.fold_left (fun acc sh -> acc +. f sh) 0.0 t.shards in
  fi "cache.capacity" (fun () -> sum (fun sh -> Pool.capacity sh.s_pool));
  fi "cache.resident" (fun () -> sum (fun sh -> Pool.size sh.s_pool));
  fi "cache.dirty" (fun () -> sum (fun sh -> Pool.dirty_count sh.s_pool));
  let pc f = sum (fun sh -> f (Pool.counters sh.s_pool)) in
  fi "cache.hits" (fun () -> pc (fun c -> c.Pool.hits));
  fi "cache.misses" (fun () -> pc (fun c -> c.Pool.misses));
  fi "cache.prefetch_issued" (fun () -> pc (fun c -> c.Pool.prefetch_issued));
  fi "cache.prefetch_refused" (fun () -> pc (fun c -> c.Pool.prefetch_refused));
  fi "cache.prefetch_hits" (fun () -> pc (fun c -> c.Pool.prefetch_hits));
  fi "cache.stalls" (fun () -> pc (fun c -> c.Pool.stalls));
  ff "cache.stall_us" (fun () -> sumf (fun sh -> (Pool.counters sh.s_pool).Pool.stall_us));
  fi "cache.evictions" (fun () -> pc (fun c -> c.Pool.evictions));
  fi "cache.flushes" (fun () -> pc (fun c -> c.Pool.flushes));
  let dd f = sum (fun sh -> f (Disk.counters sh.s_data_disk)) in
  fi "disk.data.pages_read" (fun () -> dd (fun c -> c.Disk.pages_read));
  fi "disk.data.pages_written" (fun () -> dd (fun c -> c.Disk.pages_written));
  fi "disk.data.seeks" (fun () -> dd (fun c -> c.Disk.seeks));
  fi "disk.data.sequential" (fun () -> dd (fun c -> c.Disk.sequential_requests));
  fi "disk.log.pages_read" (fun () -> (Disk.counters t.log_disk).Disk.pages_read);
  fi "log.tc.records" (fun () -> Log_manager.record_count t.log);
  fi "log.tc.end_lsn" (fun () -> Log_manager.end_lsn t.log);
  fi "log.tc.base_lsn" (fun () -> Log_manager.base_lsn t.log);
  fi "log.tc.forces" (fun () -> Log_manager.force_count t.log);
  fi "log.dc.records" (fun () ->
      if split t then sum (fun sh -> Log_manager.record_count sh.s_dc_log) else 0);
  fi "log.dc.end_lsn" (fun () ->
      if split t then sum (fun sh -> Log_manager.end_lsn sh.s_dc_log) else 0);
  fi "log.dc.base_lsn" (fun () ->
      if split t then sum (fun sh -> Log_manager.base_lsn sh.s_dc_log) else 0);
  (* Archive gauges are registered unconditionally (0 with archiving off)
     so dashboards and [Db.metric] read a stable namespace. *)
  let arch f = fun () -> match Log_manager.archive t.log with Some a -> f a | None -> 0 in
  fi "archive.segments" (arch Archive.segment_count);
  fi "archive.bytes" (arch Archive.sealed_bytes);
  fi "archive.cuts" (arch Archive.seal_count);
  fi "archive.covered_upto" (arch Archive.covered_upto);
  fi "disk.archive.pages_written" (fun () ->
      match t.archive_disk with Some d -> (Disk.counters d).Disk.pages_written | None -> 0);
  fi "disk.archive.pages_read" (fun () ->
      match t.archive_disk with Some d -> (Disk.counters d).Disk.pages_read | None -> 0);
  let mon f = sum (fun sh -> f (Dc.monitor sh.s_dc)) in
  fi "monitor.delta_records" (fun () -> mon Monitor.deltas_written);
  fi "monitor.delta_bytes" (fun () -> mon Monitor.delta_bytes);
  fi "monitor.bw_records" (fun () -> mon Monitor.bws_written);
  fi "monitor.bw_bytes" (fun () -> mon Monitor.bw_bytes);
  fi "store.allocated" (fun () -> sum (fun sh -> Page_store.allocated_count sh.s_store));
  fi "store.stable" (fun () -> sum (fun sh -> Page_store.stable_count sh.s_store));
  fi "tc.commits" (fun () -> Tc.commit_count t.tc);
  fi "tc.aborts" (fun () -> Tc.abort_count t.tc);
  fi "locks.conflicts" (fun () -> Tc.lock_conflicts t.tc);
  fi "locks.keys" (fun () -> Tc.locked_keys t.tc);
  fi "shards.total" (fun () -> Array.length t.shards);
  fi "shards.up" (fun () -> sum (fun sh -> if sh.s_up then 1 else 0));
  let net f =
    sumf (fun sh -> match sh.s_link with Some l -> f (Link.counters l) | None -> 0.0)
  in
  fi "net.messages" (fun () -> int_of_float (net (fun c -> float_of_int c.Link.messages)));
  fi "net.retransmits" (fun () ->
      int_of_float (net (fun c -> float_of_int c.Link.retransmits)));
  fi "net.reorders" (fun () -> int_of_float (net (fun c -> float_of_int c.Link.reorders)));
  ff "net.delay_us" (fun () -> net (fun c -> c.Link.delay_us));
  ff "clock.now_us" (fun () -> Clock.now t.clock)

(* The in-process endpoint for one shard: a closure onto [Dc.handle],
   reading the mutable [s_dc]/[s_up] at every call so per-shard recovery
   swaps components without re-wiring.  Costs nothing on the clock. *)
let local_endpoint sh =
  let call : type a. a Dc_access.request -> a =
   fun req ->
    if not sh.s_up then raise (Dc_access.Unavailable sh.s_id);
    Dc.handle sh.s_dc req
  in
  { Dc_access.shard = sh.s_id; call }

(* One shard's volatile stack over its durable state and devices: the DC
   log wired to its device, a fresh cache and a DC.  Assembly builds every
   shard with it, and a per-shard crash rebuilds the crashed one with it.  [tc_ep] is
   the TC's un-networked endpoint; the DC sees it over the shard's link
   when there is one. *)
let build_stack ?trace ?flight ~config ~clock ~m ~tc_ep ~i ~store ~dc_log ~data_disk
    ~dc_log_disk ~link () =
  (match dc_log_disk with
  | Some disk ->
      Log_manager.attach_read_disk dc_log disk;
      Log_manager.instrument dc_log ?trace
        ?flight:(Option.map (fun f -> (f, i)) flight)
        ()
  | None -> ());
  let pool =
    Pool.create ~capacity:(shard_pool_pages config)
      ~lazy_writer_every:config.Config.lazy_writer_every
      ~lazy_writer_min_age:(2 * config.Config.delta_period) ~store ~disk:data_disk ~clock ()
  in
  Pool.instrument pool ?trace ~stall_hist:(Metrics.histogram m "cache.stall_wait_us") ();
  let tc = match link with Some l -> Dc_access.networked_tc l tc_ep | None -> tc_ep in
  (pool, Dc.create ?trace ~config ~clock ~disk:data_disk ~store ~pool ~dc_log ~tc ())

let assemble ?dc_log ?extra_shards config ~store ~log =
  let config = normalize config in
  let n = Stdlib.max 1 config.Config.shards in
  let clock = Clock.create () in
  let now () = Clock.now clock in
  let trace = if config.Config.tracing then Some (Trace.create ~now ()) else None in
  let flight = if config.Config.flight then Some (Flight.create ~now ~components:n ()) else None in
  let m = Metrics.create () in
  (* Shard-local device histograms carry their shard prefix whenever the
     engine is sharded — including shard 0, so "shard0.disk.data.io_us"
     lines up with its siblings instead of hiding under the historical
     unprefixed name.  Single-shard keeps the unprefixed names (and the
     committed baselines). *)
  let shard0_hist base = if n = 1 then base else "shard0." ^ base in
  let data_disk = Disk.create ~params:Config.data_disk clock in
  let log_disk = Disk.create ~params:Config.log_disk clock in
  Disk.instrument data_disk ?trace
    ~io_hist:(Metrics.histogram m (shard0_hist "disk.data.io_us"))
    ~track:Trace.track_data_disk ();
  Disk.instrument log_disk ?trace ~io_hist:(Metrics.histogram m "disk.log.io_us")
    ~track:Trace.track_log_disk ();
  Log_manager.attach_read_disk log log_disk;
  Log_manager.instrument log ?trace
    ?flight:(Option.map (fun f -> (f, Flight.tc)) flight)
    ();
  (* Shard 0's DC log keeps the historical single-shard wiring (shared log
     when integrated, own log and device when split). *)
  let dc_log0, dc_log_disk0 =
    match config.Config.log_layout with
    | Config.Integrated -> (log, None)
    | Config.Split ->
        let own =
          match dc_log with
          | Some l -> l
          | None -> Log_manager.create ~page_size:config.Config.page_size
        in
        let disk = Disk.create ~params:Config.log_disk clock in
        Disk.instrument disk ?trace
          ~io_hist:(Metrics.histogram m (shard0_hist "disk.dc_log.io_us"))
          ~track:Trace.track_dc_log_disk ();
        (own, Some disk)
  in
  (* Attach the archive when configured on — or when the log already
     carries one, i.e. this engine is being assembled from a crash image of
     an archiving incarnation: the segments are durable device state and
     must stay readable even if the restart's config flag differs. *)
  let archive_disk =
    let existing = Log_manager.archive log in
    if config.Config.archive || existing <> None then begin
      let a =
        match existing with
        | Some a -> a
        | None ->
            let a = Archive.create ~page_size:config.Config.page_size in
            Log_manager.attach_archive log a;
            a
      in
      let disk = Disk.create ~params:Config.log_disk clock in
      Disk.instrument disk ?trace ~io_hist:(Metrics.histogram m "disk.archive.io_us")
        ~track:Trace.track_archive_disk ();
      Archive.attach_disk a disk;
      Archive.instrument a ?trace ();
      Some disk
    end
    else None
  in
  let tc_ep =
    {
      Dc_access.force_upto =
        (fun lsn ->
          (match flight with
          | Some f -> Flight.record f ~comp:Flight.tc Flight.Handle "force_upto" ~lsn ()
          | None -> ());
          Log_manager.force_upto log lsn;
          Log_manager.stable_lsn log);
    }
  in
  let link_for i =
    if not config.Config.net then None
    else
      let track = if n = 1 then Trace.track_net else Trace.track_shard i in
      let params =
        {
          Link.latency_us = config.Config.net_latency_us;
          jitter_us = config.Config.net_jitter_us;
          loss = config.Config.net_loss;
          reorder = config.Config.net_reorder;
          timeout_us = config.Config.net_timeout_us;
        }
      in
      Some (Link.create ?trace ~track ~clock ~params ~seed:(config.Config.seed + (7919 * (i + 1))) ())
  in
  let shard_of i =
    let store, dc_log, data_disk, dc_log_disk =
      if i = 0 then (store, dc_log0, data_disk, dc_log_disk0)
      else begin
        (* Sibling shards: own data device and DC-log device on distinct
           trace lanes, own store and short log. *)
        let s_store, s_dc_log =
          match extra_shards with
          | Some a -> a.(i - 1)
          | None ->
              ( Page_store.create ~page_size:config.Config.page_size,
                Log_manager.create ~page_size:config.Config.page_size )
        in
        let d = Disk.create ~params:Config.data_disk clock in
        Disk.instrument d ?trace
          ~io_hist:(Metrics.histogram m (Printf.sprintf "shard%d.disk.data.io_us" i))
          ~track:(Trace.track_shard i) ();
        let ld = Disk.create ~params:Config.log_disk clock in
        Disk.instrument ld ?trace
          ~io_hist:(Metrics.histogram m (Printf.sprintf "shard%d.disk.dc_log.io_us" i))
          ~track:(Trace.track_shard i) ();
        (s_store, s_dc_log, d, Some ld)
      end
    in
    let link = link_for i in
    let pool, dc =
      build_stack ?trace ?flight ~config ~clock ~m ~tc_ep ~i ~store ~dc_log ~data_disk
        ~dc_log_disk ~link ()
    in
    { s_id = i; s_data_disk = data_disk; s_dc_log_disk = dc_log_disk; s_link = link;
      s_store = store; s_dc_log = dc_log; s_pool = pool; s_dc = dc; s_up = true }
  in
  let shards = Array.init n shard_of in
  (* Causal tracing over the protocol.  Every TC→DC exchange gets a fresh
     message id; [current_mid] carries it down the synchronous call chain
     so the link legs and the DC-side handler stamp the same id.  The
     trace view is emitted only for assemblies where the protocol has a
     cost or a remote side (net on, or more than one shard) — a plain
     single-shard in-process engine keeps its historical event stream.
     Flight records are unconditional: the recorder is the always-on black
     box.

     The flow chain per id, in both ring and timestamp order:
     [s] on the TC lane as the request leaves, a [t] per network leg and
     one inside the DC handler span, and [f] back on the TC lane bound to
     the enclosing [req:*] span — which is exactly the synchronous wait
     the TC spent on this message, so [Analysis] charges cross-shard
     stalls (and retransmits, via the ["mid"] args) to it.  A request that
     dies on the way (e.g. [Unavailable]) leaves its flow unterminated:
     the arrow just ends, which is the honest picture. *)
  let next_mid = ref 0 in
  let current_mid = ref (-1) in
  let verbose = config.Config.net || n > 1 in
  let instrumented_endpoint sh =
    let local = local_endpoint sh in
    let serve : type a. a Dc_access.request -> a =
     fun req ->
      let mid = !current_mid in
      let tag = Dc_access.request_tag req in
      (match flight with
      | Some f -> Flight.record f ~comp:sh.s_id Flight.Handle tag ~mid ()
      | None -> ());
      match trace with
      | Some tr when verbose ->
          let ts0 = Clock.now clock in
          let reply = local.Dc_access.call req in
          let ts1 = Clock.now clock in
          Trace.flow_step tr ~name:("dc:" ^ tag) ~cat:"rpc"
            ~track:(Trace.track_shard sh.s_id)
            ~ts:((ts0 +. ts1) /. 2.0)
            ~id:mid ();
          Trace.span tr ~name:("dc:" ^ tag) ~cat:"rpc" ~track:(Trace.track_shard sh.s_id)
            ~ts:ts0 ~dur:(ts1 -. ts0) ~args:[ ("mid", mid) ] ();
          reply
      | _ -> local.Dc_access.call req
    in
    let inner = { local with Dc_access.call = serve } in
    let routed =
      match sh.s_link with
      | Some link -> Dc_access.networked ~flow_id:(fun () -> !current_mid) link inner
      | None -> inner
    in
    let call : type a. a Dc_access.request -> a =
     fun req ->
      let tag = Dc_access.request_tag req in
      let mid = !next_mid in
      incr next_mid;
      let saved = !current_mid in
      current_mid := mid;
      (match flight with
      | Some f -> Flight.record f ~comp:Flight.tc Flight.Send tag ~mid ()
      | None -> ());
      let reply =
        match trace with
        | Some tr when verbose ->
            let ts0 = Clock.now clock in
            Trace.flow_start tr ~name:"rpc" ~cat:"rpc" ~track:Trace.track_recovery ~ts:ts0
              ~id:mid ();
            let reply =
              Fun.protect ~finally:(fun () -> current_mid := saved)
                (fun () -> routed.Dc_access.call req)
            in
            let ts1 = Clock.now clock in
            Trace.span tr ~name:("req:" ^ tag) ~cat:"rpc" ~track:Trace.track_recovery ~ts:ts0
              ~dur:(ts1 -. ts0) ~args:[ ("mid", mid) ] ();
            Trace.flow_end tr ~name:("req:" ^ tag) ~cat:"rpc" ~track:Trace.track_recovery
              ~ts:ts1 ~id:mid ();
            reply
        | _ ->
            Fun.protect ~finally:(fun () -> current_mid := saved)
              (fun () -> routed.Dc_access.call req)
      in
      (match flight with
      | Some f -> Flight.record f ~comp:Flight.tc Flight.Recv tag ~mid ()
      | None -> ());
      reply
    in
    { Dc_access.shard = sh.s_id; call }
  in
  let router = Dc_access.make_router (Array.map instrumented_endpoint shards) in
  let tc = Tc.create ?trace ?flight ~config ~log () in
  let t =
    { config; clock; log_disk; archive_disk; log; tc; trace; metrics = m; flight; shards; router;
      tc_ep }
  in
  register_gauges t;
  t

let fresh config =
  let store = Page_store.create ~page_size:config.Config.page_size in
  let log = Log_manager.create ~page_size:config.Config.page_size in
  let t = assemble config ~store ~log in
  Array.iter (fun sh -> Dc.format sh.s_dc) t.shards;
  t

(* {2 Per-shard crash and revival}

   A single data component failing is the availability story the sharded
   engine exists to tell: its volatile state dies (cache dirt, the DC
   log's unforced tail), its durable state survives (stable pages, stable
   DC-log prefix), the TC and the sibling shards never notice beyond
   [Shard_down] errors on the crashed stripe.  [Recovery.recover_shard]
   replays the survivor state and flips the shard back up. *)

let rebuild_shard t sh ~dc_log =
  let pool, dc =
    build_stack ?trace:(trace t) ?flight:(flight t) ~config:t.config ~clock:t.clock
      ~m:(metrics t) ~tc_ep:t.tc_ep ~i:sh.s_id ~store:sh.s_store ~dc_log
      ~data_disk:sh.s_data_disk ~dc_log_disk:sh.s_dc_log_disk ~link:sh.s_link ()
  in
  sh.s_dc_log <- dc_log;
  sh.s_pool <- pool;
  sh.s_dc <- dc

let crash_shard t i =
  if Array.length t.shards = 1 then
    invalid_arg "Engine.crash_shard: a single-shard engine crashes whole (use Db.crash)";
  let sh = t.shards.(i) in
  if not sh.s_up then invalid_arg (Printf.sprintf "Engine.crash_shard: shard %d already down" i);
  sh.s_up <- false;
  (match flight t with
  | Some f -> Flight.record f ~comp:i Flight.Crash "shard_crash" ()
  | None -> ());
  (* The cache (with its dirty pages) vanishes; the DC log truncates to its
     stable prefix; the stable store is the disk and stays. *)
  rebuild_shard t sh ~dc_log:(Log_manager.crash sh.s_dc_log);
  match trace t with
  | Some tr ->
      Trace.instant tr ~name:"shard_crash" ~cat:"shard" ~track:(Trace.track_shard i)
        ~args:[ ("shard", i) ] ()
  | None -> ()
