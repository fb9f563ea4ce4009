(** Engine configuration: all knobs for the experiments in one record. *)

(** The Appendix D spectrum of DC logging (§D):
    - [Standard] — the paper's Δ-log record: DirtySet, WrittenSet, FW-LSN,
      FirstDirty, TC-LSN.
    - [Perfect] — §D.1: DirtySet entries carry their exact dirtying LSNs
      (DirtyLSNs array), so the DC can rebuild the same DPT SQL Server
      would.
    - [Reduced] — §D.2: no FW-LSN / FirstDirty; every dirty entry gets the
      previous Δ record's TC-LSN as its rLSN, and the written set may prune
      only entries from earlier Δ records. *)
type dpt_mode = Standard | Perfect | Reduced

let dpt_mode_to_string = function
  | Standard -> "standard"
  | Perfect -> "perfect"
  | Reduced -> "reduced"

(** Checkpointing scheme:
    - [Penultimate] — SQL Server's scheme (§3.2): begin-checkpoint, flush
      everything dirtied before it, end-checkpoint; recovery starts at the
      last completed checkpoint's begin record with an empty DPT.
    - [Aries_fuzzy] — classic ARIES (§3.1): capture the runtime DPT in the
      checkpoint without flushing; redo starts at the minimum rLSN. *)
type checkpoint_mode = Penultimate | Aries_fuzzy

let checkpoint_mode_to_string = function
  | Penultimate -> "penultimate"
  | Aries_fuzzy -> "aries-fuzzy"

(** Where DC records (SMO page images, Δ- and BW-records) are logged:
    - [Integrated] — the paper's prototype (§5.1): one shared log carries
      both TC and DC records, so physiological and logical recovery can run
      side-by-side from the same log.
    - [Split] — the Deuteronomy architecture proper (§4.2): the DC has its
      own log with its own LSN space (pages carry a separate DC pLSN), and
      DC recovery scans only that short log.  Only the logical methods can
      recover in this layout. *)
type log_layout = Integrated | Split

let log_layout_to_string = function Integrated -> "integrated" | Split -> "split"

(** Data-page prefetch source for Log2 (Appendix A.2):
    - [Pf_list] — the paper's choice: a "log-driven" read-ahead over the
      PF-list, the deduplicated concatenation of Δ-record DirtySets in
      update order.
    - [Dpt_order] — the alternative the paper discusses: prefetch the DPT's
      pages in ascending rLSN order, independent of the log. *)
type prefetch_source = Pf_list | Dpt_order

let prefetch_source_to_string = function Pf_list -> "pf-list" | Dpt_order -> "dpt-order"

(* The simulated cost model's fixed parameters, the same in every run.
   Every device is the one disk model; the log devices (TC log, DC log,
   archive) stream, so they get a longer sequential gap. *)
let data_disk = Deut_sim.Disk.default_params
let log_disk = { data_disk with Deut_sim.Disk.sequential_gap = 4 }
let cpu_op_us = 2.0 (* per redo log record, and per client operation *)
let cpu_index_level_us = 1.0 (* per B-tree level a logical redo descends *)
let think_us = 300.0 (* mean client think time between transactions *)
let retry_backoff_us = 150.0 (* base of a client's backoff after a lock conflict *)

type t = {
  page_size : int;
  pool_pages : int;  (** cache capacity in pages *)
  delta_period : int;  (** updates between periodic Δ/BW-record emissions *)
  delta_capacity : int;  (** DirtySet/WrittenSet entries that force an emission *)
  lazy_writer_every : int;
      (** flush one dirty page per this many cache {e misses} (0 = off):
          miss-pressure-driven background cleaning (SQL Server's lazy
          writer) whose flush events give the DPT something to prune; a
          cache larger than the working set sees little of it, so its DPT
          keeps growing — the paper's large-cache regime *)
  dpt_mode : dpt_mode;
  checkpoint_mode : checkpoint_mode;
  prefetch_window : int;  (** top up prefetch when in-flight drops below this *)
  prefetch_chunk : int;  (** pids submitted per top-up *)
  prefetch_lookahead : int;  (** SQL2 log read-ahead horizon, in records *)
  prefetch_source : prefetch_source;  (** Log2's data-prefetch driver (App. A.2) *)
  redo_workers : int;
      (** simulated parallel redo workers (1 = sequential replay).  Records
          are applied in log order regardless, so recovery results are
          identical for any count; workers only overlap CPU and page-fetch
          stalls on the shared virtual clock.  [of_env] reads it from
          [DEUT_REDO_WORKERS]. *)
  log_layout : log_layout;  (** integrated (§5.1 prototype) or split (§4.2) *)
  locking : bool;
      (** strict 2PL key locks at the TC (no-wait conflicts), the minimal
          stand-in for the companion locking paper [13]; off by default —
          the recovery experiments are single-transaction-at-a-time *)
  group_commit : int;
      (** force the log every Nth commit (1 = every commit, the paper's
          setting).  Queued commits are {e not durable} until the next
          force — a crash loses them, and recovery correctly treats them
          as losers. *)
  clients : int;
      (** simulated concurrent clients driving normal execution (1 = one
          serial client).  Like [redo_workers], clients are a timing
          overlay on the virtual clock: transaction descriptors come from
          a shared seeded stream in hand-out (ticket) order and commits
          are gated to ticket order, so the committed state is identical
          at any client count — only timing, aborts and IO overlap vary.
          [of_env] reads it from [DEUT_CLIENTS]. *)
  flight : bool;
      (** keep the always-on flight recorder ({!Deut_obs.Flight}): a small
          bounded ring of recent protocol/durability history per component
          that rides inside crash images for [repro_cli forensics].  On by
          default — recording is O(1) into preallocated rings and never
          advances the simulated clock, so it cannot perturb results; the
          switch exists for the zero-observer-effect tests.  [of_env] reads
          it from [DEUT_FLIGHT]. *)
  tracing : bool;
      (** record structured events (virtual-clock timestamped) into the
          engine's trace, which keeps every event; off by default —
          recording is skipped entirely when disabled and never advances
          the simulated clock either way *)
  archive : bool;
      (** archive the live log to sealed segments on a dedicated device and
          truncate it at the archive point on every [Db.compact_log]; off
          by default.  Archiving is a background overlay on the virtual
          clock (segment writes are fire-and-forget on their own disk), so
          enabling it cannot perturb simulated results.  [of_env] reads it
          from [DEUT_ARCHIVE]. *)
  shards : int;
      (** data-component shards (1 = the single-DC engine).  With more than
          one, the key space is striped ([key mod shards]) across
          independent DCs — each with its own buffer pool (an equal slice
          of [pool_pages]), page store, data disk and DC log — driven by
          the one TC through the {!Dc_access} message protocol; the TC log
          stays the single commit order, so cross-shard transactions
          commit atomically.  Implies the split log layout per shard
          (Δ/BW/SMO records never share the TC log), which bars the
          physiological methods, ARIES fuzzy checkpoints and InstantLog2.
          [of_env] reads it from [DEUT_SHARDS]. *)
  domains : int;
      (** real OS-level parallelism for the harness: the number of OCaml
          domains [Figures] and the bench fan independent sweep cells
          across (1 = sequential).  It never affects a recovery: redo is
          one pass on the engine's own domain at every setting, so
          recovered state, statistics and simulated times are the same at
          any domain count ([redo_workers] models parallel redo on the
          simulated clock).  [of_env] reads it from [DEUT_DOMAINS]. *)
  net : bool;
      (** route TC↔DC messages over simulated network links
          ({!Deut_net.Link}) with the [net_*] cost model below; off by
          default — the in-process transport adds zero simulated time, so
          [shards = 1] without [net] is byte-identical to the pre-protocol
          engine.  [of_env] reads it from [DEUT_NET]. *)
  net_latency_us : float;  (** one-way message latency ([DEUT_NET_LATENCY_US]) *)
  net_jitter_us : float;  (** uniform extra delay per message ([DEUT_NET_JITTER_US]) *)
  net_loss : float;  (** message loss probability ([DEUT_NET_LOSS]) *)
  net_reorder : float;  (** reorder (late-arrival) probability ([DEUT_NET_REORDER]) *)
  net_timeout_us : float;  (** retransmit timeout after a loss ([DEUT_NET_TIMEOUT_US]) *)
  seed : int;
}

(* The one reader of the engine knobs' DEUT_* variables: binaries apply
   it once, at their edge, and pass the result down ([default] never looks
   at the environment).  An unset or empty variable keeps [config]'s value
   ([Unix] cannot unset one, so a restored variable is empty); any other
   value must parse, or this raises [Invalid_argument] naming it. *)
let of_env ?(getenv = Sys.getenv_opt) config =
  let knob name what parse current =
    match Option.map String.trim (getenv name) with
    | None | Some "" -> current
    | Some s -> (
        match parse s with
        | Some v -> v
        | None -> invalid_arg (Printf.sprintf "%s=%S: expected %s" name s what))
  in
  let int_at_least lo s =
    match int_of_string_opt s with Some n when n >= lo -> Some n | _ -> None
  in
  let pos_int name = knob name "a positive integer" (int_at_least 1) in
  let nonneg_float name =
    knob name "a non-negative number" (fun s ->
        match float_of_string_opt s with Some f when f >= 0.0 -> Some f | _ -> None)
  in
  let flag name =
    knob name "1/true/yes or 0/false/no" (function
      | "1" | "true" | "yes" -> Some true
      | "0" | "false" | "no" -> Some false
      | _ -> None)
  in
  {
    config with
    flight = flag "DEUT_FLIGHT" config.flight;
    redo_workers = pos_int "DEUT_REDO_WORKERS" config.redo_workers;
    clients = pos_int "DEUT_CLIENTS" config.clients;
    archive = flag "DEUT_ARCHIVE" config.archive;
    shards = pos_int "DEUT_SHARDS" config.shards;
    domains = pos_int "DEUT_DOMAINS" config.domains;
    net = flag "DEUT_NET" config.net;
    net_latency_us = nonneg_float "DEUT_NET_LATENCY_US" config.net_latency_us;
    net_jitter_us = nonneg_float "DEUT_NET_JITTER_US" config.net_jitter_us;
    net_loss = nonneg_float "DEUT_NET_LOSS" config.net_loss;
    net_reorder = nonneg_float "DEUT_NET_REORDER" config.net_reorder;
    net_timeout_us = nonneg_float "DEUT_NET_TIMEOUT_US" config.net_timeout_us;
  }

let default =
  {
    page_size = 8192;
    pool_pages = 1024;
    delta_period = 1000;
    delta_capacity = 256;
    lazy_writer_every = 1;
    dpt_mode = Standard;
    checkpoint_mode = Penultimate;
    prefetch_window = 32;
    prefetch_chunk = 16;
    prefetch_lookahead = 512;
    prefetch_source = Pf_list;
    redo_workers = 1;
    log_layout = Integrated;
    locking = false;
    group_commit = 1;
    clients = 1;
    flight = true;
    tracing = false;
    archive = false;
    shards = 1;
    domains = 1;
    net = false;
    (* A LAN-ish default cost model, only charged when [net] is on. *)
    net_latency_us = 50.0;
    net_jitter_us = 0.0;
    net_loss = 0.0;
    net_reorder = 0.0;
    net_timeout_us = 1000.0;
    seed = 42;
  }
