(** Every table and figure of the paper's evaluation (§5.3, Appendices B,
    C, D) and the reproduction's own sweeps, each written once as a
    {!sweep} in {!sweeps}: [bench/main.exe] runs each as a timed section,
    [repro_cli] makes each a command, and [Bench_summary] writes each
    one's JSON.

    A sweep performs its workloads, crashes and recoveries, verifies every
    recovery against the oracle, and raises [Failure] when one of its
    determinism gates (digests that must agree across cells) fails.
    Sweeps fan independent cells across [config.domains] real domains,
    which changes wall clock only: simulated numbers and digests are
    identical at any width. *)

(** What every sweep runs from. *)
type ctx = {
  config : Deut_core.Config.t;  (** every cell's base config; [domains] sets the fan-out *)
  scale : int;  (** divisor of the paper's sizes (DESIGN.md §1) *)
  cache : Experiment.build_cache option;  (** crash builds shared across sweeps *)
  methods : Deut_core.Recovery.method_ list option;
      (** restricts the recovery methods of fig2 and tuning; [None] runs
          each sweep's own *)
  progress : string -> unit;
}

(** One parameter of a sweep, a list of positive integers. *)
type param = {
  flag : string;  (** its [repro_cli] option [--flag], and its key in [run]'s arguments *)
  doc : string;
  full : int list;  (** the bench's full-sweep value, and the CLI default *)
  quick : int list;  (** the bench's [DEUT_QUICK] value *)
  single : bool;  (** takes exactly one value *)
}

(** A sweep's result, rendered. *)
type output = {
  tables : (string * string) list;  (** (bench section title, text table) *)
  json : Deut_obs.Json.t;  (** every simulated number the tables print, and every digest *)
}

type sweep = {
  name : string;  (** its bench section and its key in the bench JSON *)
  command : string;  (** its [repro_cli] command *)
  doc : string;
  params : param list;
  run : ctx -> (string * int list) list -> output;
      (** the sweep, given a value for every param, keyed by flag *)
}

val sweeps : sweep list
(** fig2, fig3, appd, split, workers, concurrency, sharding, archiving,
    availability and tuning, in the bench's order. *)

val digests_agree : string -> (string * string) list -> unit
(** [digests_agree sweep cells] is the determinism gate shared by every
    sweep: each [(coordinates, digest)] pair must carry the first pair's
    digest.  Raises [Failure] naming [sweep], both cells' coordinates and
    both digests otherwise. *)

(** One cache-size cell of the Figure 2 experiment. *)
type fig2_cell = {
  cache_mb : int;  (** paper-equivalent cache size *)
  pool_pages : int;
  db_pages : int;
  dirty_pct : float;  (** Figure 2(b): dirty % of the cache at crash *)
  deltas_seen : int;  (** Figure 2(c): Δ records seen by analysis *)
  bws_seen : int;  (** Figure 2(c): BW records seen by analysis *)
  methods : (Deut_core.Recovery.method_ * Deut_core.Recovery_stats.t) list;
  build_wall_s : float;
      (** real (wall-clock) seconds spent building the workload and crash
          image for this cell — runtime cost, not simulated time *)
  method_walls : (Deut_core.Recovery.method_ * float) list;
      (** real seconds per recover+verify, in [methods] order *)
  digests : (Deut_core.Recovery.method_ * (string * string)) list;
      (** (store, logical) digest of each method's recovered state *)
}

val run_fig2 : ctx -> cache_sizes:int list -> fig2_cell list
(** The [fig2] sweep's cells: one crash per cache size, recovered with
    [ctx.methods] (default: the paper's five).  Fans the builds, then the
    full (cache size, method) recovery grid, across [config.domains]
    domains. *)
