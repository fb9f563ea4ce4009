(** Every table and figure of the paper's evaluation (§5.3, Appendices B,
    C, D) and the reproduction's own sweeps, each written once as a
    {!sweep} in {!sweeps}: [bench/main.exe] runs each as a timed section,
    [repro_cli] makes each a command, and [Bench_summary] writes each
    one's JSON.  A sweep's result is its JSON, and every table is rendered
    from that JSON alone, so a saved bench summary reprints the same
    tables ([repro_cli show]).

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

type sweep = {
  name : string;  (** its bench section and its key in the bench JSON *)
  command : string;  (** its [repro_cli] command *)
  doc : string;
  params : param list;
  run : ctx -> (string * int list) list -> Deut_obs.Json.t;
      (** the sweep, given a value for every param, keyed by flag: its
          block of the bench JSON, an array of rows holding every simulated
          number its tables print and every digest *)
  tables : (string * (Deut_obs.Json.t list -> string)) list;
      (** (bench section title, the text table rendered from the rows) *)
}

val sweeps : sweep list
(** fig2, fig3, appd, split, workers, concurrency, sharding, archiving,
    availability and tuning, in the bench's order. *)

val tables : sweep -> Deut_obs.Json.t -> (string * string) list
(** [tables sw block] renders each of [sw]'s tables from its JSON block —
    what [run] returned, or the block a saved bench summary holds under
    [sw.name] — as (section title, text).  Raises [Json.Parse_error] on a
    block of the wrong shape. *)

val sections : sweep -> Deut_obs.Json.t -> string
(** The bench's text for [sw]: each of its {!tables} under its
    {!Report.section} heading. *)

val digests_agree : string -> (string * string) list -> unit
(** [digests_agree sweep cells] is the determinism gate shared by every
    sweep: each [(coordinates, digest)] pair must carry the first pair's
    digest.  Raises [Failure] naming [sweep], both cells' coordinates and
    both digests otherwise. *)
