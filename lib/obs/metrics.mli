(** Named metrics registry: gauges and log-scale histograms.

    Every engine owns one registry.  A gauge is a read-only view over live
    component state: the component keeps a plain mutable record (the
    buffer pool's, a disk's or a link's counters, [Recovery_stats.t]) and
    registers one closure per field, which runs only when a reader
    ([Db.metric], the CLI, the trace export) asks for the name.  A
    histogram is the one kind the registry stores itself: components
    observe latencies into it through an O(1) handle.  Names are dotted
    ("cache.hits", "disk.data.io_us").  The registry never touches the
    simulated clock, so it cannot perturb simulated time.

    Instrumentation is single-domain: a registry belongs to the domain
    that created it (normally the domain running that engine), and
    registering an instrument from any other domain raises
    [Invalid_argument] — a loud guard, since a silent cross-domain race
    would corrupt the table.  The domain-parallel harness honours this
    by giving every cell its own engine, hence its own registry;
    reading a registry after the owning domain has been joined is safe. *)

type histogram
(** Fixed-bucket histogram.  Buckets are upper bounds in ascending order
    plus an implicit overflow bucket. *)

type t
(** A registry. *)

val create : unit -> t

(** {1 Registration} *)

val gauge : t -> string -> (unit -> float) -> unit
(** Lazy read-only metric; [read] runs only when the registry is queried.
    A gauge has no handle to share, so a second registration of its name
    means two writers are fighting over it, and shadowing either would
    silently lose one.
    @raise Invalid_argument on a duplicate name. *)

val histogram : t -> ?base:float -> ?lo:float -> ?buckets:int -> string -> histogram
(** Log-scale buckets: upper bounds [lo *. base^i] for [i < buckets]
    (defaults: base 2.0, lo 1.0, 24 buckets — 1 µs up to ~8.4 simulated
    seconds), plus an overflow bucket.  Get-or-create: asking for an
    existing histogram name returns that histogram, so shards share one
    latency distribution.
    @raise Invalid_argument if the name holds a gauge. *)

(** {1 Writing} *)

val observe : histogram -> float -> unit

(** {1 Reading} *)

val observations : histogram -> int

val percentile : histogram -> float -> float
(** [percentile h p] for [p] in [0, 100]: the upper bound of the first
    bucket at which the cumulative count reaches [p]% of observations —
    an upper estimate quantised to the bucket grid.  Observations in the
    overflow bucket report the largest finite bound.  0 when empty. *)

val read : t -> string -> float
(** Current value by name: gauges by calling their closure, histograms as
    their running sum.
    @raise Not_found if no such metric is registered. *)

val read_int : t -> string -> int
(** [truncate (read t name)]. *)

val find_histogram : t -> string -> histogram option
(** The histogram registered under [name], if any ([None] also when the
    name holds a different kind of instrument). *)

val names : t -> string list
(** All registered names, in registration order. *)

val render : t -> string
(** Human-readable dump: one [name value] line per gauge, and for
    each histogram a line with count/sum/mean plus its non-empty buckets. *)
