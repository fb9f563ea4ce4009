(** Named metrics registry: counters, dials, gauges and log-scale histograms.

    Every engine owns one registry.  Components register their own
    instruments under dotted names ("cache.hits", "disk.data.io_us") and
    mutate them through O(1) handles; readers ([Db.metric], the CLI)
    address them by name.  The registry never touches the simulated clock,
    so it cannot perturb simulated time.

    Instrumentation is single-domain: a registry belongs to the domain
    that created it (normally the domain running that engine), and
    registering an instrument from any other domain raises
    [Invalid_argument] — a loud guard, since a silent cross-domain race
    would corrupt the table.  The domain-parallel harness honours this
    by giving every cell its own engine, hence its own registry;
    reading a registry after the owning domain has been joined is safe. *)

type counter
(** Monotonic integer cell. *)

type dial
(** Settable float cell (a gauge the writer pushes into). *)

type histogram
(** Fixed-bucket histogram.  Buckets are upper bounds in ascending order
    plus an implicit overflow bucket. *)

type t
(** A registry. *)

val create : unit -> t

(** {1 Registration}

    [counter]/[dial]/[histogram] are get-or-create: asking for an existing
    name returns the existing instrument of that kind (so independent
    components may share a cell on purpose) and raises [Invalid_argument]
    on a kind mismatch.  [gauge] has no handle to share, so registering a
    gauge name twice raises [Invalid_argument] — a duplicate means two
    writers are fighting over one name, and shadowing either would
    silently lose an instrument. *)

val counter : t -> string -> counter
val dial : t -> string -> dial

val gauge : t -> string -> (unit -> float) -> unit
(** Lazy read-only metric; [read] runs only when the registry is queried.
    @raise Invalid_argument on a duplicate name. *)

val histogram : t -> ?base:float -> ?lo:float -> ?buckets:int -> string -> histogram
(** Log-scale buckets: upper bounds [lo *. base^i] for [i < buckets]
    (defaults: base 2.0, lo 1.0, 24 buckets — 1 µs up to ~8.4 simulated
    seconds), plus an overflow bucket. *)

(** {1 Writing} *)

val incr : counter -> unit
val add : counter -> int -> unit

val reset_counter : counter -> unit
(** Zero the cell.  Owners that reuse one registry across runs (e.g.
    [Recovery_stats] under the memoized harness) reset their instruments
    at the start of each run rather than accumulate across cells. *)

val fset : dial -> float -> unit
val fadd : dial -> float -> unit
val observe : histogram -> float -> unit

(** {1 Reading} *)

val count : counter -> int
val value : dial -> float

val bucket_of : histogram -> float -> int
(** Index of the bucket [observe] would land the value in (last index is
    the overflow bucket). *)

val bucket_bounds : histogram -> float array
val bucket_counts : histogram -> int array
val observations : histogram -> int
val sum : histogram -> float

val percentile : histogram -> float -> float
(** [percentile h p] for [p] in [0, 100]: the upper bound of the first
    bucket at which the cumulative count reaches [p]% of observations —
    an upper estimate quantised to the bucket grid.  Observations in the
    overflow bucket report the largest finite bound.  0 when empty. *)

val read : t -> string -> float
(** Current value by name: counters as floats, dials as-is, gauges by
    calling their closure, histograms as their running sum.
    @raise Not_found if no such metric is registered. *)

val read_int : t -> string -> int
(** [truncate (read t name)]. *)

val mem : t -> string -> bool

val find_histogram : t -> string -> histogram option
(** The histogram registered under [name], if any ([None] also when the
    name holds a different kind of instrument). *)

val names : t -> string list
(** All registered names, in registration order. *)

val render : t -> string
(** Human-readable dump: one [name value] line per scalar metric, and for
    each histogram a line with count/sum/mean plus its non-empty buckets. *)
