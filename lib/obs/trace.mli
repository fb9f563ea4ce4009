(** Append-only buffer of typed events stamped with the simulated clock.

    A trace is created with a [now] closure (normally the engine's virtual
    clock) so this library stays below [Deut_sim] in the dependency order.
    Events are spans (a name, a start timestamp and a duration, all in
    simulated microseconds) or instants.  The buffer doubles when full and
    keeps every event recorded between [create] and [stop], in emission
    order; tracing is a diagnostic mode whose runs cover one recovery, so
    it is not bounded.

    Recording never advances the clock and allocates nothing on the
    disabled path (components hold a [t option] and skip emission when it
    is [None]), so enabling tracing cannot change simulated results — and
    because timestamps come from the deterministic simulation, two
    identical-seed runs export byte-identical files.

    Instrumentation is single-domain: the trace belongs to the domain that
    created it, and recording an event from any other domain raises
    [Invalid_argument] — a loud guard, since two domains racing the write
    cursor would silently tear the buffer.  The domain-parallel harness
    honours this by giving every cell its own engine (and so its own
    trace); reading or exporting after the owning domain has been joined
    is safe. *)

type kind =
  | Span
  | Instant
  | Flow_start  (** Chrome flow [ph:"s"]: causal arrow leaves here *)
  | Flow_step  (** Chrome flow [ph:"t"]: the arrow passes through *)
  | Flow_end  (** Chrome flow [ph:"f"], bound to the enclosing slice *)

type event = {
  name : string;  (** event type, e.g. "io_read", "stall", "redo_op" *)
  cat : string;  (** coarse category, e.g. "io", "cache", "recovery" *)
  track : int;  (** virtual thread lane, see the [track_*] constants *)
  ts : float;  (** start timestamp, simulated µs *)
  dur : float;  (** duration in simulated µs; 0 for instants *)
  kind : kind;
  args : (string * int) list;  (** small structured payload, e.g. page id *)
}

type t

(** {1 Track conventions} *)

val track_recovery : int  (** phase markers, redo ops, checkpoints *)

val track_cache : int  (** buffer pool: fetches, stalls, prefetch *)

val track_data_disk : int
val track_log_disk : int
val track_dc_log_disk : int
val track_wal : int  (** log manager: forces *)

val track_monitor : int  (** TC/DC monitor: delta / BW emission *)

val track_archive_disk : int
(** The archive device and the archiver's lifecycle events
    ([archive_seal] / [archive_truncate] instants, segment write IO). *)

val track_worker : int -> int
(** [track_worker w] is the lane for simulated redo worker [w] (lanes
    8–38).  Parallel replay routes each worker's [redo_op] and [stall]
    spans here so a trace shows per-worker IO overlap. *)

val track_net : int
(** Lane 39: the simulated network — per-message [net_rpc] spans and
    loss/reorder instants from {!Deut_net.Link}. *)

val track_shard : int -> int
(** [track_shard s] is the lane for data-component shard [s] (lanes
    40–62): its data/DC-log device IO and its redo replay during
    per-shard recovery. *)

val track_ondemand : int
(** Lane 63: instant recovery's on-demand page replay.  Each page slice
    replayed from the fault hook emits a [replay_page] span here, so a
    trace separates availability-critical redo (this lane) from the
    background drain (the recovery lane). *)

val track_client : int -> int
(** [track_client c] is the lane for simulated client [c] (lanes 64+).
    The concurrent-execution scheduler routes each client's [txn] spans
    and [conflict]/[wound]/[abort] instants here. *)

val track_name : int -> string

(** {1 Recording} *)

val create : now:(unit -> float) -> unit -> t

val now : t -> float

val span :
  t -> name:string -> cat:string -> ?track:int -> ts:float -> dur:float ->
  ?args:(string * int) list -> unit -> unit

val instant :
  t -> name:string -> cat:string -> ?track:int -> ?args:(string * int) list ->
  unit -> unit
(** Timestamped with [now ()]. *)

val flow_start :
  t -> name:string -> cat:string -> ?track:int -> ts:float -> id:int -> unit -> unit
(** Open a causal flow: Perfetto draws an arrow from the slice enclosing
    [ts] on [track] to the next point of the same [id].  The id is carried
    in [args] as ["id"] and exported as the top-level Chrome flow id; use
    one id per caused chain (e.g. one per protocol message). *)

val flow_step :
  t -> name:string -> cat:string -> ?track:int -> ts:float -> id:int -> unit -> unit

val flow_end :
  t -> name:string -> cat:string -> ?track:int -> ts:float -> id:int -> unit -> unit
(** Close the flow ([bp:"e"]: binds to the enclosing slice, not the next
    one). *)

val stop : t -> unit
(** Ignore all further [span]/[instant] calls.  Used by [Recovery.recover]
    to close the window once statistics are finalised, so post-recovery
    activity (e.g. reopening the catalog) cannot skew span counts. *)

(** {1 Reading} *)

val events : t -> event list
(** Every recorded event, oldest first. *)

val length : t -> int
(** Number of recorded events. *)

(** {1 Export} *)

val to_chrome_json : ?metrics:Metrics.t -> t -> string
(** Chrome [trace_event] JSON ({["{"traceEvents":[...]}"]}) loadable in
    chrome://tracing or https://ui.perfetto.dev.  Spans become ph="X"
    complete events, instants ph="i"; tracks map to tids with thread-name
    metadata.  With [metrics], a [Metrics.render]-equivalent snapshot is
    embedded as one ["metric"] metadata event per registered name (value,
    and observation count for histograms), so a single file carries both
    the event stream and the counters it must agree with.  Deterministic:
    fixed field order, fixed float formatting. *)
