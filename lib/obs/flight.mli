(** Always-on, fixed-cost flight recorder: a small bounded ring of recent
    protocol/durability history per component, distinct from the opt-in
    {!Trace}.

    Where a trace is a complete event stream sized for offline analysis,
    the flight recorder is a black box: each component (the TC and every
    data-component shard) keeps only its last [capacity] events —
    protocol sends/receives/handles with their causal message ids, log
    forces, checkpoints, recovery-phase transitions, crash markers.  Cost
    is O(1) per event into preallocated rings regardless of run length,
    which is why it can stay on in every configuration.

    Recording samples the simulated clock but never advances it, so the
    recorder is invisible to simulated results (the zero-observer-effect
    contract shared with {!Trace}).  A {!snapshot} is an immutable deep
    copy taken at crash time; it rides inside the crash image so
    [repro_cli forensics] can print the last events before the crash after
    the fact.  [render] is deterministic: same seed, same bytes.

    Instrumentation is single-domain: the recorder belongs to the domain
    that created it, and recording from any other domain raises
    [Invalid_argument] rather than interleaving rings through a torn
    sequence counter.  The domain-parallel harness honours this by giving
    every cell its own engine; snapshots taken after the owning
    domain has been joined are safe. *)

type kind =
  | Send  (** TC dispatched a protocol request *)
  | Recv  (** TC received the reply *)
  | Handle  (** DC-side handler ran the request *)
  | Force  (** a log force reached stable storage *)
  | Ckpt  (** checkpoint milestone *)
  | Phase  (** recovery-phase transition *)
  | Crash  (** crash marker (whole engine or one shard) *)

val kind_to_string : kind -> string

type entry = {
  e_seq : int;  (** global sequence number, total order across components *)
  e_ts : float;  (** simulated µs *)
  e_comp : int;  (** component: [-1] = TC, [0..n-1] = shard *)
  e_kind : kind;
  e_what : string;  (** request tag / phase name / detail *)
  e_mid : int;  (** causal message id, [-1] when not message-related *)
  e_lsn : int;  (** LSN detail, [-1] when not applicable *)
}

type t

val tc : int
(** The TC's component index, [-1]. *)

val create : now:(unit -> float) -> components:int -> ?capacity:int -> unit -> t
(** One ring for the TC plus one per data-component shard ([components]
    shards).  [capacity] (default 128) is per component. *)

val components : t -> int
val capacity : t -> int

val recorded : t -> int
(** Total events ever recorded, across all components. *)

val record :
  t -> comp:int -> kind -> string -> ?mid:int -> ?lsn:int -> unit -> unit
(** [record t ~comp kind what] appends to component [comp]'s ring,
    overwriting its oldest entry when full. *)

(** {1 Snapshots and forensics} *)

type snapshot

val snapshot : t -> snapshot
(** Immutable deep copy of every ring; later recording does not show
    through.  Captured by [Db.crash] / [Db.crash_shard] into the crash
    image. *)

val snapshot_entries : snapshot -> comp:int -> entry list
(** Oldest first. *)

val render : snapshot -> string
(** The forensic dump: per-component recent history (sequence number,
    timestamp, kind, detail, message id, LSN), then every causal message
    id stitched across components in sequence order.  Byte-deterministic
    for a given snapshot. *)
