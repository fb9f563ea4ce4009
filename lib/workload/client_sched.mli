(** Deterministic multi-client normal execution on the virtual clock.

    [Config.clients] simulated clients run transactions concurrently as
    coroutine-style state machines: a scheduler repeatedly picks the
    client whose private timeline ({!Deut_sim.Clock.Cursor}) is furthest
    behind, lets it run one quantum (begin, one operation, or commit),
    and captures where the shared clock ended up.  IOs issued on one
    client's timeline occupy the disk's busy horizon and so overlap —
    or queue behind — the other clients', exactly as in parallel redo.

    {b Determinism.}  Like redo workers, clients are a timing overlay,
    not a source of nondeterminism:

    - transaction {e content} (tables, keys, values) is drawn from a
      shared seeded {!Workload.stream} at hand-out time, in ticket order
      — ticket [j] is the [j]-th descriptor regardless of which client
      runs it or how many clients exist;
    - a {e commit gate} admits commits in ticket order, so the committed
      schedule equals the serial execution of the stream;
    - on a no-wait lock conflict, an older ticket {e wounds} a younger
      holder (which aborts, backs off exponentially on its own seeded
      timing stream, and retries the same descriptor), while a younger
      ticket aborts itself.  The oldest outstanding ticket is never
      wounded, so progress is guaranteed.

    Hence the same seed produces the identical committed state — logical
    digest and committed txn/op counts — at any client count; only
    timing, abort counts and IO overlap vary.  Crashing mid-run leaves a
    log whose committed (durable) prefix is a ticket-order prefix, which
    every recovery method restores identically.

    Timing (think time, backoff jitter) comes from per-client streams
    disjoint from the content stream; group commit batches across
    clients, and commit latency (commit request → the forced log bytes
    durable on the log device) lands in the ["txn.commit_latency_us"]
    histogram of the engine's metrics registry.  The engine charges no
    clock time for log writes, so the scheduler times each force as one
    sequential write on its own model of the log device
    ([Config.log_disk]); no clock waits for it. *)

type t

type stats = {
  committed_txns : int;
  committed_ops : int;  (** operations inside committed transactions *)
  aborts : int;  (** abort-and-retry events (not failed transactions) *)
  wounds : int;  (** aborts forced by an older ticket *)
  conflicts : int;  (** no-wait lock refusals during the run *)
  makespan_ms : float;
  throughput_tps : float;  (** committed transactions per simulated second *)
  abort_rate : float;  (** aborts / (commits + aborts) *)
  commit_p50_us : float;  (** commit request → durable, bucket upper bound *)
  commit_p95_us : float;
  commit_p99_us : float;
}

val create : ?oracle:Oracle.t -> Deut_core.Db.t -> Workload.spec -> t
(** A scheduler over [Config.clients] clients (from the db's config).
    When [oracle] is given, every operation is mirrored with group-commit
    fidelity: queued commits fold into the oracle's committed state only
    when the engine forces its log, so crash verification sees exactly
    the durable prefix. *)

val run : t -> txns:int -> unit
(** Hand out and commit [txns] more tickets, then return with every
    client idle.  Nothing is flushed: with group commit the tail may
    still be volatile (see {!flush}). *)

val flush : t -> unit
(** [Db.flush_commits] plus the oracle/latency bookkeeping of the
    force. *)

val stats : t -> stats

val logical_digest : Deut_core.Db.t -> string
(** MD5 over every table's sorted contents — the client-count-invariant
    digest (page images are {e not} compared: physical pLSN headers
    depend on the global log order, which legitimately varies with
    timing).  Scans every table: post-run/post-recovery use only. *)
