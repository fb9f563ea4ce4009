(** Workload driver: runs a {!Workload.spec} against a {!Deut_core.Db},
    maintains the {!Oracle}, and implements the paper's crash protocol
    (§5.2): run to cache equilibrium, checkpoint every interval, crash a
    controlled number of updates after the last Δ/BW record — shortly
    before the next checkpoint, the worst case for redo. *)

type t

val create : config:Deut_core.Config.t -> Workload.spec -> t
(** Create the database, its tables, and bulk-load [spec.rows] rows per
    table (sequential keys, committed in batches, with periodic
    checkpoint + log archiving to bound memory). *)

val db : t -> Deut_core.Db.t
val oracle : t -> Oracle.t
val spec : t -> Workload.spec
val updates_done : t -> int

val run_updates : t -> updates:int -> unit
(** Run transactions until at least [updates] more operations have been
    applied, drawn from the spec's {!Workload.stream} (one table per
    transaction) and applied with {!Workload.exec}.  One transaction runs
    at a time, so a lock conflict raises [Failure]. *)

val run_concurrent : t -> txns:int -> Client_sched.t
(** Run [txns] transactions through a fresh {!Client_sched} over
    [Config.clients] simulated clients, oracle-mirrored with group-commit
    fidelity.  Returns the scheduler for stats/flush/crash protocols.
    The committed state is identical to a serial run of the same
    descriptor stream at any client count. *)

val checkpoint : t -> unit
(** Checkpoint and archive the log prefix recovery can no longer need. *)

val warm_to_equilibrium : t -> unit
(** Run update transactions for double the work needed to fill the cache
    (the paper's steady-state criterion), with periodic checkpoints. *)

val start_loser : t -> ops:int -> unit
(** Begin a transaction, apply [ops] updates, and leave it uncommitted —
    undo-pass fodder.  Forces the log so the loser's records survive the
    crash. *)

val run_crash_protocol : t -> checkpoints:int -> interval:int -> tail:int -> unit
(** Take [checkpoints] checkpoints [interval] updates apart; then run one
    more interval, stopping [tail] updates after the last periodic Δ/BW
    emission, leaving the log tail the paper's redo falls back to basic
    mode for. *)

val crash : t -> Deut_core.Crash_image.t

val verify_recovered : t -> Deut_core.Db.t -> (unit, string) result
(** Oracle comparison plus structural B-tree checks. *)
