(** Workload specifications, and the one stream that draws and applies
    their operations.

    The paper's primary workload (§5.2) is update-only: small transactions
    of 10 updates each, on a single table, keys drawn uniformly — the worst
    case for redo recovery because it maximises the number of distinct
    dirty pages (Appendix B).  Zipfian skew and mixed operation workloads
    are provided for the locality experiments and tests.  The serial
    {!Driver} and the multi-client {!Client_sched} both draw from a
    {!stream} and apply through {!exec}; each owns its stream and its
    table rule (the driver draws one table per transaction, the scheduler
    one per operation). *)

type key_dist = Uniform | Zipf of float | Sequential

(** Operation mix as weights; a transaction draws each operation
    independently.  [Update_only] is the paper's workload. *)
type op_mix =
  | Update_only
  | Mixed of { update : float; insert : float; delete : float; read : float }

type spec = {
  tables : int;  (** number of tables (ids 1..tables) *)
  rows : int;  (** initial rows per table *)
  value_size : int;  (** bytes in the data attribute *)
  ops_per_txn : int;
  key_dist : key_dist;
  op_mix : op_mix;
  seed : int;
}

val default : spec
(** The paper's workload at a small default size: 1 table, 100k rows,
    24-byte values, 10 uniform updates per transaction. *)

val value_of : Deut_sim.Rng.t -> size:int -> string
(** A fresh random value of exactly [size] bytes. *)

(** {1 The operation stream} *)

type action = Upd of string | Ins of string | Del | Read
type op = { table : int; key : int; action : action }

type stream
(** A spec's operations drawn from one rng, with the spec's key state:
    the Zipf table, the sequential cursor and the next fresh insert key
    (the first past the loaded rows). *)

val stream : spec -> Deut_sim.Rng.t -> stream
(** A stream drawing from [rng], which it consumes from then on. *)

val draw_table : stream -> int
(** A table id, uniform over [1..tables]; draws nothing at one table. *)

val draw_key : stream -> int
(** A key of the loaded range, per the spec's distribution. *)

val draw_op : stream -> table:int -> op
(** The next operation on [table].  The rng is consumed in a fixed order:
    the key, then (in a mix) the float choosing the action, then the value
    of an update or insert.  An insert takes the next fresh key instead
    of the drawn one. *)

(** {1 Applying an operation} *)

type outcome =
  | Wrote  (** the write applied (and, given an oracle, is mirrored in it) *)
  | Skipped
      (** nothing written: a read, or an update or delete of a key an
          earlier delete removed *)
  | Conflict of int  (** a lock is held by this transaction id *)

val exec : Deut_core.Db.t -> ?oracle:Oracle.t -> spec -> Deut_core.Db.Txn.t -> op -> outcome
(** Apply [op] in [txn], buffering a write in [oracle] when given.  Reads
    take a read lock ([Db.read_locked]).  A missing key on an update or
    delete is [Skipped] only when [spec]'s mix can delete; a lock conflict
    is returned for the caller to resolve; any other error raises
    [Failure]. *)
