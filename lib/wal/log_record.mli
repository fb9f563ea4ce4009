(** The log record vocabulary of the shared TC/DC log.

    Following the paper's prototype (§5.1), one integrated log serves both
    recovery families.  Logical (TC) update records identify their target by
    (table, key); the physiological page id rides along as [pid_hint] purely
    so the ARIES/SQL-Server baseline can run from the very same log — the
    logical methods never read it (enforced in tests).

    DC-side records — SMO page images, Δ-log records, BW-log records — carry
    the physical information only the data component knows (§4). *)

type op_kind = Insert | Update | Delete

(** A logical data operation, logged by the TC. *)
type update = {
  txn : int;
  table : int;
  key : int;
  op : op_kind;
  before : string option;  (** replaced value, [None] for insert — drives undo *)
  after : string option;  (** new value, [None] for delete — drives redo *)
  pid_hint : int;  (** physiological PID for the ARIES/SQL baseline only *)
  prev_lsn : Lsn.t;  (** backward chain of this transaction's records *)
}

(** Compensation log record written during undo (ARIES-style redo-only). *)
type clr = {
  txn : int;
  table : int;
  key : int;
  op : op_kind;  (** the compensating operation *)
  value : string option;
  pid_hint : int;
  undo_next : Lsn.t;  (** next record of the transaction still to undo *)
}

(** SQL Server's Buffer-Write record: pids flushed since the previous BW
    record, plus the end-of-stable-log captured at the first of those
    flushes (§3.3). *)
type bw = { written : int array; fw_lsn : Lsn.t }

(** The paper's Δ-log record (§4.1): pids dirtied and pids flushed in the
    interval, the first-write LSN, the index in [dirty] of the first page
    dirtied after that first write, and the TC end-of-stable-log at write
    time.  [dirty_lsns] is the Appendix D.1 "perfect DPT" extension — the
    exact LSN that dirtied each entry of [dirty]; empty in the standard
    configuration. *)
type delta = {
  dirty : int array;
  written : int array;
  fw_lsn : Lsn.t;
  first_dirty : int;
  tc_lsn : Lsn.t;
  dirty_lsns : int array;
}

type smo_kind =
  | Format_page
  | Leaf_split
  | Internal_split
  | Root_split
  | Leaf_merge
  | Root_collapse
  | Catalog

(** A structure modification operation logged by the DC as an atomic batch
    of full after-images of every page it touched.  Replayed (pLSN-guarded)
    by DC recovery before any transactional redo, guaranteeing well-formed
    B-trees for logical redo (§1.2, §4.2). *)
type smo = { kind : smo_kind; pages : (int * string) array }

(** The DPT captured in a checkpoint by the classic ARIES scheme (§3.1):
    (pid, rLSN, lastLSN) triples.  Only written when the engine runs in
    ARIES-checkpointing mode. *)
type aries_dpt = { entries : (int * Lsn.t * Lsn.t) array }

type t =
  | Update_rec of update
  | Commit of { txn : int }
  | Abort of { txn : int }
  | Clr of clr
  | Begin_ckpt
  | End_ckpt of { bckpt : Lsn.t; active : (int * Lsn.t) array }
      (** completes the checkpoint begun at [bckpt]; [bckpt] is also the
          rsspLSN the TC sent to the DC.  [active] is the transaction table
          at checkpoint time — (txn, lastLSN) pairs — so undo can find
          losers whose records all precede the redo scan start. *)
  | Aries_ckpt_dpt of aries_dpt
  | Bw of bw
  | Delta of delta
  | Smo of smo

val encode : t -> string

val encode_into : Codec.writer -> t -> unit
(** Append the encoding to [w] — the log manager threads one reusable
    scratch writer through every append instead of allocating a fresh
    buffer and [contents] string per record. *)

val decode : string -> t

val decode_sub : Bytes.t -> pos:int -> len:int -> t
(** Decode one record in place from [data.[pos .. pos+len)] — no payload
    substring is taken (the redo scan decodes every record once per pass). *)

(** Uniform view of the records redo must (re)apply: ordinary updates and
    CLRs, which ARIES redoes exactly like updates ("redo-only" records). *)
type redo_view = {
  rv_table : int;
  rv_key : int;
  rv_op : op_kind;
  rv_value : string option;  (** value to apply ([None] for a delete) *)
  rv_pid : int;  (** physiological pid hint *)
}

val redo_view : t -> redo_view option

val describe : t -> string
(** One-line human-readable rendering for tracing and error messages. *)
