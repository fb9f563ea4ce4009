(** Shadow committed state: the ground truth recovery must reproduce.

    The driver buffers each transaction's writes and folds them in at
    commit, so the oracle always holds exactly the committed state — never
    the effects of in-flight or aborted transactions.  Crucially it is a
    plain map: consulting it does not touch the database cache, unlike a
    table scan, which would flush dirty pages and corrupt the experiment
    (dirtiness at crash is the quantity under study). *)

type t

val create : unit -> t

val begin_txn : t -> int -> unit
val buffer_put : t -> txn:int -> table:int -> key:int -> value:string -> unit
val buffer_delete : t -> txn:int -> table:int -> key:int -> unit
val commit : t -> txn:int -> unit
val abort : t -> txn:int -> unit

(** {2 Group commit}

    With [Config.group_commit] > 1 a commit may sit in the volatile log
    tail; mirroring that, [commit_queued] parks the transaction's changes
    in commit order and [force] folds every parked group into the
    committed state.  Call [force] whenever the engine forces its log
    (durable commit ack, [Db.flush_commits], an abort or a checkpoint),
    and crash verification sees exactly the durable prefix. *)

val commit_queued : t -> txn:int -> unit
val force : t -> unit

val committed_value : t -> table:int -> key:int -> string option

val seal : t -> unit
(** Sort every table holding committed data into its sealed form: an
    [int array] of keys in ascending order and the [string array] of their
    values (the value strings are shared with the committed state, not
    copied).  Until the committed state changes, [verify] is then a pure
    read.  [Experiment.build] seals the oracle
    before publishing a crash run so concurrent domains can verify
    recoveries against it without racing on the memo; an unsealed or
    since-mutated table is sealed on its next use. *)

val verify : t -> Deut_core.Db.t -> tables:int list -> (unit, string) result
(** Compare the database contents (every leaf — post-recovery use only)
    against the committed state of every listed table.  Each shard's
    leaves are compared in place ({!Deut_btree.Node.match_leaf}) with
    that shard's stripe of the sealed arrays; only the first differing
    row is copied out, to name it in the [Error].  The check fetches the
    same leaves in the same order as a table scan.  Total on a corrupt
    leaf: a cell outside its page is an [Error], never an exception. *)
