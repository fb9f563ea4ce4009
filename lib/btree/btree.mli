(** Clustered B-tree over the buffer pool.

    The tree is the DC's data-placement structure: logical operations
    (table, key) are routed through it to a leaf page, during both normal
    execution and logical redo (Algorithms 2 and 5 traverse it to turn a
    key into a PID).

    {b SMO logging.}  Structure modifications — create, leaf/internal/root
    splits — are performed in cache and logged through [log_smo] as one
    atomic batch of full after-images of every touched page (including the
    catalog when the root moves).  The callback must append the record and
    stamp the touched pages' DC pLSNs with its LSN ({!stamp_smo} does the
    stamping; [Dc.log_smo] is the production callback).  DC recovery
    replays these images (DC-pLSN-guarded) before any transactional redo,
    so indexes are well-formed when logical redo begins — the ordering
    requirement of §1.2.

    {b Two-phase writes.}  [prepare_write] performs any splits needed so
    that the subsequent [apply_*] cannot fail for lack of space, and
    returns the before-image for undo.  The DC logs the operation between
    the two phases (WAL), then applies with the record's LSN.  The same
    [apply_*] functions are used verbatim by redo. *)

type t

val catalog_pid : int

val pool_of : t -> Deut_buffer.Buffer_pool.t
(** The buffer pool this tree reads through.
    Test seam: tests read a tree's pages through the pool it was built on. *)

val stamp_smo : Deut_buffer.Buffer_pool.t -> Deut_wal.Log_record.smo -> lsn:Deut_wal.Lsn.t -> unit
(** Stamp + dirty every page named by the SMO record in the DC pLSN domain
    — the second half of the [log_smo] contract, for callbacks that are not
    a full data component (tests, tools).
    Test seam: B-tree tests stamp SMOs for trees built without a DC. *)

val format_store :
  pool:Deut_buffer.Buffer_pool.t -> log_smo:(Deut_wal.Log_record.smo -> Deut_wal.Lsn.t) -> unit
(** Allocate and initialise the catalog page (pid 0) on a fresh store. *)

val create :
  ?merge_allowed:bool ref ->
  pool:Deut_buffer.Buffer_pool.t ->
  table:int ->
  log_smo:(Deut_wal.Log_record.smo -> Deut_wal.Lsn.t) ->
  unit ->
  t
(** Create the table's tree: a fresh root leaf, registered in the catalog,
    both logged as an SMO.  [merge_allowed] (shared with the owning data
    component, default always-on) gates opportunistic leaf merging.  Redo
    passes turn it off: merging is maintenance, and reorganising the tree
    mid-replay would interleave with the logged SMOs still being
    reinstalled.  Normal operation and the undo pass (which runs on the
    fully replayed tree) keep it on. *)

val open_existing :
  ?merge_allowed:bool ref ->
  pool:Deut_buffer.Buffer_pool.t ->
  table:int ->
  log_smo:(Deut_wal.Log_record.smo -> Deut_wal.Lsn.t) ->
  unit ->
  t
(** Attach to a table already present in the catalog (after recovery).
    Raises [Not_found] if the catalog has no entry. *)

val root_pid : t -> int
(** Test seam: tests read and corrupt a tree's pages starting from its root. *)

val height : t -> int

val lookup : t -> key:int -> string option

val locate_leaf : t -> key:int -> int
(** Pid of the leaf that does or would hold the key — the index traversal
    of logical redo.  Fetches only internal pages. *)

type write_target =
  | Leaf of { pid : int; before : string option }
      (** ready to apply; [before] is the current value if the key exists *)
  | Duplicate_key
  | Missing_key

val prepare_write :
  t -> key:int -> op:Deut_wal.Log_record.op_kind -> value_len:int -> write_target

val apply_insert : t -> pid:int -> key:int -> value:string -> lsn:Deut_wal.Lsn.t -> unit
val apply_update : t -> pid:int -> key:int -> value:string -> lsn:Deut_wal.Lsn.t -> unit
val apply_delete : t -> pid:int -> key:int -> lsn:Deut_wal.Lsn.t -> unit
(** Apply a logged operation to the (cached) leaf and stamp its pLSN.  The
    key is re-searched within the page, so these also serve redo, where the
    leaf may have a different slot layout than at log time.  [apply_insert]
    and [apply_update] tolerate the other's state (insert of an existing
    key overwrites; update of a missing key inserts): redo proper never
    needs the latitude, but CLR replay does. *)

val preload_index : t -> unit
(** Load every internal page into the cache, level by level, prefetching
    each level as a batch before touching it (Appendix A.1's "simply load
    all index pages at the beginning of DC recovery"). *)

val fold_leaves : t -> init:'a -> f:('a -> Deut_storage.Page.t -> 'a) -> 'a
(** Fold over the leaf pages along the sibling chain, leftmost (lowest
    keys) first.  [fold_entries] and the post-recovery check (through
    [Db.iter_leaves]) are this walk. *)

val fold_entries : t -> init:'a -> f:('a -> int -> string -> 'a) -> 'a
(** In-order fold over all (key, value) entries via the leaf chain. *)

val fold_range : t -> lo:int -> hi:int -> init:'a -> f:('a -> int -> string -> 'a) -> 'a
(** In-order fold over the entries with [lo <= key < hi]: the leaf chain
    from the leaf that would hold [lo], stopping at the first key [>= hi].
    Like [fold_entries] it pins nothing and takes no snapshot. *)

val check_tree : t -> (unit, string) result
(** Whole-tree structural invariants, in one walk that reads each page
    once: per-node layout, level consistency, separator bounds, leaf-chain
    agreement with in-order traversal.  Total: a corrupt tree, including
    one whose pages point at missing pages or back up the tree, yields
    [Error] naming the first fault, never an exception or a hang. *)
