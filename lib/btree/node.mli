(** Slotted-page layout for B-tree nodes.

    On top of the 16-byte page header, every node carries a node header
    (level, slot count, cell-area watermark, sibling link, leftmost child),
    a slot directory growing upward, and a cell area growing downward from
    the page end.  Deletes leave holes; [compact] rebuilds the cell area
    when a caller needs the fragmented space back.

    Leaf cells are [key:i64][vlen:u16][value bytes]; internal cells are
    [key:i64][child:u32].  An internal node with n cells has n+1 children:
    the [leftmost_child] covers keys below the first slot key; slot i's
    child covers keys in [key_i, key_{i+1}). *)

val node_header_end : int
(** First byte of the slot directory. *)

val no_sibling : int
(** Sentinel right-sibling value. *)

val init : Deut_storage.Page.t -> level:int -> unit
(** Format the page as an empty node of the given level (0 = leaf); sets
    the page kind accordingly. *)

val level : Deut_storage.Page.t -> int
val is_leaf : Deut_storage.Page.t -> bool
val nslots : Deut_storage.Page.t -> int
val right_sibling : Deut_storage.Page.t -> int
val set_right_sibling : Deut_storage.Page.t -> int -> unit
val leftmost_child : Deut_storage.Page.t -> int
val set_leftmost_child : Deut_storage.Page.t -> int -> unit

val free_space : Deut_storage.Page.t -> int
(** Contiguous bytes between the slot directory and the cell area. *)

val reclaimable_space : Deut_storage.Page.t -> int
(** [free_space] plus fragmentation a [compact] would recover. *)

val compact : Deut_storage.Page.t -> unit

val slot_key : Deut_storage.Page.t -> int -> int

val search : Deut_storage.Page.t -> int -> [ `Found of int | `Not_found of int ]
(** Binary search; [`Not_found slot] is the insertion position. *)

(** {2 Leaf operations} *)

val leaf_cell_size : value_len:int -> int

val leaf_value : Deut_storage.Page.t -> int -> string

val leaf_insert : Deut_storage.Page.t -> slot:int -> key:int -> value:string -> bool
(** [false] if contiguous free space is insufficient (caller compacts or
    splits).  The slot must come from [search]. *)

val leaf_delete : Deut_storage.Page.t -> slot:int -> unit

val leaf_replace : Deut_storage.Page.t -> slot:int -> value:string -> bool
(** In-place value update (delete + insert at the same slot); [false] if
    the new value does not fit even after compaction, in which case the
    page is left unmodified. *)

val leaf_can_replace : Deut_storage.Page.t -> slot:int -> value_len:int -> bool
(** Would [leaf_replace] with a value of this length succeed? *)

val fold_leaf : Deut_storage.Page.t -> init:'a -> f:('a -> int -> string -> 'a) -> 'a
(** Fold the leaf's (key, value) entries in slot (= key) order. *)

(** {2 Internal-node operations} *)

val child_at : Deut_storage.Page.t -> int -> int

val route : Deut_storage.Page.t -> int -> int
(** Child pid to follow when searching for the key. *)

val internal_insert : Deut_storage.Page.t -> key:int -> child:int -> bool
val iter_children : Deut_storage.Page.t -> (int -> unit) -> unit

val live_bytes : Deut_storage.Page.t -> int
(** Bytes of live payload (cells + slots): the occupancy measure that
    drives merge decisions. *)

val payload_capacity : Deut_storage.Page.t -> int
(** Bytes available for cells + slots in a node of this page size. *)

val internal_remove_child : Deut_storage.Page.t -> child:int -> bool
(** Remove the separator entry pointing at [child]; [false] if no entry
    points there (e.g. it is the leftmost child). *)

(** {2 Splits and merges} *)

val merge_leaves : Deut_storage.Page.t -> Deut_storage.Page.t -> unit
(** Append every cell of the second (right) leaf to the first.  The caller
    checks fit with [live_bytes]/[payload_capacity], and fixes sibling
    links and pLSNs. *)

val split_leaf : Deut_storage.Page.t -> Deut_storage.Page.t -> int
(** Move the upper half of the cells of the first (full) leaf into the
    second (freshly initialised) one and link siblings; returns the
    separator key (= first key of the right node). *)

val split_internal : Deut_storage.Page.t -> Deut_storage.Page.t -> int
(** Same for an internal node; the middle key is promoted (returned, not
    retained) and the right node's leftmost child is the promoted key's
    child. *)

val check : ?lo:int -> ?hi:int -> Deut_storage.Page.t -> (unit, string) result
(** Structural invariants: watermark consistency, slot offsets within the
    cell area, sorted distinct keys, a leftmost child on a non-empty
    internal node, and every key within the separator bounds [lo, hi)
    (by default [min_int] and [max_int], the infinities of
    [Btree.check_tree]).  Reports the first fault found; never reads outside the page,
    whatever its bytes. *)
