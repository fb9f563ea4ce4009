(** Fixed-size binary database pages.

    Every page carries a 24-byte header: a kind tag, a checksum, and two
    page LSNs.  [plsn] is the TC-domain pLSN — the LSN of the last logged
    {e transactional} operation applied to the page, the heart of the redo
    idempotence test in every recovery method the paper compares (redo an
    operation iff its LSN > pLSN of the target page).  [dc_plsn] is the
    DC-domain pLSN — the LSN of the last structure-modification record
    applied, used by the DC's own (SMO) redo.  When the TC and DC share one
    log (the paper's prototype, §5.1) the two domains coincide; with a
    separate DC log (the Deuteronomy architecture proper, §4) they are
    independent LSN spaces and must not be compared with each other.

    The rest of the page is a raw byte payload; typed layouts (B-tree nodes,
    the catalog) are built on the accessors here.  All multi-byte integers
    are big-endian. *)

type kind = Free | Meta | Btree_leaf | Btree_internal

type t = private { pid : int; mutable buf : Bytes.t; mutable shared : bool }
(** Fields are readable everywhere; construction and mutation go through
    the functions below.  [shared] marks a borrowed page (see {!borrow})
    whose buffer still aliases its owner's bytes — every mutator copies
    the buffer first ([unshare]), so holders of the owner's bytes never see
    a page mutation and page holders never see owner mutations. *)

val header_size : int
(** Bytes reserved at the start of every page: kind tag, checksum, and the
    two pLSNs (24 bytes). *)

val create : page_size:int -> pid:int -> kind -> t
(** A zeroed page of the given kind with pLSN 0. *)

val borrow : pid:int -> Bytes.t -> t
(** A copy-on-write view over caller-owned bytes: reads alias the caller's
    buffer, the first mutation through this page copies it.  The caller
    must not mutate the bytes while the borrow is live — the page store
    upholds this by replacing (never editing) stable images. *)

val of_image : pid:int -> string -> t
(** An owning page holding a copy of the full page image [image]. *)

val stable_image : t -> Bytes.t
(** A freshly allocated copy of the contents with the checksum stamped into
    it — the image the store files away.  [t] itself is not modified. *)

val size : t -> int

val kind : t -> kind
val set_kind : t -> kind -> unit

val plsn : t -> int
val set_plsn : t -> int -> unit

val dc_plsn : t -> int
val set_dc_plsn : t -> int -> unit

(** {2 Checksums}

    Bytes 4–7 of the header hold a checksum ({!Checksum}, XXH64) over the
    rest of the page, stamped at flush time and verified on read from
    stable storage — torn/corrupt stable pages are detected, not silently
    recovered from. *)

val checksum_ok : t -> bool
(** [true] iff the stored checksum matches the contents.  A stamp is never
    0, so a page that was never stamped (or whose checksum field was
    zeroed) fails. *)

(** {2 Raw accessors for payload layouts}

    Offsets are absolute within the page; layouts above the header must
    respect [header_size]. *)

val get_u16 : t -> int -> int
val set_u16 : t -> int -> int -> unit
val get_u32 : t -> int -> int
val set_u32 : t -> int -> int -> unit
val get_u64 : t -> int -> int
val set_u64 : t -> int -> int -> unit

val get_bytes : t -> off:int -> len:int -> string
val set_bytes : t -> off:int -> string -> unit

val unsafe_get_u16 : t -> int -> int
val unsafe_get_u64 : t -> int -> int
(** [get_u16] and [get_u64] without the bounds check, for loops that have
    already bounded the offset against {!size}: an offset past the page
    reads outside the buffer. *)

val equal_sub : t -> off:int -> string -> bool
(** Whether the page bytes [off, off + length s) equal [s], compared in
    place.  Raises [Invalid_argument] if the range leaves the page. *)

val blit_within : t -> src:int -> dst:int -> len:int -> unit
val zero_range : t -> off:int -> len:int -> unit
