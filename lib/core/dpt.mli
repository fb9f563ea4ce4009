(** The dirty page table: a conservative approximation of the set of pages
    dirty in the cache at the time of the crash (§3).

    Entries are (pid → rLSN, lastLSN).  Safety requires (i) every page
    actually dirty at the crash is present, and (ii) each entry's rLSN is
    not greater than the LSN of the operation that first dirtied the page.
    Both properties are qcheck-tested against ground truth. *)

type t

val create : unit -> t
val size : t -> int
val mem : t -> int -> bool

val find : t -> int -> (Deut_wal.Lsn.t * Deut_wal.Lsn.t) option
(** [(rLSN, lastLSN)] of the entry, if present. *)

val add : t -> pid:int -> lsn:Deut_wal.Lsn.t -> bool
(** ADDENTRY: if absent, insert with rLSN = lastLSN = lsn and return [true]
    (it is a first mention); if present, raise the entry's lastLSN to [lsn]
    (monotonically) and return [false]. *)

val add_exact : t -> pid:int -> rlsn:Deut_wal.Lsn.t -> last_lsn:Deut_wal.Lsn.t -> unit
(** Install an entry verbatim (ARIES checkpoint DPT image). *)

val prune : ?trace:Deut_obs.Trace.t -> t -> int -> unit
(** Remove [pid]'s entry, marked by a [dpt_prune] instant on the recovery
    lane when [trace] is given. *)

val apply_flush : ?trace:Deut_obs.Trace.t -> t -> pid:int -> fw_lsn:Deut_wal.Lsn.t -> unit
(** The FW-LSN rule of Algorithms 3 and 4 for a page a flush wrote: prune
    the entry if its lastLSN is below [fw_lsn] (the flush covered every
    logged update), else floor its rLSN at [fw_lsn].  Strict [<]: FW-LSN
    is an exclusive byte offset.  No-op if [pid] has no entry. *)

val min_rlsn : t -> Deut_wal.Lsn.t
(** Smallest rLSN over all entries ([Lsn.nil] if empty) — the ARIES redo
    scan start point. *)

val entries_by_rlsn : t -> int list
(** Pids in ascending rLSN order — the DPT-driven prefetch order of
    Appendix A.2. *)
