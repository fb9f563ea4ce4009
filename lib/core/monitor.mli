(** Normal-execution dirty/flush monitoring: the DC-side bookkeeping that
    makes optimized recovery possible.

    One monitor accumulates, in parallel:
    - the paper's Δ-log record state (§4.1): DirtySet (every clean→dirty
      transition — capturing {e all} of these is a correctness requirement),
      WrittenSet, FW-LSN (end of stable log at the interval's first flush),
      FirstDirty (index in DirtySet of the first page dirtied after that
      flush);
    - SQL Server's BW-log record state (§3.3): WrittenSet + FW-LSN;
    - in [Aries_fuzzy] checkpoint mode, the runtime DPT (pid → rLSN) that
      classic ARIES captures at checkpoints (§3.1).

    Emission cadence follows §5.2: a periodic emission every
    [delta_period] updates writes the Δ-record immediately before the
    BW-record; additionally a DirtySet reaching [delta_capacity] forces a
    Δ-only emission (the "cache fills" case that makes Δ records more
    numerous than BW records in Figure 2(c)), and a full WrittenSet forces
    both. *)

type t

val create :
  ?trace:Deut_obs.Trace.t ->
  config:Config.t ->
  log_append:(Deut_wal.Log_record.t -> int) ->
  stable_lsn:(unit -> Deut_wal.Lsn.t) ->
  unit ->
  t
(** [log_append] writes a record and returns its payload bytes, which the
    Δ/BW byte counters add up.  [trace] records a [delta_emit] / [bw_emit]
    instant (with set sizes) on the monitor track for every record
    written. *)

val on_dirty : t -> pid:int -> lsn:Deut_wal.Lsn.t -> unit
val on_flush : t -> pid:int -> unit

val tick_update : t -> unit
(** Called once per logged update; drives the periodic emission. *)

val emit_pending : t -> unit
(** Flush accumulated state to the log now (checkpoint boundary), so flush
    events from the checkpoint's own flushing are on the log before the
    end-checkpoint record. *)

val deltas_written : t -> int
val bws_written : t -> int
val delta_bytes : t -> int
val bw_bytes : t -> int

val runtime_dpt : t -> (int * Deut_wal.Lsn.t * Deut_wal.Lsn.t) array
(** Snapshot of the runtime dirty-page map (pid, rLSN, rLSN) — the DPT an
    ARIES checkpoint writes.  Only tracked in [Aries_fuzzy] mode. *)
