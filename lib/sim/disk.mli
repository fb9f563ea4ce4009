(** Discrete-event model of a single disk (or SSD) with a FIFO queue.

    Service time for a request is a positioning cost ([seek_us], charged
    unless the request starts where the previous one ended) plus a per-page
    transfer cost.  Asynchronous submissions return their completion time on
    the shared {!Clock.t}; the caller stalls by [Clock.advance_to] when it
    actually needs the data.  This is exactly the structure the paper's
    Appendix B cost model assumes: redo time ≈ pages fetched × effective IO
    latency, with prefetching overlapping computation and IO. *)

type params = {
  seek_us : float;  (** positioning cost of a non-sequential access *)
  transfer_us : float;  (** cost of moving one page *)
  sequential_gap : int;
      (** accesses within this many pids of the end of the previous request
          are treated as sequential (no seek) *)
  batch_seek_factor : float;
      (** seek-cost multiplier for elevator-scheduled positioning: pages
          inside one sorted asynchronous batch, and any request that arrives
          while the device is still busy (a non-empty queue lets the head
          schedule the next access rather than seek cold).  A request
          arriving at an idle device always pays the full [seek_us].
          1.0 disables the effect. *)
}

val default_params : params
(** 4 ms seek, 50 µs/page transfer, gap 1, batch factor 0.75 — a 2011-era
    SATA disk, matching the paper's hardware generation. *)

type counters = {
  mutable requests : int;
  mutable pages_read : int;
  mutable pages_written : int;
  mutable seeks : int;
  mutable sequential_requests : int;
}

type t

val create : ?params:params -> Clock.t -> t

val instrument :
  t -> ?trace:Deut_obs.Trace.t -> ?io_hist:Deut_obs.Metrics.histogram -> track:int -> unit -> unit
(** Attach observability sinks.  Every serviced request is recorded as a
    span ([io_read] / [io_write] / [io_batch] / [io_log]) on
    [track] covering service time, with an [io] arg holding the request's
    number on this device ([counters.requests] right after its submit),
    and its latency is fed to [io_hist].  Purely observational:
    submission timing is unchanged. *)

val counters : t -> counters

val track : t -> int
(** The trace lane given to {!instrument}. *)

val submit_read : t -> pid:int -> float
(** Queue a one-page read; returns its completion time without waiting. *)

val submit_batch_read : t -> int list -> float
(** Queue one asynchronous batch of (not necessarily contiguous) page
    reads.  The batch is served in sorted order: contiguous neighbours pay
    transfer only; jumps pay [batch_seek_factor × seek_us].  Returns the
    completion time of the whole batch. *)

val submit_write : t -> pid:int -> float
(** Queue a one-page write (used by cache flushes); returns completion
    time.  Flushes are fire-and-forget for timing purposes but still occupy
    the disk, delaying reads that queue behind them. *)

val submit_sequential_write : t -> first_pid:int -> count:int -> float
(** Queue a write of [count] contiguous pages as a single request (archive
    segment writes); returns its completion time without waiting.  Like
    {!submit_write}, fire-and-forget: the device stays busy but the caller's
    clock does not advance. *)

val read_sequential_sync : t -> first_pid:int -> count:int -> unit
(** Synchronously read [count] contiguous pages (log scan IO) and advance
    the clock to completion. *)
