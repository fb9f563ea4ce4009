(** Virtual clock for discrete-event simulation.

    All components that consume simulated time (the disk model, CPU cost
    accounting in the recovery passes) share one clock.  Time is measured in
    microseconds as a float; experiments report milliseconds. *)

type t

val create : unit -> t
(** A clock starting at time 0. *)

val now : t -> float
(** Current simulated time in microseconds. *)

val now_ms : t -> float
(** Current simulated time in milliseconds. *)

val advance : t -> float -> unit
(** [advance t us] moves the clock forward by [us] microseconds.  Negative
    durations are rejected with [Invalid_argument]. *)

val advance_to : t -> float -> unit
(** [advance_to t deadline] moves the clock to [deadline] if the deadline is
    in the future; otherwise does nothing.  Used to model waiting for an
    asynchronous IO completion. *)

val set : t -> float -> unit
(** [set t us] moves the clock to an absolute time, backward included.
    Parallel replay multiplexes several worker timelines onto the one
    clock: switching to a worker rewinds to that worker's cursor, while
    shared resources (the disk's busy horizon) keep their own monotonic
    state.  Negative times are rejected with [Invalid_argument]. *)

(** A private timeline multiplexed onto the shared clock.

    Parallel redo workers and simulated clients each own a cursor: a
    scheduler picks the cursor with the smallest time, [enter]s it (the
    clock jumps to that timeline), runs one step — which may advance the
    clock through CPU charges and IO waits — and [leave]s, capturing the
    new position.  Shared resources (the disk's busy horizon) keep their
    own monotonic state, so overlapping IO across timelines is modelled
    correctly. *)
module Cursor : sig
  type clock = t

  type t

  val make : ?at:float -> clock -> t
  (** A cursor positioned at [at] (default: the clock's current time). *)

  val time : t -> float
  (** The cursor's position, in microseconds. *)

  val enter : t -> unit
  (** Set the shared clock to this cursor's position. *)

  val leave : t -> unit
  (** Capture the shared clock's position into the cursor, forward
      only: a position already scheduled past the clock (think time,
      retry backoff) is kept. *)

  val advance_to : t -> float -> unit
  (** Push the cursor forward to a deadline (no-op if already past it):
      think time, retry backoff, or waking a parked client at the
      committer's time. *)
end
