(** A simulated network link on the virtual clock.

    A link is a point-to-point channel with a cost model — fixed latency,
    uniform jitter, loss with timeout-driven retransmit, and reordering
    (modelled as an extra-latency arrival) — driven by its own seeded RNG
    so that every run is bit-for-bit repeatable.  {!rpc} is a synchronous
    request/reply exchange: both legs advance the shared clock on the
    caller's timeline, exactly like a blocking disk IO in {!Deut_sim.Disk}.

    With all-zero parameters a link adds zero simulated time and draws
    nothing from its RNG, so an idle link is observationally absent. *)

type params = {
  latency_us : float;  (** one-way propagation + service time *)
  jitter_us : float;  (** uniform [0, jitter) extra delay per message *)
  loss : float;  (** per-message loss probability in [0, 1) *)
  reorder : float;  (** probability a message queues one extra latency *)
  timeout_us : float;  (** sender retransmit timeout after a loss *)
}

type counters = {
  mutable messages : int;  (** delivered messages (both legs of an RPC) *)
  mutable retransmits : int;  (** messages lost and re-sent *)
  mutable reorders : int;  (** messages that arrived late *)
  mutable delay_us : float;  (** total simulated time spent on the wire *)
}

type t

val create :
  ?trace:Deut_obs.Trace.t ->
  ?track:int ->
  clock:Deut_sim.Clock.t ->
  params:params ->
  seed:int ->
  unit ->
  t
(** [track] defaults to {!Deut_obs.Trace.track_net}; per-shard links pass
    their shard lane instead. *)

val counters : t -> counters

val rpc : ?flow_id:(unit -> int) -> t -> ('req -> 'rep) -> 'req -> 'rep
(** [rpc t serve req] delivers [req] over the link, runs [serve] at the
    far end, and delivers the reply back, advancing the clock for both
    legs (losses cost a timeout each before the retransmit).

    [flow_id], queried once per call, supplies the causal message id of
    the protocol exchange (< 0 = none).  With an id and a trace, each
    leg's [net_send]/[net_reply] span and every [net_loss] instant carry
    a ["mid"] arg — so a retransmit is attributable to the request that
    blocked on it — and each leg emits a Chrome flow step with that id,
    threading the causal arrow TC → wire → shard → wire → TC. *)
