module Clock = Deut_sim.Clock
module Rng = Deut_sim.Rng
module Trace = Deut_obs.Trace

type params = {
  latency_us : float;
  jitter_us : float;
  loss : float;
  reorder : float;
  timeout_us : float;
}

type counters = {
  mutable messages : int;
  mutable retransmits : int;
  mutable reorders : int;
  mutable delay_us : float;
}

type t = {
  clock : Clock.t;
  params : params;
  rng : Rng.t;
  counters : counters;
  trace : Trace.t option;
  track : int;
}

let create ?trace ?(track = Trace.track_net) ~clock ~params ~seed () =
  {
    clock;
    params;
    rng = Rng.create ~seed;
    counters = { messages = 0; retransmits = 0; reorders = 0; delay_us = 0.0 };
    trace;
    track;
  }

let counters t = t.counters

(* One message leg.  Every draw comes from the link's own seeded stream, in
   a fixed order per leg (delay, then loss, then reorder), so a run is
   bit-for-bit repeatable regardless of what else shares the clock.  A lost
   message costs a timeout plus the retransmit's own delay — the sender
   blocks (synchronous RPC), so the charge lands on the calling worker's
   timeline.  A reordered message models queueing behind an unrelated
   burst: it just arrives one extra latency late.

   [mid] is the causal message id of the protocol exchange this leg
   carries (< 0 = none): it is stamped on the leg's span and its loss
   instants so a retransmit can be charged to the request that waited on
   it, and a flow step with that id is dropped mid-span so Chrome draws
   the causal arrow through the wire. *)
let one_way t ?(mid = -1) ~name () =
  let p = t.params in
  let delay () = p.latency_us +. (if p.jitter_us > 0.0 then Rng.float t.rng p.jitter_us else 0.0) in
  let total = ref (delay ()) in
  let args = if mid >= 0 then [ ("mid", mid) ] else [] in
  (if p.loss > 0.0 then
     while Rng.float t.rng 1.0 < p.loss do
       t.counters.retransmits <- t.counters.retransmits + 1;
       (match t.trace with
       | Some tr -> Trace.instant tr ~name:"net_loss" ~cat:"net" ~track:t.track ~args ()
       | None -> ());
       total := !total +. p.timeout_us +. delay ()
     done);
  (if p.reorder > 0.0 && Rng.float t.rng 1.0 < p.reorder then begin
     t.counters.reorders <- t.counters.reorders + 1;
     total := !total +. p.latency_us
   end);
  t.counters.messages <- t.counters.messages + 1;
  t.counters.delay_us <- t.counters.delay_us +. !total;
  let ts0 = Clock.now t.clock in
  Clock.advance t.clock !total;
  match t.trace with
  | Some tr ->
      if mid >= 0 then
        Trace.flow_step tr ~name ~cat:"net" ~track:t.track
          ~ts:(ts0 +. (!total /. 2.0))
          ~id:mid ();
      Trace.span tr ~name ~cat:"net" ~track:t.track ~ts:ts0 ~dur:!total ~args ()
  | None -> ()

let rpc ?flow_id t f req =
  let mid = match flow_id with Some id -> id () | None -> -1 in
  one_way t ~mid ~name:"net_send" ();
  let reply = f req in
  one_way t ~mid ~name:"net_reply" ();
  reply
