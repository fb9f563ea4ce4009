type t = { mutable now_us : float }

let create () = { now_us = 0.0 }
let now t = t.now_us
let now_ms t = t.now_us /. 1000.0

let advance t us =
  if us < 0.0 then invalid_arg "Clock.advance: negative duration";
  t.now_us <- t.now_us +. us

let advance_to t deadline = if deadline > t.now_us then t.now_us <- deadline

let set t us =
  if us < 0.0 then invalid_arg "Clock.set: negative time";
  t.now_us <- us

module Cursor = struct
  type clock = t
  type t = { clock : clock; mutable at : float }

  let make ?at clock =
    { clock; at = (match at with Some a -> a | None -> clock.now_us) }

  let time c = c.at
  let enter c = set c.clock c.at
  (* Forward-only: a step may have scheduled the cursor past the shared
     clock (think time, retry backoff) — leaving must not undo that. *)
  let leave c = if c.clock.now_us > c.at then c.at <- c.clock.now_us
  let advance_to c deadline = if deadline > c.at then c.at <- deadline
end
