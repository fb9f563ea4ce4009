type params = {
  seek_us : float;
  transfer_us : float;
  sequential_gap : int;
  batch_seek_factor : float;
}

let default_params =
  { seek_us = 4000.0; transfer_us = 50.0; sequential_gap = 1; batch_seek_factor = 0.75 }

type counters = {
  mutable requests : int;
  mutable pages_read : int;
  mutable pages_written : int;
  mutable seeks : int;
  mutable sequential_requests : int;
}

type t = {
  clock : Clock.t;
  params : params;
  counters : counters;
  mutable free_at : float;  (* when the queue drains *)
  mutable head_pos : int;  (* pid just past the last request served *)
  mutable trace : Deut_obs.Trace.t option;
  mutable track : int;
  mutable io_hist : Deut_obs.Metrics.histogram option;
}

let create ?(params = default_params) clock =
  {
    clock;
    params;
    counters =
      { requests = 0; pages_read = 0; pages_written = 0; seeks = 0; sequential_requests = 0 };
    free_at = 0.0;
    head_pos = -1000;
    trace = None;
    track = 0;
    io_hist = None;
  }

let instrument t ?trace ?io_hist ~track () =
  t.trace <- trace;
  t.io_hist <- io_hist;
  t.track <- track

(* Record one serviced request.  [start] is when the head began moving, so
   the span shows pure service time; queueing delay is visible as the gap
   to the preceding span on the same track.  A one-page read or write
   ([pid_only]) carries its [pid]; any other request its [first_pid] and
   [count]; every request its [io], the request's number on this device
   ([counters.requests] once it is counted), which a stall names to say
   what it waited on.  Callers test [observed] first, so an uninstrumented
   disk builds neither the args nor the span. *)
let note t ~ev ~start ~completion ~pid_only ~first_pid ~count =
  (match t.io_hist with
  | Some h -> Deut_obs.Metrics.observe h (completion -. start)
  | None -> ());
  match t.trace with
  | Some tr ->
      let io = ("io", t.counters.requests) in
      let args =
        if pid_only then [ ("pid", first_pid); io ]
        else [ ("first_pid", first_pid); ("count", count); io ]
      in
      Deut_obs.Trace.span tr ~name:ev ~cat:"io" ~track:t.track ~ts:start
        ~dur:(completion -. start) ~args ()
  | None -> ()

let observed t = t.trace != None || t.io_hist != None

let counters t = t.counters
let track t = t.track

let busy_until t = Float.max t.free_at (Clock.now t.clock)

(* Core queueing step: a request for [count] pages starting at [first_pid]
   begins when the disk is free, pays a seek unless it continues the previous
   transfer, and transfers each page.  A request that arrives while the
   device is still busy joins a non-empty queue, so the head schedules it
   like a batch member and its positioning costs [batch_seek_factor ×
   seek_us]; an arrival at an idle device (queue depth 0 — every synchronous
   miss path, since the caller stalled to the previous completion) pays the
   full cold seek.  Records the request as [ev] and returns its completion
   time. *)
let submit t ~ev ~pid_only ~first_pid ~count =
  let now = Clock.now t.clock in
  let queued = t.free_at > now in
  let start = if queued then t.free_at else now in
  let sequential = abs (first_pid - t.head_pos) <= t.params.sequential_gap in
  let seek =
    if sequential then 0.0
    else if queued then t.params.seek_us *. t.params.batch_seek_factor
    else t.params.seek_us
  in
  let completion = start +. seek +. (float_of_int count *. t.params.transfer_us) in
  t.free_at <- completion;
  t.head_pos <- first_pid + count;
  t.counters.requests <- t.counters.requests + 1;
  if sequential then t.counters.sequential_requests <- t.counters.sequential_requests + 1
  else t.counters.seeks <- t.counters.seeks + 1;
  if observed t then note t ~ev ~start ~completion ~pid_only ~first_pid ~count;
  completion

let submit_read t ~pid =
  t.counters.pages_read <- t.counters.pages_read + 1;
  submit t ~ev:"io_read" ~pid_only:true ~first_pid:pid ~count:1

let submit_write t ~pid =
  t.counters.pages_written <- t.counters.pages_written + 1;
  submit t ~ev:"io_write" ~pid_only:true ~first_pid:pid ~count:1

let submit_sequential_write t ~first_pid ~count =
  t.counters.pages_written <- t.counters.pages_written + count;
  submit t ~ev:"io_write_seq" ~pid_only:false ~first_pid ~count

let submit_batch_read t pids =
  match List.sort Int.compare pids with
  | [] -> busy_until t
  | sorted ->
      let start = Float.max t.free_at (Clock.now t.clock) in
      let batch_seek = t.params.seek_us *. t.params.batch_seek_factor in
      let service = ref 0.0 in
      let prev_end = ref t.head_pos in
      List.iter
        (fun pid ->
          let sequential = abs (pid - !prev_end) <= t.params.sequential_gap in
          service := !service +. (if sequential then 0.0 else batch_seek) +. t.params.transfer_us;
          if sequential then
            t.counters.sequential_requests <- t.counters.sequential_requests + 1
          else t.counters.seeks <- t.counters.seeks + 1;
          prev_end := pid + 1)
        sorted;
      let completion = start +. !service in
      t.free_at <- completion;
      t.head_pos <- !prev_end;
      t.counters.requests <- t.counters.requests + 1;
      t.counters.pages_read <- t.counters.pages_read + List.length sorted;
      if observed t then
        note t ~ev:"io_batch" ~start ~completion ~pid_only:false ~first_pid:(List.hd sorted)
          ~count:(List.length sorted);
      completion

let read_sequential_sync t ~first_pid ~count =
  t.counters.pages_read <- t.counters.pages_read + count;
  Clock.advance_to t.clock (submit t ~ev:"io_log" ~pid_only:false ~first_pid ~count)
