module Page = Deut_storage.Page
module Page_store = Deut_storage.Page_store
module Disk = Deut_sim.Disk
module Clock = Deut_sim.Clock
module Lsn = Deut_wal.Lsn

(* Neither pid table is ever iterated, so bucket order cannot leak into
   behaviour. *)
module Int_tbl = Deut_sim.Int_tbl

type hooks = {
  on_dirty : pid:int -> lsn:Lsn.t -> unit;
  on_flush : pid:int -> unit;
  ensure_stable : tc_lsn:Lsn.t -> dc_lsn:Lsn.t -> unit;
}

let null_hooks =
  {
    on_dirty = (fun ~pid:_ ~lsn:_ -> ());
    on_flush = (fun ~pid:_ -> ());
    ensure_stable = (fun ~tc_lsn:_ ~dc_lsn:_ -> ());
  }

type counters = {
  mutable hits : int;
  mutable misses : int;
  mutable prefetch_hits : int;
  mutable prefetch_issued : int;
  mutable prefetch_refused : int;
  mutable stalls : int;
  mutable stall_us : float;
  mutable evictions : int;
  mutable flushes : int;
}

type frame = {
  slot : int;
  mutable pid : int;  (* -1 when free *)
  mutable page : Page.t;
  mutable dirty : bool;
  mutable epoch : bool;
  mutable ref_bit : bool;
  mutable pins : int;
  mutable dirtied_at : int;  (* update tick of the clean->dirty transition *)
}

(* The [dirty_since] entry of a clean or free slot: no sweep finds it old
   enough to flush. *)
let clean_since = max_int

type t = {
  capacity : int;
  lazy_writer_every : int;  (* flush one dirty frame per this many misses; 0 = off *)
  lazy_writer_min_age : int;  (* only flush frames dirtied at least this many updates ago *)
  mutable lazy_writer_enabled : bool;
  mutable miss_ticks : int;
  mutable update_ticks : int;
  store : Page_store.t;
  disk : Disk.t;
  clock : Clock.t;
  frames : frame array;
  mutable dirty_frames : int;  (* frames with [dirty] set, kept in step at every transition *)
  by_pid : int Int_tbl.t;
  mutable free_slots : int list;
  mutable hand : int;
  mutable writer_hand : int;
  mutable writer_wake : int;  (* no lazy-writer sweep can succeed before this update tick *)
  dirty_since : int array;  (* per slot: the frame's [dirtied_at] while dirty, else [clean_since] *)
  mutable hooks : hooks;
  mutable cur_epoch : bool;
  in_flight : (float * int * int) Int_tbl.t;
      (* pid -> completion, issuing lane, the batch's request number on [disk] *)
  mutable lane_in_flight : int array;  (* per-lane slice of [in_flight], kept in step *)
  counters : counters;
  mutable trace : Deut_obs.Trace.t option;
  mutable stall_hist : Deut_obs.Metrics.histogram option;
  mutable stall_track : int option;  (* trace lane override for stall spans *)
  mutable fetch_index : bool;  (* current fetches belong to an index traversal *)
  mutable redo_hook : (int -> unit) option;  (* instant recovery's replay-on-touch *)
}

let dummy_page = Page.create ~page_size:Page.header_size ~pid:(-1) Page.Free

let create ~capacity ?(lazy_writer_every = 0) ?(lazy_writer_min_age = 0) ~store ~disk ~clock ()
    =
  if capacity < 4 then invalid_arg "Buffer_pool.create: capacity must be at least 4";
  let frame slot =
    {
      slot;
      pid = -1;
      page = dummy_page;
      dirty = false;
      epoch = false;
      ref_bit = false;
      pins = 0;
      dirtied_at = 0;
    }
  in
  {
    capacity;
    lazy_writer_every;
    lazy_writer_min_age;
    lazy_writer_enabled = true;
    miss_ticks = 0;
    update_ticks = 0;
    store;
    disk;
    clock;
    frames = Array.init capacity frame;
    dirty_frames = 0;
    by_pid = Int_tbl.create (2 * capacity);
    free_slots = List.init capacity Fun.id;
    hand = 0;
    writer_hand = 0;
    writer_wake = 0;
    dirty_since = Array.make capacity clean_since;
    hooks = null_hooks;
    cur_epoch = false;
    in_flight = Int_tbl.create 64;
    lane_in_flight = Array.make 8 0;
    counters =
      {
        hits = 0;
        misses = 0;
        prefetch_hits = 0;
        prefetch_issued = 0;
        prefetch_refused = 0;
        stalls = 0;
        stall_us = 0.0;
        evictions = 0;
        flushes = 0;
      };
    trace = None;
    stall_hist = None;
    stall_track = None;
    fetch_index = false;
    redo_hook = None;
  }

let instrument t ?trace ?stall_hist () =
  t.trace <- trace;
  t.stall_hist <- stall_hist

let set_stall_track t track = t.stall_track <- track
let set_fetch_index t b = t.fetch_index <- b
let set_hooks t hooks = t.hooks <- hooks
let capacity t = t.capacity
let counters t = t.counters

let reset_counters t =
  let c = t.counters in
  c.hits <- 0;
  c.misses <- 0;
  c.prefetch_hits <- 0;
  c.prefetch_issued <- 0;
  c.prefetch_refused <- 0;
  c.stalls <- 0;
  c.stall_us <- 0.0;
  c.evictions <- 0;
  c.flushes <- 0

let size t = Int_tbl.length t.by_pid

let dirty_count t = t.dirty_frames

(* The prefetcher polls per-lane occupancy on every step, so the per-lane
   counts are maintained on submit/claim/discard instead of folding the
   whole table per call. *)
let in_flight_count ?lane t =
  match lane with
  | None -> Int_tbl.length t.in_flight
  | Some l -> if l < Array.length t.lane_in_flight then t.lane_in_flight.(l) else 0

let note_in_flight t lane n =
  let len = Array.length t.lane_in_flight in
  if lane >= len then begin
    let grown = Array.make (Stdlib.max (lane + 1) (2 * len)) 0 in
    Array.blit t.lane_in_flight 0 grown 0 len;
    t.lane_in_flight <- grown
  end;
  t.lane_in_flight.(lane) <- t.lane_in_flight.(lane) + n

(* Remove [pid] from the in-flight set (claimed by a fetch or overwritten by
   an install), keeping the lane counters in step. *)
let drop_in_flight t pid =
  match Int_tbl.find_opt t.in_flight pid with
  | None -> ()
  | Some (_, lane, _) ->
      Int_tbl.remove t.in_flight pid;
      t.lane_in_flight.(lane) <- t.lane_in_flight.(lane) - 1

let set_redo_hook t hook = t.redo_hook <- hook

(* Instant recovery's replay-on-touch.  The hook fires on every [get]
   (hits included: analysis installs dirty images straight into the cache)
   and at the top of every frame flush, so a page can neither be served to
   a client nor written back to the store with redo still pending.  The
   hook is re-entrant by construction — the replayer removes the page from
   its pending set before applying — so the nested [get]s it performs
   settle immediately. *)
let run_redo_hook t pid = match t.redo_hook with None -> () | Some h -> h pid

let flush_frame t f =
  run_redo_hook t f.pid;
  t.hooks.ensure_stable ~tc_lsn:(Page.plsn f.page) ~dc_lsn:(Page.dc_plsn f.page);
  Page_store.write t.store f.page;
  ignore (Disk.submit_write t.disk ~pid:f.pid);
  if f.dirty then t.dirty_frames <- t.dirty_frames - 1;
  f.dirty <- false;
  t.dirty_since.(f.slot) <- clean_since;
  t.counters.flushes <- t.counters.flushes + 1;
  (match t.trace with
  | Some tr ->
      Deut_obs.Trace.instant tr ~name:"flush" ~cat:"cache" ~track:Deut_obs.Trace.track_cache
        ~args:[ ("pid", f.pid) ] ()
  | None -> ());
  t.hooks.on_flush ~pid:f.pid

let next_slot t slot =
  let next = slot + 1 in
  if next = t.capacity then 0 else next

(* The lazy writer's wake rule: [f] is dirty and may be flushable from
   tick [f.dirtied_at + lazy_writer_min_age] on, so no later sweep may be
   skipped past that tick. *)
let wake_for t f =
  let at = f.dirtied_at + t.lazy_writer_min_age in
  if at < t.writer_wake then t.writer_wake <- at

(* CLOCK second-chance sweep.  Pinned frames are skipped; a dirty victim is
   flushed (WAL first) before its frame is reused.  [attempts] counts the
   frames visited so far. *)
let rec evict_one t attempts =
  if attempts > 2 * t.capacity then failwith "Buffer_pool: all frames pinned, cannot evict";
  let f = t.frames.(t.hand) in
  t.hand <- next_slot t t.hand;
  if f.pid < 0 || f.pins > 0 then evict_one t (attempts + 1)
  else if f.ref_bit then begin
    f.ref_bit <- false;
    evict_one t (attempts + 1)
  end
  else begin
    if f.dirty then flush_frame t f;
    Int_tbl.remove t.by_pid f.pid;
    f.pid <- -1;
    f.page <- dummy_page;
    t.counters.evictions <- t.counters.evictions + 1;
    f.slot
  end

let take_slot t =
  match t.free_slots with
  | slot :: rest ->
      t.free_slots <- rest;
      slot
  | [] -> evict_one t 0

let install_frame t page ~dirty =
  let slot =
    match Int_tbl.find_opt t.by_pid page.Page.pid with Some slot -> slot | None -> take_slot t
  in
  let f = t.frames.(slot) in
  f.pid <- page.Page.pid;
  f.page <- page;
  if f.dirty <> dirty then t.dirty_frames <- (t.dirty_frames + if dirty then 1 else -1);
  f.dirty <- dirty;
  (* A dirty install keeps the [dirtied_at] the slot already holds, even
     one inherited from the slot's previous page. *)
  if dirty then begin
    t.dirty_since.(slot) <- f.dirtied_at;
    wake_for t f
  end
  else t.dirty_since.(slot) <- clean_since;
  f.epoch <- t.cur_epoch;
  f.ref_bit <- true;
  f.pins <- (if Int_tbl.mem t.by_pid page.Page.pid then f.pins else 0);
  Int_tbl.replace t.by_pid page.Page.pid slot;
  f

(* Background-writer step: flush (without evicting) the next aged dirty
   frame in sweep order.  Models SQL Server's lazy writer, which cleans the
   cache under read pressure — the source of the flush events that let the
   DPT prune (§3.3, §4.1).  Two properties matter for the paper's shapes:
   it is driven by {e misses}, so a cache much larger than the working set
   sees little cleaning and its dirty set (and DPT) keeps growing — the
   large-cache regime where "the DPT is not very effective" (§5.3) — and it
   flushes only pages dirtied at least [lazy_writer_min_age] updates ago,
   so the flush lands in a later Δ/BW window than the page's last update
   and the FW-LSN pruning rules can actually remove the entry.

   A sweep reads one int per frame ([dirty_since]) and touches a frame
   record only for an aged dirty frame, to test its pins.  A sweep that
   finds nothing goes round the whole pool and leaves [writer_hand] where
   it started, so it may be skipped whenever it is sure to find nothing.
   It sets [writer_wake] to the earliest tick at which a dirty frame it
   passed comes of age (aged but pinned frames excluded).  Until then only
   three events can make a frame flushable sooner, and each lowers
   [writer_wake] with [wake_for]: a clean->dirty [mark_dirty], a dirty
   install (which keeps the slot's old [dirtied_at]) and the [unpin] of a
   dirty frame.  Below [writer_wake] the step is O(1) and its outcome is
   exactly the full sweep's: no flush, the hand unmoved.  Transactions
   served while instant recovery replays pages on demand miss on nearly
   every fetch with thousands of young dirty frames in the pool, so this
   is the common case there. *)
let sweep_dirty t =
  let ready = t.update_ticks - t.lazy_writer_min_age in
  let since = t.dirty_since in
  let start = t.writer_hand in
  let rec go slot soonest =
    let d = since.(slot) in
    let next = next_slot t slot in
    if d <= ready && t.frames.(slot).pins = 0 then begin
      t.writer_hand <- next;
      flush_frame t t.frames.(slot);
      true
    end
    else begin
      let soonest = if d > ready && d < soonest then d else soonest in
      if next <> start then go next soonest
      else begin
        t.writer_wake <- (if soonest = max_int then max_int else soonest + t.lazy_writer_min_age);
        false
      end
    end
  in
  go start max_int

let flush_one_dirty t =
  t.dirty_frames > 0 && t.update_ticks >= t.writer_wake && sweep_dirty t

let set_lazy_writer_enabled t enabled = t.lazy_writer_enabled <- enabled

let lazy_writer_tick t =
  if t.lazy_writer_enabled && t.lazy_writer_every > 0 then begin
    t.miss_ticks <- t.miss_ticks + 1;
    if t.miss_ticks mod t.lazy_writer_every = 0 then ignore (flush_one_dirty t)
  end

(* Wait for request number [io] on [t.disk], which completes at
   [completion]; the [stall] span names it by its disk's lane and number. *)
let stall_until t ~io completion =
  let now = Clock.now t.clock in
  if completion > now then begin
    t.counters.stalls <- t.counters.stalls + 1;
    t.counters.stall_us <- t.counters.stall_us +. (completion -. now);
    (match t.stall_hist with
    | Some h -> Deut_obs.Metrics.observe h (completion -. now)
    | None -> ());
    (match t.trace with
    | Some tr ->
        let track = Option.value t.stall_track ~default:Deut_obs.Trace.track_cache in
        Deut_obs.Trace.span tr ~name:"stall" ~cat:"cache" ~track ~ts:now
          ~dur:(completion -. now)
          ~args:[ ("dev", Disk.track t.disk); ("io", io) ]
          ()
    | None -> ());
    Clock.advance_to t.clock completion
  end

(* One "page_fetch" span per cache fill that went to disk (miss or
   prefetched page claimed), covering submit-to-install.  Recovery's span
   accounting relies on fetch spans ≡ misses + prefetch_hits.  [index]
   marks fetches inside an index traversal ([set_fetch_index]); [late]
   marks a claimed prefetch the cursor had to wait for — the span's [dur]
   carries the same fact (a zero-duration prefetched fetch arrived in
   time), the instant makes it scannable. *)
let note_fetch t ~pid ~start ~prefetched ~late =
  match t.trace with
  | Some tr ->
      Deut_obs.Trace.span tr ~name:"page_fetch" ~cat:"cache" ~track:Deut_obs.Trace.track_cache
        ~ts:start
        ~dur:(Clock.now t.clock -. start)
        ~args:
          [
            ("pid", pid);
            ("prefetched", if prefetched then 1 else 0);
            ("index", if t.fetch_index then 1 else 0);
          ]
        ();
      if prefetched then
        Deut_obs.Trace.instant tr ~name:"prefetch_hit" ~cat:"cache"
          ~track:Deut_obs.Trace.track_cache
          ~args:[ ("pid", pid); ("late", if late then 1 else 0) ]
          ()
  | None -> ()

let get t ?(pin = false) pid =
  run_redo_hook t pid;
  let f =
    match Int_tbl.find t.by_pid pid with
    | slot ->
        let f = t.frames.(slot) in
        f.ref_bit <- true;
        t.counters.hits <- t.counters.hits + 1;
        f
    | exception Not_found -> (
        match Int_tbl.find_opt t.in_flight pid with
        | Some (completion, _lane, io) ->
            (* The page was prefetched; wait (if needed) for that IO. *)
            let start = Clock.now t.clock in
            let late = completion > start in
            stall_until t ~io completion;
            drop_in_flight t pid;
            t.counters.prefetch_hits <- t.counters.prefetch_hits + 1;
            let f = install_frame t (Page_store.read t.store pid) ~dirty:false in
            note_fetch t ~pid ~start ~prefetched:true ~late;
            f
        | None ->
            t.counters.misses <- t.counters.misses + 1;
            lazy_writer_tick t;
            let start = Clock.now t.clock in
            let completion = Disk.submit_read t.disk ~pid in
            stall_until t ~io:(Disk.counters t.disk).Disk.requests completion;
            let f = install_frame t (Page_store.read t.store pid) ~dirty:false in
            note_fetch t ~pid ~start ~prefetched:false ~late:false;
            f)
  in
  if pin then f.pins <- f.pins + 1;
  f.page

let get_if_cached t pid =
  match Int_tbl.find_opt t.by_pid pid with
  | Some slot ->
      let f = t.frames.(slot) in
      f.ref_bit <- true;
      Some f.page
  | None -> None

let pin t pid =
  match Int_tbl.find_opt t.by_pid pid with
  | Some slot -> t.frames.(slot).pins <- t.frames.(slot).pins + 1
  | None -> invalid_arg "Buffer_pool.pin: page not cached"

let unpin t pid =
  match Int_tbl.find_opt t.by_pid pid with
  | Some slot ->
      let f = t.frames.(slot) in
      if f.pins <= 0 then invalid_arg "Buffer_pool.unpin: page not pinned";
      f.pins <- f.pins - 1;
      if f.dirty then wake_for t f
  | None -> invalid_arg "Buffer_pool.unpin: page not cached"

let new_page t kind =
  let pid = Page_store.allocate t.store kind in
  let page = Page.create ~page_size:(Page_store.page_size t.store) ~pid kind in
  ignore (install_frame t page ~dirty:false);
  page

let install t ?event_lsn page ~dirty =
  (* Installing an image over a still-in-flight prefetch discards that
     fetch unread — the profiler counts it toward the wasted class. *)
  (match t.trace with
  | Some tr when Int_tbl.mem t.in_flight page.Page.pid ->
      Deut_obs.Trace.instant tr ~name:"prefetch_unused" ~cat:"cache"
        ~track:Deut_obs.Trace.track_cache ~args:[ ("pid", page.Page.pid) ] ()
  | _ -> ());
  drop_in_flight t page.Page.pid;
  let f = install_frame t page ~dirty in
  if dirty then
    let lsn = Option.value event_lsn ~default:(Page.plsn page) in
    t.hooks.on_dirty ~pid:f.pid ~lsn

(* The update path: the callers stamp the cached page, then [note_update]
   counts the update and makes a clean frame dirty. *)
let cached_slot t pid =
  match Int_tbl.find t.by_pid pid with
  | slot -> slot
  | exception Not_found -> invalid_arg "Buffer_pool.mark_dirty: page not cached"

let note_update t slot ~event_lsn =
  let f = t.frames.(slot) in
  t.update_ticks <- t.update_ticks + 1;
  if not f.dirty then begin
    f.dirty <- true;
    t.dirty_frames <- t.dirty_frames + 1;
    f.epoch <- t.cur_epoch;
    f.dirtied_at <- t.update_ticks;
    t.dirty_since.(slot) <- t.update_ticks;
    wake_for t f;
    t.hooks.on_dirty ~pid:f.pid ~lsn:event_lsn
  end

let mark_dirty t ~pid ~lsn =
  let slot = cached_slot t pid in
  Page.set_plsn t.frames.(slot).page lsn;
  note_update t slot ~event_lsn:lsn

let mark_dirty_dc t ~pid ~dc_lsn ~event_lsn =
  let slot = cached_slot t pid in
  Page.set_dc_plsn t.frames.(slot).page dc_lsn;
  note_update t slot ~event_lsn

let prefetch_room t = t.capacity - size t - in_flight_count t

let prefetch t ?(lane = 0) pids =
  let wanted =
    List.filter (fun pid -> not (Int_tbl.mem t.by_pid pid || Int_tbl.mem t.in_flight pid)) pids
  in
  let rec split n acc = function
    | pid :: rest when n > 0 -> split (n - 1) (pid :: acc) rest
    | refused -> (List.rev acc, refused)
  in
  let accepted, refused = split (prefetch_room t) [] wanted in
  t.counters.prefetch_refused <- t.counters.prefetch_refused + List.length refused;
  (* One asynchronous batch: the disk serves it in elevator order, so
     contiguous pages coalesce into block reads and scattered pages pay the
     cheaper queued-seek cost. *)
  if accepted <> [] then begin
    let completion = Disk.submit_batch_read t.disk accepted in
    let io = (Disk.counters t.disk).Disk.requests in
    List.iter (fun pid -> Int_tbl.replace t.in_flight pid (completion, lane, io)) accepted;
    note_in_flight t lane (List.length accepted);
    t.counters.prefetch_issued <- t.counters.prefetch_issued + List.length accepted;
    match t.trace with
    | Some tr ->
        Deut_obs.Trace.instant tr ~name:"prefetch_issue" ~cat:"cache"
          ~track:Deut_obs.Trace.track_cache
          ~args:[ ("count", List.length accepted); ("first_pid", List.hd accepted) ]
          ();
        (* Per-page instants let the profiler reconcile issued pages with
           claimed ones without guessing the batch's membership. *)
        List.iter
          (fun pid ->
            Deut_obs.Trace.instant tr ~name:"prefetch_page" ~cat:"cache"
              ~track:Deut_obs.Trace.track_cache
              ~args:[ ("pid", pid); ("lane", lane) ]
              ())
          accepted
    | None -> ()
  end;
  refused

let flush_page t pid =
  match Int_tbl.find_opt t.by_pid pid with
  | None -> invalid_arg "Buffer_pool.flush_page: page not cached"
  | Some slot ->
      let f = t.frames.(slot) in
      if f.dirty then flush_frame t f

let flush_all_dirty t =
  Array.iter (fun f -> if f.pid >= 0 && f.dirty then flush_frame t f) t.frames

let begin_checkpoint_epoch t = t.cur_epoch <- not t.cur_epoch

let flush_previous_epoch t =
  Array.iter
    (fun f -> if f.pid >= 0 && f.dirty && f.epoch <> t.cur_epoch then flush_frame t f)
    t.frames
