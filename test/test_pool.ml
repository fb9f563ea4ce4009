(* Buffer pool: caching, eviction, WAL hook ordering, checkpoint epochs,
   prefetch, pinning, the lazy writer. *)

module Page = Deut_storage.Page
module Page_store = Deut_storage.Page_store
module Pool = Deut_buffer.Buffer_pool
module Clock = Deut_sim.Clock
module Disk = Deut_sim.Disk
module Lsn = Deut_wal.Lsn

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

type env = {
  clock : Clock.t;
  disk : Disk.t;
  store : Page_store.t;
  pool : Pool.t;
  dirty_events : (int * Lsn.t) list ref;
  flush_events : int list ref;
  forced_upto : Lsn.t ref;
}

let make ?(capacity = 8) ?(pages = 32) ?lazy_writer_every ?lazy_writer_min_age () =
  let clock = Clock.create () in
  let disk = Disk.create clock in
  let store = Page_store.create ~page_size:256 in
  let pool = Pool.create ~capacity ?lazy_writer_every ?lazy_writer_min_age ~store ~disk ~clock () in
  let dirty_events = ref [] and flush_events = ref [] and forced_upto = ref Lsn.nil in
  Pool.set_hooks pool
    {
      Pool.on_dirty = (fun ~pid ~lsn -> dirty_events := (pid, lsn) :: !dirty_events);
      on_flush = (fun ~pid -> flush_events := pid :: !flush_events);
      ensure_stable =
        (fun ~tc_lsn ~dc_lsn ->
          forced_upto := Lsn.max !forced_upto (Lsn.max tc_lsn dc_lsn));
    };
  (* Seed the store with [pages] stable pages. *)
  for _ = 1 to pages do
    let pid = Page_store.allocate store Page.Meta in
    let p = Page.create ~page_size:256 ~pid Page.Meta in
    Page.set_u16 p 32 pid;
    Page_store.write store p
  done;
  { clock; disk; store; pool; dirty_events; flush_events; forced_upto }

let test_hit_miss () =
  let e = make () in
  let p = Pool.get e.pool 3 in
  check_int "content loaded" 3 (Page.get_u16 p 32);
  let c = Pool.counters e.pool in
  check_int "one miss" 1 c.Pool.misses;
  let miss_stall = c.Pool.stall_us in
  check "a miss stalls" true (miss_stall > 0.0);
  ignore (Pool.get e.pool 3);
  check_int "then a hit" 1 c.Pool.hits;
  check_int "still one miss" 1 c.Pool.misses;
  check "hit is free" true (c.Pool.stall_us = miss_stall);
  check_int "cached" 1 (Pool.size e.pool)

let test_eviction_capacity () =
  let e = make ~capacity:4 () in
  for pid = 0 to 9 do
    ignore (Pool.get e.pool pid)
  done;
  check_int "bounded by capacity" 4 (Pool.size e.pool);
  check "evictions happened" true ((Pool.counters e.pool).Pool.evictions > 0)

let test_dirty_flush_cycle () =
  let e = make ~capacity:4 () in
  let p = Pool.get e.pool 1 in
  Page.set_u16 p 32 999;
  Pool.mark_dirty e.pool ~pid:1 ~lsn:50;
  check_int "plsn stamped" 50 (Page.plsn p);
  check_int "dirty count" 1 (Pool.dirty_count e.pool);
  Alcotest.(check (list (pair int int))) "dirty event fired" [ (1, 50) ] !(e.dirty_events);
  (* Re-dirtying does not fire another event but raises the pLSN. *)
  Pool.mark_dirty e.pool ~pid:1 ~lsn:70;
  check_int "one dirty event only" 1 (List.length !(e.dirty_events));
  check_int "plsn raised" 70 (Page.plsn p);
  Pool.flush_page e.pool 1;
  check_int "clean after flush" 0 (Pool.dirty_count e.pool);
  Alcotest.(check (list int)) "flush event" [ 1 ] !(e.flush_events);
  check_int "WAL forced through plsn" 70 !(e.forced_upto);
  (* The stable image now carries the update. *)
  check_int "store updated" 999 (Page.get_u16 (Page_store.read e.store 1) 32)

let test_eviction_flushes_dirty () =
  let e = make ~capacity:4 () in
  let p = Pool.get e.pool 0 in
  Page.set_u16 p 32 123;
  Pool.mark_dirty e.pool ~pid:0 ~lsn:10;
  (* Fill the cache so pid 0 is evicted. *)
  for pid = 1 to 8 do
    ignore (Pool.get e.pool pid)
  done;
  check "pid 0 evicted" true (Pool.get_if_cached e.pool 0 = None);
  check "flush event on eviction" true (List.mem 0 !(e.flush_events));
  check_int "contents survived via store" 123 (Page.get_u16 (Pool.get e.pool 0) 32)

let test_pin_prevents_eviction () =
  let e = make ~capacity:4 () in
  ignore (Pool.get e.pool ~pin:true 0);
  for pid = 1 to 12 do
    ignore (Pool.get e.pool pid)
  done;
  check "pinned page survives pressure" true (Pool.get_if_cached e.pool 0 <> None);
  Pool.unpin e.pool 0;
  for pid = 13 to 20 do
    ignore (Pool.get e.pool pid)
  done;
  check "unpinned page can go" true (Pool.get_if_cached e.pool 0 = None);
  (try
     Pool.unpin e.pool 5;
     Alcotest.fail "unpin of unpinned frame must raise"
   with Invalid_argument _ -> ())

let test_all_pinned_fails () =
  let e = make ~capacity:4 () in
  for pid = 0 to 3 do
    ignore (Pool.get e.pool ~pin:true pid)
  done;
  try
    ignore (Pool.get e.pool 10);
    Alcotest.fail "eviction with all frames pinned must fail"
  with Failure _ -> ()

let test_checkpoint_epochs () =
  let e = make ~capacity:8 () in
  ignore (Pool.get e.pool 0);
  Pool.mark_dirty e.pool ~pid:0 ~lsn:5;
  Pool.begin_checkpoint_epoch e.pool;
  (* Dirtied after the flip: belongs to the new epoch. *)
  ignore (Pool.get e.pool 1);
  Pool.mark_dirty e.pool ~pid:1 ~lsn:6;
  Pool.flush_previous_epoch e.pool;
  Alcotest.(check (list int)) "old epoch flushed" [ 0 ] !(e.flush_events);
  check_int "new epoch kept dirty" 1 (Pool.dirty_count e.pool)

let test_prefetch () =
  let e = make ~capacity:8 () in
  Alcotest.(check (list int)) "nothing refused" [] (Pool.prefetch e.pool [ 2; 3; 4 ]);
  check_int "in flight" 3 (Pool.in_flight_count e.pool);
  check_int "issued" 3 (Pool.counters e.pool).Pool.prefetch_issued;
  check_int "not yet cached" 0 (Pool.size e.pool);
  (* Duplicate prefetch is a no-op, not a refusal. *)
  Alcotest.(check (list int)) "duplicates not refused" [] (Pool.prefetch e.pool [ 2; 3 ]);
  check_int "no duplicates" 3 (Pool.in_flight_count e.pool);
  let p = Pool.get e.pool 3 in
  check_int "prefetched content" 3 (Page.get_u16 p 32);
  let c = Pool.counters e.pool in
  check_int "satisfied from prefetch" 1 c.Pool.prefetch_hits;
  check_int "no sync miss" 0 c.Pool.misses;
  check_int "two still in flight" 2 (Pool.in_flight_count e.pool);
  (* Waiting for the prefetch advanced the clock to the IO completion. *)
  check "stall accounted" true (c.Pool.stall_us > 0.0)

let test_prefetch_budget () =
  let e = make ~capacity:4 () in
  ignore (Pool.get e.pool 0);
  ignore (Pool.get e.pool 1);
  let refused = Pool.prefetch e.pool [ 1; 2; 3; 4; 5; 6; 7 ] in
  check_int "prefetch bounded by free space" 2 (Pool.in_flight_count e.pool);
  (* The resident page is skipped; what did not fit comes back, in order. *)
  Alcotest.(check (list int)) "rest refused" [ 4; 5; 6; 7 ] refused;
  let c = Pool.counters e.pool in
  check_int "issued" 2 c.Pool.prefetch_issued;
  check_int "refusals counted" 4 c.Pool.prefetch_refused

let test_prefetch_completed_is_free () =
  let e = make ~capacity:8 () in
  ignore (Pool.prefetch e.pool [ 5 ]);
  (* Let the read complete. *)
  Clock.advance e.clock 1e6;
  let stall_before = (Pool.counters e.pool).Pool.stall_us in
  ignore (Pool.get e.pool 5);
  check "no stall when IO already done" true
    ((Pool.counters e.pool).Pool.stall_us = stall_before)

let test_install_replaces () =
  let e = make ~capacity:8 () in
  ignore (Pool.get e.pool 2);
  let fresh = Page.create ~page_size:256 ~pid:2 Page.Meta in
  Page.set_u16 fresh 32 777;
  Page.set_plsn fresh 33;
  Pool.install e.pool fresh ~dirty:true;
  let p = Pool.get e.pool 2 in
  check_int "installed image visible" 777 (Page.get_u16 p 32);
  check_int "installed dirty" 1 (Pool.dirty_count e.pool);
  check "dirty event for install" true (List.mem_assoc 2 !(e.dirty_events))

let test_lazy_writer () =
  (* Writer flushes one aged dirty page per miss. *)
  let e = make ~capacity:8 ~lazy_writer_every:1 ~lazy_writer_min_age:2 () in
  ignore (Pool.get e.pool 0);
  Pool.mark_dirty e.pool ~pid:0 ~lsn:1;
  (* Not aged yet: a miss must not flush it. *)
  ignore (Pool.get e.pool 1);
  check "young page not flushed" true (!(e.flush_events) = []);
  (* Age it with two more update ticks elsewhere. *)
  Pool.mark_dirty e.pool ~pid:1 ~lsn:2;
  Pool.mark_dirty e.pool ~pid:1 ~lsn:3;
  ignore (Pool.get e.pool 2);
  Alcotest.(check (list int)) "aged page flushed by writer" [ 0 ] !(e.flush_events);
  (* Disabled writer does nothing. *)
  Pool.set_lazy_writer_enabled e.pool false;
  Pool.mark_dirty e.pool ~pid:2 ~lsn:4;
  Pool.mark_dirty e.pool ~pid:2 ~lsn:5;
  Pool.mark_dirty e.pool ~pid:2 ~lsn:6;
  ignore (Pool.get e.pool 3);
  ignore (Pool.get e.pool 4);
  Alcotest.(check (list int)) "disabled writer leaves dirt" [ 0 ] !(e.flush_events);
  check_int "pages 1 and 2 still dirty" 2 (Pool.dirty_count e.pool)

let test_dirty_pids () =
  let e = make ~capacity:8 () in
  ignore (Pool.get e.pool 1);
  ignore (Pool.get e.pool 2);
  Pool.mark_dirty e.pool ~pid:1 ~lsn:1;
  Pool.mark_dirty e.pool ~pid:2 ~lsn:2;
  Alcotest.(check (list int)) "dirty pids" [ 1; 2 ]
    (List.sort compare (List.map fst !(e.dirty_events)));
  check_int "two dirty frames" 2 (Pool.dirty_count e.pool)

(* The O(1) dirty counter must agree with the frames after every kind of
   clean<->dirty transition: misses (evictions, lazy-writer flushes),
   allocation, dirtying, clean and dirty installs, and every flush path.
   The dirty frames are read off the hooks: [on_dirty] adds a pid,
   [on_flush] removes it, and so does a clean install, which the test
   makes itself. *)
let test_dirty_count_tracks_frames () =
  let e = make ~capacity:8 ~pages:32 ~lazy_writer_every:2 ~lazy_writer_min_age:1 () in
  let dirty = Hashtbl.create 16 in
  let note_events () =
    List.iter (fun (pid, _) -> Hashtbl.replace dirty pid ()) (List.rev !(e.dirty_events));
    List.iter (fun pid -> Hashtbl.remove dirty pid) (List.rev !(e.flush_events));
    e.dirty_events := [];
    e.flush_events := []
  in
  let cached pid = Pool.get_if_cached e.pool pid <> None in
  let rng = Random.State.make [| 16 |] in
  (* Reads and installs stay on the seeded pages, which have a stable
     image; an allocated page is dirtied at once, so it is written before
     it can be evicted. *)
  let seeded () = Random.State.int rng 32 in
  let allocated = ref [] in
  let any () =
    match !allocated with
    | [] -> seeded ()
    | l ->
        if Random.State.bool rng then seeded ()
        else List.nth l (Random.State.int rng (List.length l))
  in
  let lsn = ref 0 in
  let next_lsn () =
    incr lsn;
    !lsn
  in
  for step = 1 to 3000 do
    (match Random.State.int rng 10 with
    | 0 | 1 -> ignore (Pool.get e.pool (seeded ()))
    | 2 ->
        let pid = (Pool.new_page e.pool Page.Meta).Page.pid in
        Pool.mark_dirty e.pool ~pid ~lsn:(next_lsn ());
        allocated := pid :: !allocated
    | 3 | 4 ->
        let pid = any () in
        if cached pid then Pool.mark_dirty e.pool ~pid ~lsn:(next_lsn ())
    | 5 ->
        let pid = seeded () in
        let page = Page.create ~page_size:256 ~pid Page.Meta in
        Page.set_plsn page (next_lsn ());
        let dirty_install = Random.State.bool rng in
        note_events ();
        Pool.install e.pool page ~dirty:dirty_install;
        if not dirty_install then Hashtbl.remove dirty pid
    | 6 ->
        let pid = any () in
        if cached pid then Pool.flush_page e.pool pid
    | 7 -> ignore (Pool.flush_one_dirty e.pool)
    | 8 ->
        Pool.begin_checkpoint_epoch e.pool;
        Pool.flush_previous_epoch e.pool
    | _ -> if Random.State.int rng 4 = 0 then Pool.flush_all_dirty e.pool);
    note_events ();
    let frames = Hashtbl.length dirty in
    if Pool.dirty_count e.pool <> frames then
      Alcotest.failf "step %d: dirty_count %d, %d dirty frames" step (Pool.dirty_count e.pool)
        frames
  done;
  check "evictions exercised" true ((Pool.counters e.pool).Pool.evictions > 0)

(* A lazy-writer step on a clean pool returns at once and leaves the sweep
   position alone: after dirtying pages again, the writer picks exactly
   what it would have picked with no clean steps in between. *)
let test_clean_writer_step_keeps_hand () =
  let picks ~clean_steps =
    let e = make ~capacity:8 () in
    for pid = 0 to 7 do
      ignore (Pool.get e.pool pid)
    done;
    (* Move the hand past slot 3. *)
    Pool.mark_dirty e.pool ~pid:3 ~lsn:1;
    check "first flush" true (Pool.flush_one_dirty e.pool);
    for _ = 1 to clean_steps do
      check "clean pool: nothing to flush" false (Pool.flush_one_dirty e.pool)
    done;
    check_int "still clean" 0 (Pool.dirty_count e.pool);
    Pool.mark_dirty e.pool ~pid:2 ~lsn:2;
    Pool.mark_dirty e.pool ~pid:6 ~lsn:3;
    check "second flush" true (Pool.flush_one_dirty e.pool);
    check "third flush" true (Pool.flush_one_dirty e.pool);
    List.rev !(e.flush_events)
  in
  Alcotest.(check (list int)) "sweep order from the hand" [ 3; 6; 2 ] (picks ~clean_steps:0);
  Alcotest.(check (list int)) "clean steps do not move the hand" [ 3; 6; 2 ] (picks ~clean_steps:5)

(* A sweep that found nothing is not repeated until some frame can have
   become flushable: an update ages dirty frames, an unpin frees one, a
   dirty install adds one (with its slot's old dirtied-at tick). *)
let test_idle_writer_wakes () =
  let e = make ~capacity:8 ~lazy_writer_min_age:3 () in
  for pid = 0 to 7 do
    ignore (Pool.get e.pool pid)
  done;
  Pool.mark_dirty e.pool ~pid:5 ~lsn:1;
  check "young page not flushed" false (Pool.flush_one_dirty e.pool);
  check "idle writer stays idle" false (Pool.flush_one_dirty e.pool);
  Pool.mark_dirty e.pool ~pid:1 ~lsn:2;
  Pool.mark_dirty e.pool ~pid:1 ~lsn:3;
  check "age 2 is still young" false (Pool.flush_one_dirty e.pool);
  Pool.mark_dirty e.pool ~pid:1 ~lsn:4;
  check "an update ages pid 5" true (Pool.flush_one_dirty e.pool);
  Pool.flush_page e.pool 1;
  ignore (Pool.get e.pool ~pin:true 3);
  for lsn = 5 to 8 do
    Pool.mark_dirty e.pool ~pid:3 ~lsn
  done;
  check "aged but pinned" false (Pool.flush_one_dirty e.pool);
  Pool.unpin e.pool 3;
  check "an unpin frees pid 3" true (Pool.flush_one_dirty e.pool);
  Pool.mark_dirty e.pool ~pid:6 ~lsn:9;
  check "only a young page" false (Pool.flush_one_dirty e.pool);
  let fresh = Page.create ~page_size:256 ~pid:2 Page.Meta in
  Page.set_plsn fresh 10;
  Pool.install e.pool fresh ~dirty:true;
  check "a dirty install wakes the writer" true (Pool.flush_one_dirty e.pool);
  Alcotest.(check (list int)) "flush order" [ 5; 1; 3; 2 ] (List.rev !(e.flush_events))

(* A clean miss (tracing off, a pool full of clean frames: every fetch
   evicts) allocates a few words of bookkeeping and no more: the disk
   builds its trace args only when a trace is attached, and eviction
   allocates no closure. *)
let test_clean_miss_allocation () =
  let e = make ~capacity:64 ~pages:512 () in
  let sweep () =
    for pid = 0 to 511 do
      ignore (Pool.get e.pool pid)
    done
  in
  sweep ();
  let misses = (Pool.counters e.pool).Pool.misses in
  let before = Gc.minor_words () in
  sweep ();
  let words = Gc.minor_words () -. before in
  let n = (Pool.counters e.pool).Pool.misses - misses in
  check_int "every fetch missed" 512 n;
  let per_miss = words /. float_of_int n in
  if per_miss >= 28.0 then Alcotest.failf "a clean miss allocated %.1f minor words" per_miss

(* The hit and update paths allocate nothing: a cache hit and a re-mark
   of an already dirty page (TC and DC stamps alike) look the slot up
   without an option and stamp the page without a closure. *)
let test_hit_and_remark_allocation () =
  let e = make () in
  ignore (Pool.get e.pool 3);
  Pool.mark_dirty e.pool ~pid:3 ~lsn:1;
  let n = 100_000 in
  let per_call f =
    let before = Gc.minor_words () in
    for i = 1 to n do
      f i
    done;
    (Gc.minor_words () -. before) /. float_of_int n
  in
  let words what w = if w >= 0.01 then Alcotest.failf "%s allocated %.2f minor words" what w in
  words "a cache hit" (per_call (fun _ -> ignore (Pool.get e.pool 3)));
  words "a re-mark" (per_call (fun i -> Pool.mark_dirty e.pool ~pid:3 ~lsn:(1 + i)));
  words "a DC re-mark"
    (per_call (fun i -> Pool.mark_dirty_dc e.pool ~pid:3 ~dc_lsn:i ~event_lsn:(1 + i)));
  check_int "one dirty event" 1 (List.length !(e.dirty_events))

(* The lazy writer without a wake tick: every writer step sweeps the
   whole pool from the writer's hand, testing each frame's record.  [Ref]
   models the rest of the pool (slot choice, CLOCK eviction, checkpoint
   epochs) as far as it decides which frame is flushed when. *)
module Ref = struct
  type frame = {
    mutable pid : int;
    mutable dirty : bool;
    mutable epoch : bool;
    mutable ref_bit : bool;
    mutable pins : int;
    mutable dirtied_at : int;
  }

  type t = {
    frames : frame array;
    by_pid : (int, int) Hashtbl.t;
    mutable free : int list;
    mutable hand : int;
    mutable writer_hand : int;
    every : int;
    min_age : int;
    mutable miss_ticks : int;
    mutable ticks : int;
    mutable cur_epoch : bool;
    mutable flushed : int list;  (* newest first *)
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
  }

  let create ~capacity ~every ~min_age =
    let frame _ =
      { pid = -1; dirty = false; epoch = false; ref_bit = false; pins = 0; dirtied_at = 0 }
    in
    {
      frames = Array.init capacity frame;
      by_pid = Hashtbl.create 64;
      free = List.init capacity Fun.id;
      hand = 0;
      writer_hand = 0;
      every;
      min_age;
      miss_ticks = 0;
      ticks = 0;
      cur_epoch = false;
      flushed = [];
      hits = 0;
      misses = 0;
      evictions = 0;
    }

  let capacity m = Array.length m.frames
  let frame m pid = Option.map (fun slot -> m.frames.(slot)) (Hashtbl.find_opt m.by_pid pid)

  let flush m f =
    f.dirty <- false;
    m.flushed <- f.pid :: m.flushed

  let writer_step m =
    let rec go steps =
      steps < capacity m
      &&
      let f = m.frames.(m.writer_hand) in
      m.writer_hand <- (m.writer_hand + 1) mod capacity m;
      if f.pid >= 0 && f.dirty && f.pins = 0 && m.ticks - f.dirtied_at >= m.min_age then begin
        flush m f;
        true
      end
      else go (steps + 1)
    in
    ignore (go 0)

  let rec evict m =
    let slot = m.hand in
    let f = m.frames.(slot) in
    m.hand <- (slot + 1) mod capacity m;
    if f.pid < 0 || f.pins > 0 then evict m
    else if f.ref_bit then begin
      f.ref_bit <- false;
      evict m
    end
    else begin
      if f.dirty then flush m f;
      Hashtbl.remove m.by_pid f.pid;
      f.pid <- -1;
      m.evictions <- m.evictions + 1;
      slot
    end

  let install m pid ~dirty =
    let slot =
      match Hashtbl.find_opt m.by_pid pid with
      | Some slot -> slot
      | None -> (
          match m.free with
          | slot :: rest ->
              m.free <- rest;
              slot
          | [] -> evict m)
    in
    let f = m.frames.(slot) in
    f.pins <- (if Hashtbl.mem m.by_pid pid then f.pins else 0);
    f.pid <- pid;
    f.dirty <- dirty;
    f.epoch <- m.cur_epoch;
    f.ref_bit <- true;
    Hashtbl.replace m.by_pid pid slot

  let get m ~pin pid =
    (match frame m pid with
    | Some f ->
        f.ref_bit <- true;
        m.hits <- m.hits + 1
    | None ->
        m.misses <- m.misses + 1;
        m.miss_ticks <- m.miss_ticks + 1;
        if m.miss_ticks mod m.every = 0 then writer_step m;
        install m pid ~dirty:false);
    if pin then Option.iter (fun f -> f.pins <- f.pins + 1) (frame m pid)

  let mark_dirty m pid =
    Option.iter
      (fun f ->
        m.ticks <- m.ticks + 1;
        if not f.dirty then begin
          f.dirty <- true;
          f.epoch <- m.cur_epoch;
          f.dirtied_at <- m.ticks
        end)
      (frame m pid)

  let checkpoint m =
    m.cur_epoch <- not m.cur_epoch;
    Array.iter (fun f -> if f.pid >= 0 && f.dirty && f.epoch <> m.cur_epoch then flush m f) m.frames
end

type pool_op =
  | Get of int
  | Get_pin of int
  | Mark of int  (* the n-th cached page in pid order, modulo their number *)
  | Unpin of int  (* the n-th pinned page, modulo their number *)
  | Install of int  (* a dirty image *)
  | Flush of int  (* as [Mark] *)
  | Checkpoint

let show_pool_op = function
  | Get p -> Printf.sprintf "get %d" p
  | Get_pin p -> Printf.sprintf "get~pin %d" p
  | Mark n -> Printf.sprintf "mark #%d" n
  | Unpin n -> Printf.sprintf "unpin #%d" n
  | Install p -> Printf.sprintf "install %d" p
  | Flush n -> Printf.sprintf "flush #%d" n
  | Checkpoint -> "checkpoint"

let writer_case_gen =
  let open QCheck2.Gen in
  let* capacity = 4 -- 64 and* every = 1 -- 3 and* min_age = 0 -- 50 in
  let pid = 0 -- ((2 * capacity) - 1) in
  let op =
    frequency
      [
        (6, map (fun p -> Get p) pid);
        (2, map (fun p -> Get_pin p) pid);
        (6, map (fun n -> Mark n) nat);
        (1, map (fun n -> Unpin n) nat);
        (1, map (fun p -> Install p) pid);
        (1, map (fun n -> Flush n) nat);
        (1, pure Checkpoint);
      ]
  in
  let+ ops = list_size (50 -- 600) op in
  (capacity, every, min_age, ops)

let show_writer_case (capacity, every, min_age, ops) =
  Printf.sprintf "capacity %d, every %d, min_age %d: %s" capacity every min_age
    (String.concat "; " (List.map show_pool_op ops))

(* Drive the pool and [Ref] side by side.  A pin is taken only while at
   least two frames stay unpinned, so eviction always finds a victim. *)
let writer_matches_full_sweep (capacity, every, min_age, ops) =
  let e =
    make ~capacity ~pages:(2 * capacity) ~lazy_writer_every:every ~lazy_writer_min_age:min_age ()
  in
  let m = Ref.create ~capacity ~every ~min_age in
  let pinned = ref [] in
  let nth_cached n =
    let pids = List.sort Int.compare (Hashtbl.fold (fun pid _ l -> pid :: l) m.Ref.by_pid []) in
    List.nth_opt pids (n mod Stdlib.max 1 (List.length pids))
  in
  let lsn = ref 0 in
  List.iter
    (fun op ->
      match op with
      | Get pid ->
          ignore (Pool.get e.pool pid);
          Ref.get m ~pin:false pid
      | Get_pin pid ->
          if List.length !pinned < capacity - 2 then begin
            ignore (Pool.get e.pool ~pin:true pid);
            Ref.get m ~pin:true pid;
            pinned := pid :: !pinned
          end
      | Mark n ->
          Option.iter
            (fun pid ->
              incr lsn;
              Pool.mark_dirty e.pool ~pid ~lsn:!lsn;
              Ref.mark_dirty m pid)
            (nth_cached n)
      | Unpin n -> (
          match !pinned with
          | [] -> ()
          | l ->
              let pid = List.nth l (n mod List.length l) in
              Pool.unpin e.pool pid;
              Option.iter (fun f -> f.Ref.pins <- f.Ref.pins - 1) (Ref.frame m pid);
              let rec drop = function [] -> [] | p :: r -> if p = pid then r else p :: drop r in
              pinned := drop !pinned)
      | Install pid ->
          let page = Page.create ~page_size:256 ~pid Page.Meta in
          incr lsn;
          Page.set_plsn page !lsn;
          Pool.install e.pool page ~dirty:true;
          Ref.install m pid ~dirty:true
      | Flush n ->
          Option.iter
            (fun pid ->
              Pool.flush_page e.pool pid;
              Option.iter (fun f -> if f.Ref.dirty then Ref.flush m f) (Ref.frame m pid))
            (nth_cached n)
      | Checkpoint ->
          Pool.begin_checkpoint_epoch e.pool;
          Pool.flush_previous_epoch e.pool;
          Ref.checkpoint m)
    ops;
  let c = Pool.counters e.pool in
  if !(e.flush_events) <> m.Ref.flushed then
    QCheck2.Test.fail_reportf "flushes: pool %s, full sweep %s"
      (String.concat "," (List.rev_map string_of_int !(e.flush_events)))
      (String.concat "," (List.rev_map string_of_int m.Ref.flushed));
  (c.Pool.hits, c.Pool.misses, c.Pool.evictions, c.Pool.flushes)
  = (m.Ref.hits, m.Ref.misses, m.Ref.evictions, List.length m.Ref.flushed)

let prop_writer_matches_full_sweep =
  QCheck2.Test.make ~name:"lazy writer flushes what a full sweep would" ~count:300
    ~print:show_writer_case writer_case_gen writer_matches_full_sweep

let suite =
  [
    Alcotest.test_case "hit/miss" `Quick test_hit_miss;
    Alcotest.test_case "eviction capacity" `Quick test_eviction_capacity;
    Alcotest.test_case "dirty/flush cycle" `Quick test_dirty_flush_cycle;
    Alcotest.test_case "eviction flushes dirty" `Quick test_eviction_flushes_dirty;
    Alcotest.test_case "pin prevents eviction" `Quick test_pin_prevents_eviction;
    Alcotest.test_case "all pinned fails" `Quick test_all_pinned_fails;
    Alcotest.test_case "checkpoint epochs" `Quick test_checkpoint_epochs;
    Alcotest.test_case "prefetch" `Quick test_prefetch;
    Alcotest.test_case "prefetch budget" `Quick test_prefetch_budget;
    Alcotest.test_case "completed prefetch is free" `Quick test_prefetch_completed_is_free;
    Alcotest.test_case "install replaces" `Quick test_install_replaces;
    Alcotest.test_case "lazy writer" `Quick test_lazy_writer;
    Alcotest.test_case "dirty pids" `Quick test_dirty_pids;
    Alcotest.test_case "dirty count tracks frames" `Quick test_dirty_count_tracks_frames;
    Alcotest.test_case "clean writer step keeps the hand" `Quick test_clean_writer_step_keeps_hand;
    Alcotest.test_case "idle writer wakes" `Quick test_idle_writer_wakes;
    Alcotest.test_case "clean miss allocation" `Quick test_clean_miss_allocation;
    Alcotest.test_case "hit and re-mark allocate nothing" `Quick test_hit_and_remark_allocation;
    Env.qcheck prop_writer_matches_full_sweep;
  ]
