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
  ignore (Pool.get e.pool 3);
  check_int "then a hit" 1 c.Pool.hits;
  check_int "still one miss" 1 c.Pool.misses;
  check "hit is free" true (c.Pool.stall_us > 0.0);
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
  check "dirty" true (Pool.is_dirty e.pool 1);
  check_int "dirty count" 1 (Pool.dirty_count e.pool);
  Alcotest.(check (list (pair int int))) "dirty event fired" [ (1, 50) ] !(e.dirty_events);
  (* Re-dirtying does not fire another event but raises the pLSN. *)
  Pool.mark_dirty e.pool ~pid:1 ~lsn:70;
  check_int "one dirty event only" 1 (List.length !(e.dirty_events));
  check_int "plsn raised" 70 (Page.plsn p);
  Pool.flush_page e.pool 1;
  check "clean after flush" false (Pool.is_dirty e.pool 1);
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
  check "pid 0 evicted" false (Pool.contains e.pool 0);
  check "flush event on eviction" true (List.mem 0 !(e.flush_events));
  check_int "contents survived via store" 123 (Page.get_u16 (Pool.get e.pool 0) 32)

let test_pin_prevents_eviction () =
  let e = make ~capacity:4 () in
  ignore (Pool.get e.pool ~pin:true 0);
  for pid = 1 to 12 do
    ignore (Pool.get e.pool pid)
  done;
  check "pinned page survives pressure" true (Pool.contains e.pool 0);
  Pool.unpin e.pool 0;
  for pid = 13 to 20 do
    ignore (Pool.get e.pool pid)
  done;
  check "unpinned page can go" false (Pool.contains e.pool 0);
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
  check "old epoch flushed" false (Pool.is_dirty e.pool 0);
  check "new epoch kept dirty" true (Pool.is_dirty e.pool 1)

let test_prefetch () =
  let e = make ~capacity:8 () in
  Pool.prefetch e.pool [ 2; 3; 4 ];
  check_int "in flight" 3 (Pool.in_flight_count e.pool);
  check_int "issued" 3 (Pool.counters e.pool).Pool.prefetch_issued;
  check_int "not yet cached" 0 (Pool.size e.pool);
  (* Duplicate prefetch is a no-op. *)
  Pool.prefetch e.pool [ 2; 3 ];
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
  Pool.prefetch e.pool [ 2; 3; 4; 5; 6; 7 ];
  check "prefetch bounded by free space"  true (Pool.in_flight_count e.pool <= 2)

let test_prefetch_completed_is_free () =
  let e = make ~capacity:8 () in
  Pool.prefetch e.pool [ 5 ];
  Disk.drain e.disk;
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
  check "installed dirty" true (Pool.is_dirty e.pool 2);
  check "dirty event for install" true (List.mem_assoc 2 !(e.dirty_events))

let test_lazy_writer () =
  (* Writer flushes one aged dirty page per miss. *)
  let e = make ~capacity:8 ~lazy_writer_every:1 ~lazy_writer_min_age:2 () in
  ignore (Pool.get e.pool 0);
  Pool.mark_dirty e.pool ~pid:0 ~lsn:1;
  (* Not aged yet: a miss must not flush it. *)
  ignore (Pool.get e.pool 1);
  check "young page not flushed" true (Pool.is_dirty e.pool 0);
  (* Age it with two more update ticks elsewhere. *)
  Pool.mark_dirty e.pool ~pid:1 ~lsn:2;
  Pool.mark_dirty e.pool ~pid:1 ~lsn:3;
  ignore (Pool.get e.pool 2);
  check "aged page flushed by writer" false (Pool.is_dirty e.pool 0);
  (* Disabled writer does nothing. *)
  Pool.set_lazy_writer_enabled e.pool false;
  Pool.mark_dirty e.pool ~pid:2 ~lsn:4;
  Pool.mark_dirty e.pool ~pid:2 ~lsn:5;
  Pool.mark_dirty e.pool ~pid:2 ~lsn:6;
  ignore (Pool.get e.pool 3);
  ignore (Pool.get e.pool 4);
  check "disabled writer leaves dirt" true (Pool.is_dirty e.pool 1 && Pool.is_dirty e.pool 2)

let test_dirty_pids () =
  let e = make ~capacity:8 () in
  ignore (Pool.get e.pool 1);
  ignore (Pool.get e.pool 2);
  Pool.mark_dirty e.pool ~pid:1 ~lsn:1;
  Pool.mark_dirty e.pool ~pid:2 ~lsn:2;
  Alcotest.(check (list int)) "dirty pids" [ 1; 2 ] (List.sort compare (Pool.dirty_pids e.pool))

(* The O(1) dirty counter must agree with the frames after every kind of
   clean<->dirty transition: misses (evictions, lazy-writer flushes),
   allocation, dirtying, clean and dirty installs, and every flush path. *)
let test_dirty_count_tracks_frames () =
  let e = make ~capacity:8 ~pages:32 ~lazy_writer_every:2 ~lazy_writer_min_age:1 () in
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
        if Pool.contains e.pool pid then Pool.mark_dirty e.pool ~pid ~lsn:(next_lsn ())
    | 5 ->
        let pid = seeded () in
        let page = Page.create ~page_size:256 ~pid Page.Meta in
        Page.set_plsn page (next_lsn ());
        Pool.install e.pool page ~dirty:(Random.State.bool rng)
    | 6 ->
        let pid = any () in
        if Pool.contains e.pool pid then Pool.flush_page e.pool pid
    | 7 -> ignore (Pool.flush_one_dirty e.pool)
    | 8 ->
        Pool.begin_checkpoint_epoch e.pool;
        Pool.flush_previous_epoch e.pool
    | _ -> if Random.State.int rng 4 = 0 then Pool.flush_all_dirty e.pool);
    let frames = List.length (Pool.dirty_pids e.pool) in
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
  ]
