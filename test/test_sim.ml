(* Simulation substrate: clock, rng, ivec, disk model. *)

module Clock = Deut_sim.Clock
module Rng = Deut_sim.Rng
module Ivec = Deut_sim.Ivec
module Disk = Deut_sim.Disk

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

let test_clock () =
  let c = Clock.create () in
  check_float "starts at zero" 0.0 (Clock.now c);
  Clock.advance c 100.0;
  check_float "advance" 100.0 (Clock.now c);
  Clock.advance_to c 50.0;
  check_float "advance_to past is a no-op" 100.0 (Clock.now c);
  Clock.advance_to c 250.0;
  check_float "advance_to future" 250.0 (Clock.now c);
  check_float "ms" 0.25 (Clock.now_ms c);
  (try
     Clock.advance c (-1.0);
     Alcotest.fail "negative advance accepted"
   with Invalid_argument _ -> ())

let test_rng_determinism () =
  let a = Rng.create ~seed:9 and b = Rng.create ~seed:9 in
  for _ = 1 to 100 do
    check_int "same seed, same stream" (Rng.int a 1_000_000) (Rng.int b 1_000_000)
  done;
  let c = Rng.create ~seed:10 in
  let differs = ref false in
  for _ = 1 to 20 do
    if Rng.int a 1_000_000 <> Rng.int c 1_000_000 then differs := true
  done;
  check "different seeds differ" true !differs

(* The stream is splitmix64's: seed 0 yields the generator's published
   first outputs (0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4,
   0x06c45d188009454f), whatever the state's representation.  [Rng.int]
   keeps the top 63 bits, so [bound = max_int] shows them reduced mod
   2^62 - 1. *)
let test_rng_splitmix64_vectors () =
  let r = Rng.create ~seed:0 in
  List.iter
    (fun expected -> check_int "splitmix64, seed 0" expected (Rng.int r max_int))
    [ 3535418189901915864; 3980143261097177850; 243808509735772839 ]

let test_rng_bounds () =
  let r = Rng.create ~seed:1 in
  for _ = 1 to 10_000 do
    let v = Rng.int r 7 in
    check "int in bounds" true (v >= 0 && v < 7);
    let f = Rng.float r 3.0 in
    check "float in bounds" true (f >= 0.0 && f < 3.0)
  done;
  (try
     ignore (Rng.int r 0);
     Alcotest.fail "zero bound accepted"
   with Invalid_argument _ -> ())

let test_rng_uniformity () =
  let r = Rng.create ~seed:2 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let k = Rng.int r 10 in
    buckets.(k) <- buckets.(k) + 1
  done;
  Array.iteri
    (fun i count ->
      let expected = n / 10 in
      if abs (count - expected) > expected / 5 then
        Alcotest.failf "bucket %d badly skewed: %d vs %d" i count expected)
    buckets

let test_zipf () =
  let r = Rng.create ~seed:3 in
  let dist = Rng.Zipf.create ~n:100 ~theta:0.99 in
  let counts = Array.make 100 0 in
  for _ = 1 to 50_000 do
    let k = Rng.Zipf.sample r dist in
    check "zipf in bounds" true (k >= 0 && k < 100);
    counts.(k) <- counts.(k) + 1
  done;
  check "zipf head heavier than tail" true (counts.(0) > 10 * counts.(99));
  check "zipf roughly monotone" true (counts.(0) > counts.(10) && counts.(10) > counts.(90));
  (* theta = 0 degenerates to uniform *)
  let flat = Rng.Zipf.create ~n:10 ~theta:0.0 in
  let c2 = Array.make 10 0 in
  for _ = 1 to 50_000 do
    let k = Rng.Zipf.sample r flat in
    c2.(k) <- c2.(k) + 1
  done;
  Array.iter (fun c -> check "theta=0 uniform-ish" true (abs (c - 5000) < 1000)) c2

(* [split] derives an independent generator: drawing from the child does not
   move the parent, and the same parent state splits the same child. *)
let test_rng_split () =
  let a = Rng.create ~seed:4 and b = Rng.create ~seed:4 in
  let child_a = Rng.split a and child_b = Rng.split b in
  let draws r = List.init 20 (fun _ -> Rng.int r 1_000_000) in
  let from_child = draws child_a in
  let from_parent = draws a in
  Alcotest.(check (list int)) "the child leaves the parent's stream alone" from_parent (draws b);
  Alcotest.(check (list int)) "same parent, same child" from_child (draws child_b);
  check "child differs from parent" true (from_child <> from_parent)

let test_ivec () =
  let v = Ivec.create ~capacity:2 () in
  check "empty" true (Ivec.is_empty v);
  for i = 0 to 99 do
    Ivec.push v (i * 2)
  done;
  check_int "length" 100 (Ivec.length v);
  Alcotest.(check (array int)) "to_array" (Array.init 100 (fun i -> 2 * i)) (Ivec.to_array v);
  Ivec.clear v;
  check "cleared" true (Ivec.is_empty v)

let params =
  { Disk.seek_us = 1000.0; transfer_us = 100.0; sequential_gap = 1; batch_seek_factor = 0.5 }

let test_disk_sync_read () =
  let clock = Clock.create () in
  let d = Disk.create ~params clock in
  Clock.advance_to clock (Disk.submit_read d ~pid:10);
  check_float "seek + transfer" 1100.0 (Clock.now clock);
  (* Sequential follow-up: no seek. *)
  Clock.advance_to clock (Disk.submit_read d ~pid:11);
  check_float "sequential read skips seek" 1200.0 (Clock.now clock);
  Clock.advance_to clock (Disk.submit_read d ~pid:500);
  check_float "random read seeks" 2300.0 (Clock.now clock);
  let c = Disk.counters d in
  check_int "pages read" 3 c.Disk.pages_read;
  check_int "seeks" 2 c.Disk.seeks;
  check_int "sequential" 1 c.Disk.sequential_requests

let test_disk_async_queueing () =
  let clock = Clock.create () in
  let d = Disk.create ~params clock in
  let c1 = Disk.submit_read d ~pid:5 in
  let c2 = Disk.submit_read d ~pid:200 in
  check_float "first completion" 1100.0 c1;
  (* The second request arrives while the disk is busy, so its positioning
     is elevator-scheduled: 1100 + 0.5 x 1000 seek + 100 transfer. *)
  check_float "second queues behind first at the batch seek" 1700.0 c2;
  check_float "clock does not advance on submit" 0.0 (Clock.now clock)

let test_disk_batch_read () =
  let clock = Clock.create () in
  let d = Disk.create ~params clock in
  (* Unsorted input; contiguous pairs coalesce after sorting. *)
  let c = Disk.submit_batch_read d [ 101; 40; 100; 300 ] in
  (* Sorted: 40 (batch seek), 100 (batch seek), 101 (sequential), 300
     (batch seek): 3 × 500 + 4 × 100 = 1900. *)
  check_float "elevator-order service" 1900.0 c;
  check_int "batch pages" 4 (Disk.counters d).Disk.pages_read;
  let idle = Disk.submit_batch_read d [] in
  check_float "empty batch completes when the queue drains" c idle

let test_disk_write_delays_read () =
  let clock = Clock.create () in
  let d = Disk.create ~params clock in
  ignore (Disk.submit_write d ~pid:7);
  Clock.advance_to clock (Disk.submit_read d ~pid:900);
  (* Queued behind the in-flight write: elevator seek, not a cold one. *)
  check_float "read queues behind write" 1700.0 (Clock.now clock)

let suite =
  [
    Alcotest.test_case "clock" `Quick test_clock;
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng splitmix64 vectors" `Quick test_rng_splitmix64_vectors;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng uniformity" `Quick test_rng_uniformity;
    Alcotest.test_case "zipf" `Quick test_zipf;
    Alcotest.test_case "rng split" `Quick test_rng_split;
    Alcotest.test_case "ivec" `Quick test_ivec;
    Alcotest.test_case "disk sync read" `Quick test_disk_sync_read;
    Alcotest.test_case "disk async queueing" `Quick test_disk_async_queueing;
    Alcotest.test_case "disk batch read" `Quick test_disk_batch_read;
    Alcotest.test_case "disk write delays read" `Quick test_disk_write_delays_read;
  ]
