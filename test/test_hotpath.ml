(* Hot-path optimisations: word-wide FNV equivalence, copy-on-write page
   sharing discipline, the allocation-lean WAL codec, the log's verified
   watermark, and per-lane in-flight accounting.  These pin the invariants
   the wall-clock pass leans on — every one of them is a "fast path must
   equal slow path" property. *)

module Fnv = Deut_storage.Fnv
module Page = Deut_storage.Page
module Page_store = Deut_storage.Page_store
module Pool = Deut_buffer.Buffer_pool
module Codec = Deut_wal.Codec
module Lr = Deut_wal.Log_record
module Log = Deut_wal.Log_manager
module Clock = Deut_sim.Clock
module Disk = Deut_sim.Disk

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* qcheck: the word-wide FNV fold equals the byte-wise reference on every
   buffer, sub-range, and chained init — including ranges that start and
   end unaligned and tails shorter than a word. *)
let fnv_case_gen =
  let open QCheck2.Gen in
  let* n = 0 -- 300 in
  let* bytes = string_size (return n) in
  let* off = 0 -- n in
  let* len = 0 -- (n - off) in
  let* init = oneof [ return Fnv.seed; 0 -- 0xFFFFFFFF ] in
  return (Bytes.of_string bytes, off, len, init)

let prop_fnv_word_eq_byte =
  QCheck2.Test.make ~name:"word-wide FNV equals byte-wise reference" ~count:1000
    fnv_case_gen (fun (buf, off, len, init) ->
      Fnv.fold buf ~off ~len ~init = Fnv.fold_ref buf ~off ~len ~init)

let test_fnv_bounds () =
  let buf = Bytes.create 16 in
  List.iter
    (fun (off, len) ->
      try
        ignore (Fnv.fold buf ~off ~len ~init:Fnv.seed);
        Alcotest.fail "out-of-bounds range must raise"
      with Invalid_argument _ -> ())
    [ (-1, 4); (0, 17); (12, 5); (0, -1) ]

(* Golden FNV values, fixed independently of [fold_ref]: a change that
   alters [fold] and the reference together still fails here. *)
let test_fnv_golden () =
  let buf = Bytes.init 8192 (fun i -> Char.chr ((i * 31 + 7) land 0xff)) in
  check_int "whole page" 0x3fa01dc5 (Fnv.sub buf ~off:0 ~len:8192);
  check_int "unaligned sub-range" 0x0fab2367 (Fnv.sub buf ~off:3 ~len:13)

(* qcheck: the size computed without encoding matches the encoding, and both
   encode paths (fresh string, reusable scratch writer) agree; decode_sub
   reads the record in place at an arbitrary offset. *)
let record_gen =
  let open QCheck2.Gen in
  let op = oneofl [ Lr.Insert; Lr.Update; Lr.Delete ] in
  let opt_str = option (string_size (0 -- 64)) in
  let* txn = 0 -- 1000 and* table = 0 -- 10 and* key = int and* o = op in
  let* before = opt_str and* after = opt_str and* pid = 0 -- 1_000_000 and* prev = -1 -- 10000 in
  return (Lr.Update_rec { txn; table; key; op = o; before; after; pid_hint = pid; prev_lsn = prev })

let prop_encode_paths_agree =
  let scratch = Codec.writer () in
  QCheck2.Test.make ~name:"encoded_size / encode_into / decode_sub agree with encode"
    ~count:500 record_gen (fun r ->
      let s = Lr.encode r in
      Codec.clear scratch;
      Lr.encode_into scratch r;
      let len = String.length s in
      let padded = Bytes.make (len + 13) '\xAA' in
      Bytes.blit_string s 0 padded 7 len;
      Lr.encoded_size r = len
      && Codec.contents scratch = s
      && Lr.decode_sub padded ~pos:7 ~len = r)

(* COW sharing discipline: a page fetched from the store borrows the stable
   image; the first mutation unshares it, so neither side ever observes the
   other's writes. *)
let test_cow_read_isolation () =
  let s = Page_store.create ~page_size:128 in
  let pid = Page_store.allocate s Page.Btree_leaf in
  let p = Page.create ~page_size:128 ~pid Page.Btree_leaf in
  Page.set_bytes p ~off:32 "original";
  Page_store.write s p;
  let borrowed = Page_store.read s pid in
  check "fetched page is a borrow" true (Page.is_borrowed borrowed);
  check_str "borrow reads the image" "original" (Page.get_bytes borrowed ~off:32 ~len:8);
  (* Mutating the borrow must not leak into the stable image... *)
  Page.set_bytes borrowed ~off:32 "mutated!";
  check "mutation unshared the page" false (Page.is_borrowed borrowed);
  check_str "stable image untouched" "original"
    (Page.get_bytes (Page_store.read s pid) ~off:32 ~len:8);
  (* ...and the stable image still passes its checksum after the scare. *)
  check "stable image still verifies" true (Page.checksum_ok (Page_store.read s pid))

let test_cow_two_borrows_independent () =
  let s = Page_store.create ~page_size:128 in
  let pid = Page_store.allocate s Page.Meta in
  let p = Page.create ~page_size:128 ~pid Page.Meta in
  Page.set_u16 p 32 7;
  Page_store.write s p;
  let a = Page_store.read s pid and b = Page_store.read s pid in
  Page.set_u16 a 32 8;
  check_int "sibling borrow unaffected" 7 (Page.get_u16 b 32);
  check_int "writer sees its own write" 8 (Page.get_u16 a 32)

let test_stable_image_not_aliased () =
  (* stable_image hands the store a private copy: mutating the source page
     afterwards must not bend the filed image. *)
  let p = Page.create ~page_size:128 ~pid:0 Page.Meta in
  Page.set_u16 p 32 1;
  let img = Page.stable_image p in
  Page.set_u16 p 32 2;
  let reread = Page.borrow ~pid:0 img in
  check_int "image frozen at write time" 1 (Page.get_u16 reread 32);
  check "image carries a valid stamp" true (Page.checksum_ok reread)

(* The verified watermark must not outlive the bytes it vouches for:
   corruption injected behind it is still detected, both in the live log
   and in crash copies. *)
let test_watermark_corruption_still_detected () =
  let log = Log.create ~page_size:4096 in
  let l1 = Log.append log (Lr.Commit { txn = 1 }) in
  let _l2 = Log.append log (Lr.Commit { txn = 2 }) in
  Log.force log;
  (* Verify everything once — the watermark now covers both records. *)
  Log.iter log ~from:(-1) (fun _ _ -> ());
  Log.corrupt_for_test log l1;
  (try
     ignore (Log.read_at log l1);
     Alcotest.fail "corruption behind the watermark must be detected"
   with Log.Corrupt_record l -> check_int "corrupt lsn reported" l1 l);
  (* A crash copy of a corrupted log detects it too. *)
  let log2 = Log.create ~page_size:4096 in
  let m1 = Log.append log2 (Lr.Commit { txn = 1 }) in
  Log.force log2;
  Log.iter log2 ~from:(-1) (fun _ _ -> ());
  Log.corrupt_for_test log2 m1;
  let crashed = Log.crash log2 in
  (try
     ignore (Log.read_at crashed m1);
     Alcotest.fail "crash copy must re-detect corruption"
   with Log.Corrupt_record _ -> ())

let test_watermark_reads_stay_correct () =
  (* Repeat reads (the first verifies, the rest ride the watermark) return
     identical records. *)
  let log = Log.create ~page_size:4096 in
  let records =
    [ Lr.Commit { txn = 1 }; Lr.Begin_ckpt; Lr.Abort { txn = 2 }; Lr.Commit { txn = 3 } ]
  in
  let lsns = List.map (Log.append log) records in
  List.iter2
    (fun lsn r ->
      let first, _ = Log.read_at log lsn in
      let second, _ = Log.read_at log lsn in
      check "first read decodes" true (first = r);
      check "watermarked read agrees" true (second = r))
    lsns records

(* Per-lane in-flight accounting: lanes partition the total. *)
let make_pool ~capacity ~pages =
  let clock = Clock.create () in
  let disk = Disk.create clock in
  let store = Page_store.create ~page_size:256 in
  let pool = Pool.create ~capacity ~store ~disk ~clock () in
  for _ = 1 to pages do
    let pid = Page_store.allocate store Page.Meta in
    let p = Page.create ~page_size:256 ~pid Page.Meta in
    Page_store.write store p
  done;
  pool

let test_per_lane_in_flight () =
  let pool = make_pool ~capacity:16 ~pages:16 in
  Pool.prefetch pool ~lane:1 [ 0; 1; 2 ];
  Pool.prefetch pool ~lane:2 [ 3; 4 ];
  check_int "lane 1" 3 (Pool.in_flight_count ~lane:1 pool);
  check_int "lane 2" 2 (Pool.in_flight_count ~lane:2 pool);
  check_int "idle lane" 0 (Pool.in_flight_count ~lane:0 pool);
  check_int "lanes sum to total" 5 (Pool.in_flight_count pool);
  (* Claiming a page decrements its issuing lane only. *)
  ignore (Pool.get pool 3);
  check_int "lane 2 drained by one" 1 (Pool.in_flight_count ~lane:2 pool);
  check_int "lane 1 untouched" 3 (Pool.in_flight_count ~lane:1 pool);
  check_int "total follows" 4 (Pool.in_flight_count pool);
  ignore (Pool.get pool 0);
  ignore (Pool.get pool 1);
  ignore (Pool.get pool 2);
  ignore (Pool.get pool 4);
  check_int "all drained" 0 (Pool.in_flight_count pool);
  check_int "lane 1 drained" 0 (Pool.in_flight_count ~lane:1 pool);
  check_int "lane 2 drained" 0 (Pool.in_flight_count ~lane:2 pool)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_fnv_word_eq_byte;
    Alcotest.test_case "fnv bounds checks" `Quick test_fnv_bounds;
    Alcotest.test_case "fnv golden values" `Quick test_fnv_golden;
    QCheck_alcotest.to_alcotest prop_encode_paths_agree;
    Alcotest.test_case "cow read isolation" `Quick test_cow_read_isolation;
    Alcotest.test_case "cow sibling borrows" `Quick test_cow_two_borrows_independent;
    Alcotest.test_case "stable image not aliased" `Quick test_stable_image_not_aliased;
    Alcotest.test_case "watermark: corruption detected" `Quick test_watermark_corruption_still_detected;
    Alcotest.test_case "watermark: reads stay correct" `Quick test_watermark_reads_stay_correct;
    Alcotest.test_case "per-lane in-flight counters" `Quick test_per_lane_in_flight;
  ]
