(* Hot-path optimisations: the checksum's fast fold and its bit-flip
   detection, copy-on-write page
   sharing discipline, the allocation-lean WAL codec, the log's verified
   watermark, and per-lane in-flight accounting.  These pin the invariants
   the wall-clock pass leans on — every one of them is a "fast path must
   equal slow path" property. *)

module Checksum = Deut_storage.Checksum
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

(* XXH64 as the specification writes it, low 32 bits: bounds-checked
   little-endian loads, boxed arithmetic, the same stripe / 8 / 4 / 1-byte
   structure as [Checksum.fold]. *)
let xxh64_ref buf ~off ~len ~init =
  let open Int64 in
  let p1 = 0x9E3779B185EBCA87L and p2 = 0xC2B2AE3D27D4EB4FL and p3 = 0x165667B19E3779F9L in
  let p4 = 0x85EBCA77C2B2AE63L and p5 = 0x27D4EB2F165667C5L in
  let rotl x r = logor (shift_left x r) (shift_right_logical x (64 - r)) in
  let round acc input = mul (rotl (add acc (mul input p2)) 31) p1 in
  let merge acc v = add (mul (logxor acc (round 0L v)) p1) p4 in
  let seed = of_int init and stop = off + len in
  let i = ref off in
  let h =
    if len < 32 then ref (add seed p5)
    else begin
      let v = [| add seed (add p1 p2); add seed p2; seed; sub seed p1 |] in
      while !i + 32 <= stop do
        for k = 0 to 3 do
          v.(k) <- round v.(k) (Bytes.get_int64_le buf (!i + (8 * k)))
        done;
        i := !i + 32
      done;
      let h = add (add (rotl v.(0) 1) (rotl v.(1) 7)) (add (rotl v.(2) 12) (rotl v.(3) 18)) in
      ref (Array.fold_left merge h v)
    end
  in
  h := add !h (of_int len);
  while !i + 8 <= stop do
    h := add (mul (rotl (logxor !h (round 0L (Bytes.get_int64_le buf !i))) 27) p1) p4;
    i := !i + 8
  done;
  if !i + 4 <= stop then begin
    let w = logand (of_int32 (Bytes.get_int32_le buf !i)) 0xFFFFFFFFL in
    h := add (mul (rotl (logxor !h (mul w p1)) 23) p2) p3;
    i := !i + 4
  end;
  while !i < stop do
    h := mul (rotl (logxor !h (mul (of_int (Bytes.get_uint8 buf !i)) p5)) 11) p1;
    incr i
  done;
  let h = !h in
  let h = mul (logxor h (shift_right_logical h 33)) p2 in
  let h = mul (logxor h (shift_right_logical h 29)) p3 in
  to_int (logxor h (shift_right_logical h 32)) land 0xFFFFFFFF

(* qcheck: the unchecked-load fold equals the reference on every buffer,
   sub-range and chained init — including ranges that start and end
   unaligned, ranges below one stripe, and every tail length. *)
let checksum_case_gen =
  let open QCheck2.Gen in
  let* n = 0 -- 300 in
  let* bytes = string_size (return n) in
  let* off = 0 -- n in
  let* len = 0 -- (n - off) in
  let* init = oneof [ return Checksum.seed; 0 -- 0xFFFFFFFF ] in
  return (Bytes.of_string bytes, off, len, init)

let prop_checksum_eq_ref =
  QCheck2.Test.make ~name:"fast fold equals XXH64 reference" ~count:1000
    checksum_case_gen (fun (buf, off, len, init) ->
      Checksum.fold buf ~off ~len ~init = xxh64_ref buf ~off ~len ~init)

let test_checksum_bounds () =
  let buf = Bytes.create 16 in
  List.iter
    (fun (off, len) ->
      try
        ignore (Checksum.fold buf ~off ~len ~init:Checksum.seed);
        Alcotest.fail "out-of-bounds range must raise"
      with Invalid_argument _ -> ())
    [ (-1, 4); (0, 17); (12, 5); (0, -1); (max_int, 1) ]

let fixture_page () = Bytes.init 8192 (fun i -> Char.chr ((i * 31 + 7) land 0xff))

(* Golden values, fixed independently of [xxh64_ref]: the published XXH64
   seed-0 vectors (low halves of 0xef46db3751d8e999, 0xd24ec4f1a98c6e5b,
   0x44bc2cf5ad770999), then the 8 KB fixture (256 stripes through the lane
   loop) and a 13-byte sub-range (one 8-, one 4- and one 1-byte tail step). *)
let test_checksum_golden () =
  let of_string s = Checksum.sub (Bytes.of_string s) ~off:0 ~len:(String.length s) in
  check_int "empty" 0x51d8e999 (of_string "");
  check_int "a" 0xa98c6e5b (of_string "a");
  check_int "abc" 0xad770999 (of_string "abc");
  let buf = fixture_page () in
  check_int "whole page" 0x07d7338f (Checksum.sub buf ~off:0 ~len:8192);
  check_int "unaligned sub-range" 0xf549c91d (Checksum.sub buf ~off:3 ~len:13)

let flip_bits page off mask =
  let byte = Char.code (Page.get_bytes page ~off ~len:1).[0] in
  Page.set_bytes page ~off (String.make 1 (Char.chr (byte lxor mask)))

(* Every single-bit flip of a stamped 8 KB page, checksum field included,
   fails the check; flipping the bit back restores the page. *)
let test_page_bit_flips () =
  let stamped = Page.stable_image (Page.of_image ~pid:0 (Bytes.to_string (fixture_page ()))) in
  let page = Page.of_image ~pid:0 (Bytes.to_string stamped) in
  check "stamped fixture passes" true (Page.checksum_ok page);
  let missed = ref 0 in
  for bit = 0 to (8 * Page.size page) - 1 do
    let off = bit / 8 and mask = 1 lsl (bit land 7) in
    flip_bits page off mask;
    if Page.checksum_ok page then incr missed;
    flip_bits page off mask
  done;
  check_int "bit flips that pass" 0 !missed;
  check "restored page passes" true (Page.checksum_ok page)

(* Every single-bit flip in one frame's payload raises [Corrupt_record]. *)
let test_frame_bit_flips () =
  let log = Log.create ~page_size:4096 in
  let record =
    Lr.Update_rec
      {
        txn = 7;
        table = 1;
        key = 424242;
        op = Lr.Update;
        before = Some "the-value-before-the-update";
        after = Some "the-value-after-the-update!";
        pid_hint = 99;
        prev_lsn = 12;
      }
  in
  let lsn = Log.append log record in
  let payload_bits = 8 * String.length (Lr.encode record) in
  let missed = ref 0 in
  for bit = 0 to payload_bits - 1 do
    Log.corrupt_for_test ~bit log lsn;
    (match Log.read_at log lsn with
    | _ -> incr missed
    | exception Log.Corrupt_record l -> check_int "corrupt lsn reported" lsn l);
    Log.corrupt_for_test ~bit log lsn
  done;
  check_int "bit flips that read back" 0 !missed;
  check "restored frame decodes" true (fst (Log.read_at log lsn) = record)

(* qcheck: both encode paths (fresh string, reusable scratch writer)
   agree; decode_sub reads the record in place at an arbitrary offset. *)
let record_gen =
  let open QCheck2.Gen in
  let op = oneofl [ Lr.Insert; Lr.Update; Lr.Delete ] in
  let opt_str = option (string_size (0 -- 64)) in
  let* txn = 0 -- 1000 and* table = 0 -- 10 and* key = int and* o = op in
  let* before = opt_str and* after = opt_str and* pid = 0 -- 1_000_000 and* prev = -1 -- 10000 in
  return (Lr.Update_rec { txn; table; key; op = o; before; after; pid_hint = pid; prev_lsn = prev })

let prop_encode_paths_agree =
  let scratch = Codec.writer () in
  QCheck2.Test.make ~name:"encode_into / decode_sub agree with encode"
    ~count:500 record_gen (fun r ->
      let s = Lr.encode r in
      Codec.clear scratch;
      Lr.encode_into scratch r;
      let len = String.length s in
      let padded = Bytes.make (len + 13) '\xAA' in
      Bytes.blit_string s 0 padded 7 len;
      Codec.contents scratch = s
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
  check "fetched page is a borrow" true borrowed.Page.shared;
  check_str "borrow reads the image" "original" (Page.get_bytes borrowed ~off:32 ~len:8);
  (* Mutating the borrow must not leak into the stable image... *)
  Page.set_bytes borrowed ~off:32 "mutated!";
  check "mutation unshared the page" false borrowed.Page.shared;
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
  ignore (Pool.prefetch pool ~lane:1 [ 0; 1; 2 ]);
  ignore (Pool.prefetch pool ~lane:2 [ 3; 4 ]);
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
    Env.qcheck prop_checksum_eq_ref;
    Alcotest.test_case "checksum bounds checks" `Quick test_checksum_bounds;
    Alcotest.test_case "checksum golden values" `Quick test_checksum_golden;
    Alcotest.test_case "page bit flips detected" `Quick test_page_bit_flips;
    Alcotest.test_case "frame bit flips detected" `Quick test_frame_bit_flips;
    Env.qcheck prop_encode_paths_agree;
    Alcotest.test_case "cow read isolation" `Quick test_cow_read_isolation;
    Alcotest.test_case "cow sibling borrows" `Quick test_cow_two_borrows_independent;
    Alcotest.test_case "stable image not aliased" `Quick test_stable_image_not_aliased;
    Alcotest.test_case "watermark: corruption detected" `Quick test_watermark_corruption_still_detected;
    Alcotest.test_case "watermark: reads stay correct" `Quick test_watermark_reads_stay_correct;
    Alcotest.test_case "per-lane in-flight counters" `Quick test_per_lane_in_flight;
  ]
