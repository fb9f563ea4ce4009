(* Range scans: the cursor over the leaf sibling chain, and the Db-level
   scan API. *)

module Db = Deut_core.Db
module Config = Deut_core.Config
module Btree = Deut_btree.Btree
module Cursor = Deut_btree.Cursor
module Lr = Deut_wal.Log_record
module Log = Deut_wal.Log_manager
module Pool = Deut_buffer.Buffer_pool
module Page_store = Deut_storage.Page_store

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Standalone tree harness (same contract as test_btree). *)
let make_tree () =
  let clock = Deut_sim.Clock.create () in
  let disk = Deut_sim.Disk.create clock in
  let store = Page_store.create ~page_size:256 in
  let pool = Pool.create ~capacity:64 ~store ~disk ~clock () in
  let log = Log.create ~page_size:256 in
  let log_smo smo =
    let lsn = Log.append log (Lr.Smo smo) in
    Btree.stamp_smo pool smo ~lsn;
    lsn
  in
  Btree.format_store ~pool ~log_smo;
  Btree.create ~pool ~table:1 ~log_smo ()

let lsn = ref 0

let insert tree ~key ~value =
  match Btree.prepare_write tree ~key ~op:Lr.Insert ~value_len:(String.length value) with
  | Btree.Leaf { pid; _ } ->
      incr lsn;
      Btree.apply_insert tree ~pid ~key ~value ~lsn:!lsn
  | _ -> Alcotest.fail "insert rejected"

let delete tree ~key =
  match Btree.prepare_write tree ~key ~op:Lr.Delete ~value_len:0 with
  | Btree.Leaf { pid; _ } ->
      incr lsn;
      Btree.apply_delete tree ~pid ~key ~lsn:!lsn
  | _ -> Alcotest.fail "delete rejected"

let test_empty_tree () =
  let tree = make_tree () in
  let c = Cursor.first tree in
  check "empty tree: exhausted" false (Cursor.is_valid c);
  Cursor.next c;
  check "next on exhausted is a no-op" false (Cursor.is_valid c);
  Cursor.close c;
  (try
     ignore (Cursor.key c);
     Alcotest.fail "key on closed cursor must raise"
   with Invalid_argument _ -> ());
  check_int "empty range" 0 (Cursor.count_range tree ~lo:0 ~hi:100)

let test_full_scan_order () =
  let tree = make_tree () in
  (* Multi-leaf tree: every third key. *)
  for i = 0 to 599 do
    insert tree ~key:(3 * i) ~value:(string_of_int i)
  done;
  let c = Cursor.first tree in
  let n = ref 0 in
  while Cursor.is_valid c do
    check_int "keys in order" (3 * !n) (Cursor.key c);
    check "value matches" true (Cursor.value c = string_of_int !n);
    incr n;
    Cursor.next c
  done;
  Cursor.close c;
  check_int "all entries scanned" 600 !n

let test_seek_semantics () =
  let tree = make_tree () in
  for i = 0 to 99 do
    insert tree ~key:(10 * i) ~value:"v"
  done;
  let c = Cursor.seek tree ~key:55 in
  check_int "seek lands on next larger key" 60 (Cursor.key c);
  Cursor.close c;
  let c = Cursor.seek tree ~key:60 in
  check_int "seek exact hit" 60 (Cursor.key c);
  Cursor.close c;
  let c = Cursor.seek tree ~key:991 in
  check "seek past the end" false (Cursor.is_valid c);
  Cursor.close c

let test_range_bounds () =
  let tree = make_tree () in
  for i = 0 to 199 do
    insert tree ~key:i ~value:(string_of_int (i * i))
  done;
  check_int "half-open range" 10 (Cursor.count_range tree ~lo:20 ~hi:30);
  check_int "lo inclusive" 1 (Cursor.count_range tree ~lo:0 ~hi:1);
  check_int "empty when lo = hi" 0 (Cursor.count_range tree ~lo:50 ~hi:50);
  check_int "clipped at the end" 50 (Cursor.count_range tree ~lo:150 ~hi:10_000);
  let sum = Cursor.fold_range tree ~lo:10 ~hi:13 ~init:0 ~f:(fun acc _ v -> acc + int_of_string v) in
  check_int "fold_range values" (100 + 121 + 144) sum

let test_scan_skips_deleted_and_empty_leaves () =
  let tree = make_tree () in
  for i = 0 to 299 do
    insert tree ~key:i ~value:"x"
  done;
  (* Hollow out a whole key region, leaving empty leaves in the chain. *)
  for i = 60 to 239 do
    delete tree ~key:i
  done;
  let keys =
    List.rev (Cursor.fold_range tree ~lo:0 ~hi:1000 ~init:[] ~f:(fun acc k _ -> k :: acc))
  in
  check_int "survivors" 120 (List.length keys);
  check "gap skipped" true (not (List.mem 100 keys));
  check "resumes after the gap" true (List.mem 240 keys);
  match Btree.check_tree tree with Ok () -> () | Error e -> Alcotest.fail e

let test_db_scan_api () =
  let config = { Env.config with Config.page_size = 1024; pool_pages = 32 } in
  let db = Db.create ~config () in
  Db.create_table db ~table:1;
  for k = 0 to 499 do
    Db.put db ~table:1 ~key:k ~value:(Printf.sprintf "v%d" k)
  done;
  let entries = Db.scan db ~table:1 ~lo:100 ~hi:105 in
  Alcotest.(check (list (pair int string)))
    "db scan"
    [ (100, "v100"); (101, "v101"); (102, "v102"); (103, "v103"); (104, "v104") ]
    entries;
  (* Scans work on a recovered database too. *)
  Db.checkpoint db;
  let image = Db.crash db in
  let recovered, _ = Db.recover image Deut_core.Recovery.Log2 in
  Alcotest.(check (list (pair int string))) "scan after recovery" entries
    (Db.scan recovered ~table:1 ~lo:100 ~hi:105)

(* qcheck: fold_range over a tree built from random ops agrees with the
   filtered full dump. *)
let range_model_gen =
  let open QCheck2.Gen in
  let* keys = list_size (0 -- 150) (0 -- 200) in
  let* deletions = list_size (0 -- 60) (0 -- 200) in
  let* lo = 0 -- 220 and* span = 0 -- 100 in
  return (keys, deletions, lo, lo + span)

let prop_range_model =
  QCheck2.Test.make ~name:"fold_range agrees with filtered dump" ~count:100 range_model_gen
    (fun (keys, deletions, lo, hi) ->
      let tree = make_tree () in
      List.iter
        (fun k ->
          match Btree.prepare_write tree ~key:k ~op:Lr.Insert ~value_len:4 with
          | Btree.Leaf { pid; _ } ->
              incr lsn;
              Btree.apply_insert tree ~pid ~key:k ~value:(Printf.sprintf "%04d" k) ~lsn:!lsn
          | Btree.Duplicate_key -> ()
          | Btree.Missing_key -> assert false)
        keys;
      List.iter
        (fun k ->
          match Btree.prepare_write tree ~key:k ~op:Lr.Delete ~value_len:0 with
          | Btree.Leaf { pid; _ } ->
              incr lsn;
              Btree.apply_delete tree ~pid ~key:k ~lsn:!lsn
          | Btree.Missing_key -> ()
          | Btree.Duplicate_key -> assert false)
        deletions;
      let via_cursor =
        List.rev (Cursor.fold_range tree ~lo ~hi ~init:[] ~f:(fun acc k v -> (k, v) :: acc))
      in
      let via_dump =
        List.rev (Btree.fold_entries tree ~init:[] ~f:(fun acc k v -> (k, v) :: acc))
        |> List.filter (fun (k, _) -> k >= lo && k < hi)
      in
      via_cursor = via_dump)

let suite =
  [
    Alcotest.test_case "empty tree" `Quick test_empty_tree;
    Alcotest.test_case "full scan order" `Quick test_full_scan_order;
    Alcotest.test_case "seek semantics" `Quick test_seek_semantics;
    Alcotest.test_case "range bounds" `Quick test_range_bounds;
    Alcotest.test_case "deleted regions skipped" `Quick test_scan_skips_deleted_and_empty_leaves;
    Alcotest.test_case "db scan api" `Quick test_db_scan_api;
    QCheck_alcotest.to_alcotest prop_range_model;
  ]
