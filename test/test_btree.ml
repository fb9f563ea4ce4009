(* B-tree: unit tests, catalog, and a qcheck model test against Map. *)

module Page = Deut_storage.Page
module Page_store = Deut_storage.Page_store
module Pool = Deut_buffer.Buffer_pool
module Btree = Deut_btree.Btree
module Catalog = Deut_btree.Catalog
module Node = Deut_btree.Node
module Lr = Deut_wal.Log_record
module Log = Deut_wal.Log_manager
module Clock = Deut_sim.Clock
module Disk = Deut_sim.Disk

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

type env = {
  pool : Pool.t;
  log : Log.t;
  mutable lsn : int;  (* fake op LSN source for apply_* calls *)
}

let make_env ?(page_size = 512) ?(capacity = 64) () =
  let clock = Clock.create () in
  let disk = Disk.create clock in
  let store = Page_store.create ~page_size in
  let pool = Pool.create ~capacity ~store ~disk ~clock () in
  let log = Log.create ~page_size in
  { pool; log; lsn = 0 }

(* The production callback lives in [Dc]; the test harness replicates its
   contract: append, then stamp + dirty the touched pages. *)
let log_smo env pool smo =
  let lsn = Log.append env.log (Lr.Smo smo) in
  Btree.stamp_smo pool smo ~lsn;
  lsn

let make_tree ?page_size ?capacity ?merge_allowed () =
  let env = make_env ?page_size ?capacity () in
  Btree.format_store ~pool:env.pool ~log_smo:(log_smo env env.pool);
  let tree =
    Btree.create ?merge_allowed ~pool:env.pool ~table:1 ~log_smo:(log_smo env env.pool) ()
  in
  (env, tree)

let check_keys = Alcotest.(check (list int))

(* Keys in leaf-chain order. *)
let keys_of tree = List.rev (Btree.fold_entries tree ~init:[] ~f:(fun acc k _ -> k :: acc))

(* Leaf pids in key order. *)
let leaf_pids tree = List.rev (Btree.fold_leaves tree ~init:[] ~f:(fun acc p -> p.Page.pid :: acc))

let next_lsn env =
  env.lsn <- env.lsn + 10;
  env.lsn

let insert env tree ~key ~value =
  match Btree.prepare_write tree ~key ~op:Lr.Insert ~value_len:(String.length value) with
  | Btree.Leaf { pid; before } ->
      check "insert has no before-image" true (before = None);
      Btree.apply_insert tree ~pid ~key ~value ~lsn:(next_lsn env)
  | Btree.Duplicate_key -> Alcotest.failf "unexpected duplicate for key %d" key
  | Btree.Missing_key -> Alcotest.fail "impossible"

let update env tree ~key ~value =
  match Btree.prepare_write tree ~key ~op:Lr.Update ~value_len:(String.length value) with
  | Btree.Leaf { pid; _ } -> Btree.apply_update tree ~pid ~key ~value ~lsn:(next_lsn env)
  | Btree.Duplicate_key -> Alcotest.fail "impossible"
  | Btree.Missing_key -> Alcotest.failf "unexpected missing key %d" key

let delete env tree ~key =
  match Btree.prepare_write tree ~key ~op:Lr.Delete ~value_len:0 with
  | Btree.Leaf { pid; _ } -> Btree.apply_delete tree ~pid ~key ~lsn:(next_lsn env)
  | Btree.Duplicate_key -> Alcotest.fail "impossible"
  | Btree.Missing_key -> Alcotest.failf "unexpected missing key %d" key

let assert_tree tree =
  match Btree.check_tree tree with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "tree invariant: %s" msg

let test_create_empty () =
  let _, tree = make_tree () in
  check_keys "empty" [] (keys_of tree);
  check_int "height 1" 1 (Btree.height tree);
  check "lookup misses" true (Btree.lookup tree ~key:5 = None);
  check "the root is the one leaf" true (leaf_pids tree = [ Btree.root_pid tree ]);
  assert_tree tree

let test_basic_ops () =
  let env, tree = make_tree () in
  insert env tree ~key:5 ~value:"five";
  insert env tree ~key:3 ~value:"three";
  insert env tree ~key:9 ~value:"nine";
  check "lookup hit" true (Btree.lookup tree ~key:3 = Some "three");
  check "lookup miss" true (Btree.lookup tree ~key:4 = None);
  update env tree ~key:3 ~value:"THREE";
  check "update visible" true (Btree.lookup tree ~key:3 = Some "THREE");
  delete env tree ~key:5;
  check "delete visible" true (Btree.lookup tree ~key:5 = None);
  check_keys "survivors" [ 3; 9 ] (keys_of tree);
  assert_tree tree

let test_prepare_write_outcomes () =
  let env, tree = make_tree () in
  insert env tree ~key:1 ~value:"one";
  (match Btree.prepare_write tree ~key:1 ~op:Lr.Insert ~value_len:3 with
  | Btree.Duplicate_key -> ()
  | _ -> Alcotest.fail "duplicate insert must be rejected");
  (match Btree.prepare_write tree ~key:2 ~op:Lr.Update ~value_len:3 with
  | Btree.Missing_key -> ()
  | _ -> Alcotest.fail "update of absent key must be rejected");
  (match Btree.prepare_write tree ~key:2 ~op:Lr.Delete ~value_len:0 with
  | Btree.Missing_key -> ()
  | _ -> Alcotest.fail "delete of absent key must be rejected");
  (match Btree.prepare_write tree ~key:1 ~op:Lr.Update ~value_len:3 with
  | Btree.Leaf { before = Some "one"; _ } -> ()
  | _ -> Alcotest.fail "update must return the before-image");
  match Btree.prepare_write tree ~key:1 ~op:Lr.Delete ~value_len:0 with
  | Btree.Leaf { before = Some "one"; _ } -> ()
  | _ -> Alcotest.fail "delete must return the before-image"

let test_sequential_growth () =
  let env, tree = make_tree ~page_size:256 ~capacity:128 () in
  let n = 2000 in
  for k = 0 to n - 1 do
    insert env tree ~key:k ~value:(Printf.sprintf "val-%05d" k)
  done;
  assert_tree tree;
  check_keys "all present, in order" (List.init n Fun.id) (keys_of tree);
  check "tree grew" true (Btree.height tree >= 3);
  check "many leaves" true (List.length (leaf_pids tree) > 20);
  for k = 0 to n - 1 do
    if Btree.lookup tree ~key:k <> Some (Printf.sprintf "val-%05d" k) then
      Alcotest.failf "key %d lost" k
  done;
  check "the root is internal" false (Node.is_leaf (Pool.get env.pool (Btree.root_pid tree)));
  List.iter
    (fun pid -> check "leaf pid is a leaf" true (Node.is_leaf (Pool.get env.pool pid)))
    (leaf_pids tree)

let test_locate_leaf_consistency () =
  let env, tree = make_tree ~page_size:256 () in
  for k = 0 to 499 do
    insert env tree ~key:(k * 3) ~value:"x"
  done;
  for k = 0 to 499 do
    let pid = Btree.locate_leaf tree ~key:(k * 3) in
    let page = Pool.get env.pool pid in
    check "locate returns a leaf" true (Node.is_leaf page);
    match Node.search page (k * 3) with
    | `Found _ -> ()
    | `Not_found _ -> Alcotest.failf "key %d not in its located leaf" (k * 3)
  done

let test_random_order_inserts () =
  let env, tree = make_tree ~page_size:256 ~capacity:128 () in
  let rng = Deut_sim.Rng.create ~seed:11 in
  (* 0..1499 in random order: sorted by a random tag each. *)
  let keys =
    Array.init 1500 (fun k -> (Deut_sim.Rng.int rng max_int, k))
    |> Array.to_list |> List.sort compare |> List.map snd |> Array.of_list
  in
  Array.iter (fun k -> insert env tree ~key:k ~value:(string_of_int (k * 7))) keys;
  assert_tree tree;
  check_keys "all present" (List.init 1500 Fun.id) (keys_of tree);
  Array.iter
    (fun k ->
      if Btree.lookup tree ~key:k <> Some (string_of_int (k * 7)) then
        Alcotest.failf "key %d wrong" k)
    keys

let test_growing_values_split () =
  let env, tree = make_tree ~page_size:256 () in
  for k = 0 to 19 do
    insert env tree ~key:k ~value:"s"
  done;
  (* Grow every value so the leaf must split on replace. *)
  for k = 0 to 19 do
    update env tree ~key:k ~value:(String.make 40 'G')
  done;
  assert_tree tree;
  for k = 0 to 19 do
    check "grown value" true (Btree.lookup tree ~key:k = Some (String.make 40 'G'))
  done

let test_merge_shrinks_tree () =
  let env, tree = make_tree ~page_size:256 ~capacity:128 () in
  for k = 0 to 999 do
    insert env tree ~key:k ~value:(Printf.sprintf "%08d" k)
  done;
  let leaves_full = List.length (leaf_pids tree) in
  check "grew to many leaves" true (leaves_full > 10);
  (* Delete the middle 80%: lazy merging must reclaim most leaves. *)
  for k = 100 to 899 do
    delete env tree ~key:k
  done;
  assert_tree tree;
  let leaves_after = List.length (leaf_pids tree) in
  check "merging reclaimed leaves" true (leaves_after * 2 < leaves_full);
  check_keys "survivors intact"
    (List.init 100 Fun.id @ List.init 100 (fun i -> 900 + i))
    (keys_of tree);
  for k = 0 to 99 do
    check "low survivors" true (Btree.lookup tree ~key:k = Some (Printf.sprintf "%08d" k))
  done;
  for k = 900 to 999 do
    check "high survivors" true (Btree.lookup tree ~key:k = Some (Printf.sprintf "%08d" k))
  done;
  check "deleted gone" true (Btree.lookup tree ~key:500 = None)

let test_merge_collapses_root () =
  (* A height-2 tree (root over leaves): deleting everything cascades leaf
     merges until the root loses its last separator and collapses.  Deeper
     trees deliberately stop merging at 2 children per internal node — the
     lazy scheme never rebalances internal levels. *)
  let env, tree = make_tree ~page_size:256 () in
  for k = 0 to 59 do
    insert env tree ~key:k ~value:(Printf.sprintf "%06d" k)
  done;
  check_int "height 2 before" 2 (Btree.height tree);
  for k = 0 to 59 do
    delete env tree ~key:k
  done;
  assert_tree tree;
  check_keys "empty" [] (keys_of tree);
  check_int "root collapsed to a single leaf" 1 (Btree.height tree);
  (* The tree remains fully usable after heavy merging. *)
  for k = 0 to 199 do
    insert env tree ~key:k ~value:"again"
  done;
  assert_tree tree;
  check_keys "reinserted" (List.init 200 Fun.id) (keys_of tree)

(* The gate is the [merge_allowed] ref the tree shares with its owner (the
   data component flips it around redo). *)
let test_merge_disabled_gate () =
  let merge_allowed = ref true in
  let env, tree = make_tree ~page_size:256 ~merge_allowed () in
  for k = 0 to 299 do
    insert env tree ~key:k ~value:(Printf.sprintf "%08d" k)
  done;
  let leaves = List.length (leaf_pids tree) in
  merge_allowed := false;
  for k = 0 to 299 do
    delete env tree ~key:k
  done;
  check_int "no merging while gated" leaves (List.length (leaf_pids tree));
  assert_tree tree;
  merge_allowed := true;
  insert env tree ~key:0 ~value:"x";
  delete env tree ~key:0;
  check "merging resumes once ungated" true (List.length (leaf_pids tree) < leaves)

let test_multi_table () =
  let env = make_env () in
  Btree.format_store ~pool:env.pool ~log_smo:(log_smo env env.pool);
  let t1 = Btree.create ~pool:env.pool ~table:1 ~log_smo:(log_smo env env.pool) () in
  let t2 = Btree.create ~pool:env.pool ~table:2 ~log_smo:(log_smo env env.pool) () in
  insert env t1 ~key:1 ~value:"t1";
  insert env t2 ~key:1 ~value:"t2";
  check "tables independent" true (Btree.lookup t1 ~key:1 = Some "t1");
  check "tables independent 2" true (Btree.lookup t2 ~key:1 = Some "t2");
  let reopened = Btree.open_existing ~pool:env.pool ~table:2 ~log_smo:(log_smo env env.pool) () in
  check "open_existing sees data" true (Btree.lookup reopened ~key:1 = Some "t2");
  (try
     ignore (Btree.open_existing ~pool:env.pool ~table:99 ~log_smo:(log_smo env env.pool) ());
     Alcotest.fail "unknown table must raise"
   with Not_found -> ())

let test_catalog () =
  let p = Page.create ~page_size:256 ~pid:0 Page.Meta in
  Catalog.init p;
  check "empty" true (Catalog.find_root p ~table:1 = None);
  Catalog.set_root p ~table:1 ~root:10;
  Catalog.set_root p ~table:2 ~root:20;
  check "lookup" true (Catalog.find_root p ~table:1 = Some 10);
  Catalog.set_root p ~table:1 ~root:30;
  check "root update in place" true (Catalog.find_root p ~table:1 = Some 30);
  Alcotest.(check (list (pair int int))) "tables" [ (1, 30); (2, 20) ] (Catalog.tables p)

let test_smo_records_capture_all_touched_pages () =
  let env, tree = make_tree ~page_size:256 () in
  for k = 0 to 199 do
    insert env tree ~key:k ~value:(Printf.sprintf "%08d" k)
  done;
  (* Every page named in an SMO image must exist, and every image must be a
     full page. *)
  Log.force env.log;
  let smo_pages = ref 0 in
  Log.iter env.log ~from:Deut_wal.Lsn.nil (fun _ record ->
      match record with
      | Lr.Smo { pages; _ } ->
          Array.iter
            (fun (pid, image) ->
              incr smo_pages;
              check "image is page-sized" true (String.length image = 256);
              check "pid is valid" true (pid >= 0))
            pages
      | _ -> ());
  check "splits were logged" true (!smo_pages > 10)

(* check_tree on corrupted trees.  Every page stays cached (the pool holds
   the whole tree), so an edit made to a pooled page is what the checker
   reads.  Each test breaks one invariant and pins the exact report. *)

let corrupt_fixture ~page_size ~rows =
  let env, tree = make_tree ~page_size ~capacity:1024 () in
  for k = 0 to rows - 1 do
    insert env tree ~key:k ~value:(Printf.sprintf "%08d" k)
  done;
  assert_tree tree;
  (env, tree)

(* Small pages: internal nodes below the root, whose level-1 nodes the
   level and separator faults target. *)
let deep_fixture () =
  let env, tree = corrupt_fixture ~page_size:256 ~rows:2000 in
  check "height at least 3" true (Btree.height tree >= 3);
  (env, tree)

(* 5,001 rows under a single internal root. *)
let flat_fixture () =
  let env, tree = corrupt_fixture ~page_size:4096 ~rows:5001 in
  check_int "height 2" 2 (Btree.height tree);
  (env, tree)

let page env pid = Pool.get env.pool pid

(* The first three leaves, in key order. *)
let first_leaves env tree =
  let a = Btree.locate_leaf tree ~key:0 in
  let b = Node.right_sibling (page env a) in
  (a, b, Node.right_sibling (page env b))

(* The leftmost level-1 node, reached down the leftmost children. *)
let level_one env tree =
  let rec down pid =
    let p = page env pid in
    if Node.level p = 1 then pid else down (Node.leftmost_child p)
  in
  down (Btree.root_pid tree)

let slot_off p i = Page.get_u16 p (Node.node_header_end + (2 * i))
let set_level p v = Page.set_u16 p Page.header_size v
let set_nslots p v = Page.set_u16 p (Page.header_size + 2) v

let expect_report tree expected =
  match Btree.check_tree tree with
  | Ok () -> Alcotest.failf "corrupt tree passed check_tree (expected %S)" expected
  | Error msg -> Alcotest.(check string) "check_tree report" expected msg

let chain_report = "leaf sibling chain disagrees with in-order traversal"

let test_check_wrong_sibling () =
  let env, tree = deep_fixture () in
  let a, _, c = first_leaves env tree in
  Node.set_right_sibling (page env a) c;
  expect_report tree chain_report

let test_check_last_sibling () =
  let env, tree = deep_fixture () in
  let last = Btree.locate_leaf tree ~key:1999 in
  Node.set_right_sibling (page env last) (Btree.locate_leaf tree ~key:0);
  expect_report tree chain_report

let test_check_key_outside_bounds () =
  let env, tree = deep_fixture () in
  let _, b, c = first_leaves env tree in
  let p = page env b in
  let lo = Node.slot_key p 0 and hi = Node.slot_key (page env c) 0 in
  Page.set_u64 p (slot_off p 0) (lo - 1);
  expect_report tree
    (Printf.sprintf "page %d: key %d outside separator bounds [%d,%d)" b (lo - 1) lo hi)

let test_check_keys_not_ascending () =
  let env, tree = deep_fixture () in
  let _, b, _ = first_leaves env tree in
  let p = page env b in
  Page.set_u64 p (slot_off p 2) (Node.slot_key p 1);
  expect_report tree (Printf.sprintf "page %d: keys not strictly ascending at slot 2" b)

let test_check_slot_offset () =
  let env, tree = deep_fixture () in
  let _, b, _ = first_leaves env tree in
  let p = page env b in
  Page.set_u16 p (Node.node_header_end + 2) Node.node_header_end;
  expect_report tree
    (Printf.sprintf "page %d: slot 1 offset %d out of cell area" b Node.node_header_end)

let test_check_level_mismatch () =
  let env, tree = deep_fixture () in
  let pid = level_one env tree in
  set_level (page env pid) 2;
  expect_report tree (Printf.sprintf "page %d: level 2, expected 1" pid)

let test_check_no_separators () =
  let env, tree = deep_fixture () in
  let pid = level_one env tree in
  set_nslots (page env pid) 0;
  expect_report tree (Printf.sprintf "page %d: internal node with no separators" pid)

let test_check_no_leftmost_child () =
  let env, tree = deep_fixture () in
  let pid = level_one env tree in
  Node.set_leftmost_child (page env pid) Node.no_sibling;
  expect_report tree (Printf.sprintf "page %d: internal node without leftmost child" pid)

(* The faults below made check_tree raise or loop instead of answering. *)

let test_check_missing_child () =
  let env, tree = flat_fixture () in
  let root = Btree.root_pid tree in
  let p = page env root in
  Page.set_u32 p (slot_off p 0 + 8) 999_999;
  expect_report tree (Printf.sprintf "page %d: child 999999 is missing from the store" root)

let test_check_huge_nslots () =
  let env, tree = flat_fixture () in
  let root = Btree.root_pid tree in
  set_nslots (page env root) 60_000;
  expect_report tree (Printf.sprintf "page %d: cell watermark out of range" root)

let test_check_child_cycle () =
  let env, tree = flat_fixture () in
  let root = Btree.root_pid tree in
  Node.set_leftmost_child (page env root) root;
  expect_report tree (Printf.sprintf "page %d: level 1, expected 0" root)

(* Model-based qcheck: random operation sequences agree with Map. *)
module IntMap = Map.Make (Int)

let ops_gen =
  let open QCheck2.Gen in
  let op =
    frequency
      [
        (6, map2 (fun k v -> `Insert (k, v)) (0 -- 300) (string_size (1 -- 20)));
        (3, map2 (fun k v -> `Update (k, v)) (0 -- 300) (string_size (1 -- 20)));
        (2, map (fun k -> `Delete k) (0 -- 300));
        (2, map (fun k -> `Lookup k) (0 -- 300));
      ]
  in
  list_size (10 -- 400) op

let run_btree_model ops =
  let env, tree = make_tree ~page_size:256 ~capacity:64 () in
  let model = ref IntMap.empty in
  let ok = ref true in
  let expect cond = if not cond then ok := false in
  List.iter
    (fun op ->
      match op with
      | `Insert (key, v) -> (
          match Btree.prepare_write tree ~key ~op:Lr.Insert ~value_len:(String.length v) with
          | Btree.Leaf { pid; before } ->
              expect (before = None);
              expect (not (IntMap.mem key !model));
              Btree.apply_insert tree ~pid ~key ~value:v ~lsn:(next_lsn env);
              model := IntMap.add key v !model
          | Btree.Duplicate_key -> expect (IntMap.mem key !model)
          | Btree.Missing_key -> ok := false)
      | `Update (key, v) -> (
          match Btree.prepare_write tree ~key ~op:Lr.Update ~value_len:(String.length v) with
          | Btree.Leaf { pid; before } ->
              expect (before = IntMap.find_opt key !model);
              Btree.apply_update tree ~pid ~key ~value:v ~lsn:(next_lsn env);
              model := IntMap.add key v !model
          | Btree.Missing_key -> expect (not (IntMap.mem key !model))
          | Btree.Duplicate_key -> ok := false)
      | `Delete key -> (
          match Btree.prepare_write tree ~key ~op:Lr.Delete ~value_len:0 with
          | Btree.Leaf { pid; before } ->
              expect (before = IntMap.find_opt key !model);
              Btree.apply_delete tree ~pid ~key ~lsn:(next_lsn env);
              model := IntMap.remove key !model
          | Btree.Missing_key -> expect (not (IntMap.mem key !model))
          | Btree.Duplicate_key -> ok := false)
      | `Lookup key -> expect (Btree.lookup tree ~key = IntMap.find_opt key !model))
    ops;
  (match Btree.check_tree tree with Ok () -> () | Error _ -> ok := false);
  let contents =
    List.rev (Btree.fold_entries tree ~init:[] ~f:(fun acc k v -> (k, v) :: acc))
  in
  !ok && contents = IntMap.bindings !model

let prop_btree_model =
  QCheck2.Test.make ~name:"btree agrees with Map model" ~count:150 ops_gen run_btree_model

let suite =
  [
    Alcotest.test_case "create empty" `Quick test_create_empty;
    Alcotest.test_case "basic ops" `Quick test_basic_ops;
    Alcotest.test_case "prepare_write outcomes" `Quick test_prepare_write_outcomes;
    Alcotest.test_case "sequential growth" `Quick test_sequential_growth;
    Alcotest.test_case "locate_leaf consistency" `Quick test_locate_leaf_consistency;
    Alcotest.test_case "random order inserts" `Quick test_random_order_inserts;
    Alcotest.test_case "growing values force splits" `Quick test_growing_values_split;
    Alcotest.test_case "merge shrinks tree" `Quick test_merge_shrinks_tree;
    Alcotest.test_case "merge collapses root" `Quick test_merge_collapses_root;
    Alcotest.test_case "merge gate" `Quick test_merge_disabled_gate;
    Alcotest.test_case "multi-table" `Quick test_multi_table;
    Alcotest.test_case "catalog" `Quick test_catalog;
    Alcotest.test_case "smo records capture pages" `Quick test_smo_records_capture_all_touched_pages;
    Alcotest.test_case "check_tree: sibling names the wrong leaf" `Quick test_check_wrong_sibling;
    Alcotest.test_case "check_tree: last leaf has a sibling" `Quick test_check_last_sibling;
    Alcotest.test_case "check_tree: key outside separator bounds" `Quick
      test_check_key_outside_bounds;
    Alcotest.test_case "check_tree: keys not ascending" `Quick test_check_keys_not_ascending;
    Alcotest.test_case "check_tree: slot offset outside cells" `Quick test_check_slot_offset;
    Alcotest.test_case "check_tree: level mismatch" `Quick test_check_level_mismatch;
    Alcotest.test_case "check_tree: internal node without separators" `Quick
      test_check_no_separators;
    Alcotest.test_case "check_tree: internal node without leftmost child" `Quick
      test_check_no_leftmost_child;
    Alcotest.test_case "check_tree: missing child is an error" `Quick test_check_missing_child;
    Alcotest.test_case "check_tree: oversized slot count is an error" `Quick
      test_check_huge_nslots;
    Alcotest.test_case "check_tree: child cycle ends" `Quick test_check_child_cycle;
    Env.qcheck prop_btree_model;
  ]
