(* Slotted-page node layout: unit tests plus a qcheck model test against a
   sorted association list. *)

module Page = Deut_storage.Page
module Node = Deut_btree.Node

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let fresh_leaf ?(size = 512) () =
  let p = Page.create ~page_size:size ~pid:1 Page.Btree_leaf in
  Node.init p ~level:0;
  p

let fresh_internal ?(size = 512) () =
  let p = Page.create ~page_size:size ~pid:2 Page.Btree_internal in
  Node.init p ~level:1;
  p

let assert_ok p =
  match Node.check p with Ok () -> () | Error msg -> Alcotest.failf "node invariant: %s" msg

let test_init () =
  let p = fresh_leaf () in
  check "leaf" true (Node.is_leaf p);
  check_int "level" 0 (Node.level p);
  check_int "no slots" 0 (Node.nslots p);
  check_int "no sibling" Node.no_sibling (Node.right_sibling p);
  check "kind set" true (Page.kind p = Page.Btree_leaf);
  let q = fresh_internal () in
  check "internal" false (Node.is_leaf q);
  check "kind set internal" true (Page.kind q = Page.Btree_internal);
  assert_ok p

let test_leaf_insert_search () =
  let p = fresh_leaf () in
  List.iter
    (fun k ->
      match Node.search p k with
      | `Not_found slot ->
          check "insert fits" true (Node.leaf_insert p ~slot ~key:k ~value:(string_of_int k))
      | `Found _ -> Alcotest.fail "unexpected duplicate")
    [ 50; 10; 30; 20; 40 ];
  assert_ok p;
  check_int "nslots" 5 (Node.nslots p);
  (* Keys are kept sorted regardless of insertion order. *)
  List.iteri (fun i k -> check_int "sorted" k (Node.slot_key p i)) [ 10; 20; 30; 40; 50 ];
  (match Node.search p 30 with
  | `Found slot -> check_str "value" "30" (Node.leaf_value p slot)
  | `Not_found _ -> Alcotest.fail "key 30 missing");
  (match Node.search p 35 with
  | `Not_found slot -> check_int "insertion point" 3 slot
  | `Found _ -> Alcotest.fail "phantom key");
  match Node.search p 5 with
  | `Not_found slot -> check_int "before all" 0 slot
  | `Found _ -> Alcotest.fail "phantom key"

let test_leaf_delete_and_fragmentation () =
  let p = fresh_leaf () in
  List.iter
    (fun k ->
      match Node.search p k with
      | `Not_found slot ->
          ignore (Node.leaf_insert p ~slot ~key:k ~value:(String.make 20 (Char.chr (65 + k))))
      | `Found _ -> ())
    [ 0; 1; 2; 3; 4 ];
  let free_before = Node.free_space p in
  (match Node.search p 2 with
  | `Found slot -> Node.leaf_delete p ~slot
  | `Not_found _ -> Alcotest.fail "missing");
  assert_ok p;
  check_int "slot count drops" 4 (Node.nslots p);
  (* The cell bytes are fragmented until compaction. *)
  check_int "contiguous free grew by a slot only" (free_before + 2) (Node.free_space p);
  check "reclaimable sees the hole" true (Node.reclaimable_space p > Node.free_space p + 20);
  Node.compact p;
  assert_ok p;
  check_int "compaction reclaims" (Node.reclaimable_space p) (Node.free_space p);
  List.iteri (fun i k -> check_int "survivors" k (Node.slot_key p i)) [ 0; 1; 3; 4 ]

let test_leaf_replace () =
  let p = fresh_leaf () in
  (match Node.search p 1 with
  | `Not_found slot -> ignore (Node.leaf_insert p ~slot ~key:1 ~value:"aaaa")
  | `Found _ -> ());
  (match Node.search p 1 with
  | `Found slot ->
      check "shrink in place" true (Node.leaf_replace p ~slot ~value:"b");
      check_str "shrunk" "b" (Node.leaf_value p slot);
      check "grow" true (Node.leaf_replace p ~slot ~value:(String.make 50 'c'));
      check_str "grown" (String.make 50 'c') (Node.leaf_value p slot)
  | `Not_found _ -> Alcotest.fail "missing");
  assert_ok p;
  (* A value too large for the page must fail and leave it unchanged. *)
  match Node.search p 1 with
  | `Found slot ->
      let image page = Page.get_bytes page ~off:0 ~len:(Page.size page) in
      let before = image p in
      check "oversized replace fails" false
        (Node.leaf_can_replace p ~slot ~value_len:1000 && Node.leaf_replace p ~slot ~value:(String.make 1000 'd'));
      check "page unchanged on failure" true (before = image p)
  | `Not_found _ -> Alcotest.fail "missing"

let test_internal_routing () =
  let p = fresh_internal () in
  Node.set_leftmost_child p 100;
  check "internal insert" true (Node.internal_insert p ~key:10 ~child:110);
  check "internal insert 2" true (Node.internal_insert p ~key:20 ~child:120);
  check "internal insert 3" true (Node.internal_insert p ~key:30 ~child:130);
  assert_ok p;
  check_int "below first key" 100 (Node.route p 5);
  check_int "exact key" 110 (Node.route p 10);
  check_int "between keys" 110 (Node.route p 15);
  check_int "last range" 130 (Node.route p 99);
  let children = ref [] in
  Node.iter_children p (fun c -> children := c :: !children);
  Alcotest.(check (list int)) "children order" [ 100; 110; 120; 130 ] (List.rev !children)

let fill_leaf p =
  let k = ref 0 in
  let continue = ref true in
  while !continue do
    match Node.search p !k with
    | `Not_found slot ->
        if Node.leaf_insert p ~slot ~key:!k ~value:(Printf.sprintf "v%04d" !k) then incr k
        else continue := false
    | `Found _ -> incr k
  done;
  !k

let test_split_leaf () =
  let p = fresh_leaf () in
  let n = fill_leaf p in
  check "filled" true (n > 10);
  let q = Page.create ~page_size:512 ~pid:9 Page.Btree_leaf in
  Node.init q ~level:0;
  let sep = Node.split_leaf p q in
  assert_ok p;
  assert_ok q;
  check_int "separator is right's first key" sep (Node.slot_key q 0);
  check_int "no entries lost" n (Node.nslots p + Node.nslots q);
  check "left keys below separator" true (Node.slot_key p (Node.nslots p - 1) < sep);
  check "left got room back" true (Node.free_space p > 100);
  (* Values survive the move. *)
  check_str "right value intact" (Printf.sprintf "v%04d" sep) (Node.leaf_value q 0)

let test_split_internal () =
  let p = fresh_internal () in
  Node.set_leftmost_child p 1000;
  let k = ref 0 in
  while Node.internal_insert p ~key:(10 * !k) ~child:(1001 + !k) do
    incr k
  done;
  let q = Page.create ~page_size:512 ~pid:10 Page.Btree_internal in
  Node.init q ~level:1;
  let total = Node.nslots p in
  let promoted = Node.split_internal p q in
  assert_ok p;
  assert_ok q;
  check_int "promoted key dropped from both" (total - 1) (Node.nslots p + Node.nslots q);
  check "left strictly below promoted" true (Node.slot_key p (Node.nslots p - 1) < promoted);
  check "right strictly above promoted" true (Node.slot_key q 0 > promoted);
  (* The promoted key's child became the right node's leftmost child. *)
  check_int "right leftmost child" (1001 + (total / 2)) (Node.leftmost_child q);
  check_int "routing promoted goes right" (Node.leftmost_child q) (Node.route q promoted)

(* Model test: a random mix of inserts, deletes, replaces, and compactions
   must agree with a sorted association list. *)
let model_ops_gen =
  let open QCheck2.Gen in
  let op =
    frequency
      [
        (5, map2 (fun k v -> `Insert (k, v)) (0 -- 50) (string_size (1 -- 12)));
        (2, map (fun k -> `Delete k) (0 -- 50));
        (2, map2 (fun k v -> `Replace (k, v)) (0 -- 50) (string_size (1 -- 12)));
        (1, return `Compact);
      ]
  in
  list_size (0 -- 200) op

let run_model ops =
  let p = fresh_leaf ~size:2048 () in
  let model = ref [] in
  let ok = ref true in
  List.iter
    (fun op ->
      match op with
      | `Insert (k, v) -> (
          match Node.search p k with
          | `Found _ -> if List.mem_assoc k !model then () else ok := false
          | `Not_found slot ->
              if List.mem_assoc k !model then ok := false
              else if Node.leaf_insert p ~slot ~key:k ~value:v then
                model := (k, v) :: !model)
      | `Delete k -> (
          match Node.search p k with
          | `Found slot ->
              Node.leaf_delete p ~slot;
              model := List.remove_assoc k !model
          | `Not_found _ -> if List.mem_assoc k !model then ok := false)
      | `Replace (k, v) -> (
          match Node.search p k with
          | `Found slot ->
              if Node.leaf_replace p ~slot ~value:v then
                model := (k, v) :: List.remove_assoc k !model
          | `Not_found _ -> ())
      | `Compact -> Node.compact p)
    ops;
  (match Node.check p with Ok () -> () | Error _ -> ok := false);
  let contents = Node.fold_leaf p ~init:[] ~f:(fun acc k v -> (k, v) :: acc) in
  let expected = List.sort (fun (a, _) (b, _) -> Int.compare a b) !model in
  !ok && List.rev contents = expected

let prop_node_model =
  QCheck2.Test.make ~name:"slotted leaf agrees with assoc-list model" ~count:300 model_ops_gen
    run_model

let suite =
  [
    Alcotest.test_case "init" `Quick test_init;
    Alcotest.test_case "leaf insert/search" `Quick test_leaf_insert_search;
    Alcotest.test_case "leaf delete + fragmentation" `Quick test_leaf_delete_and_fragmentation;
    Alcotest.test_case "leaf replace" `Quick test_leaf_replace;
    Alcotest.test_case "internal routing" `Quick test_internal_routing;
    Alcotest.test_case "split leaf" `Quick test_split_leaf;
    Alcotest.test_case "split internal" `Quick test_split_internal;
    Env.qcheck prop_node_model;
  ]
