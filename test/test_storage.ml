(* Pages and the stable page store. *)

module Page = Deut_storage.Page
module Page_store = Deut_storage.Page_store

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let test_page_header () =
  let p = Page.create ~page_size:256 ~pid:3 Page.Btree_leaf in
  check_int "pid" 3 p.Page.pid;
  check_int "size" 256 (Page.size p);
  check "kind" true (Page.kind p = Page.Btree_leaf);
  check_int "fresh plsn" 0 (Page.plsn p);
  Page.set_plsn p 123456789;
  check_int "plsn roundtrip" 123456789 (Page.plsn p);
  Page.set_kind p Page.Btree_internal;
  check "kind change" true (Page.kind p = Page.Btree_internal)

let test_page_accessors () =
  let p = Page.create ~page_size:512 ~pid:0 Page.Meta in
  Page.set_u16 p 40 0xBEEF;
  check_int "u16" 0xBEEF (Page.get_u16 p 40);
  Page.set_u32 p 44 0xDEADBEEF;
  check_int "u32" 0xDEADBEEF (Page.get_u32 p 44);
  Page.set_u64 p 48 max_int;
  check_int "u64 max_int" max_int (Page.get_u64 p 48);
  Page.set_u64 p 48 (-1);
  check_int "u64 sign roundtrip" (-1) (Page.get_u64 p 48);
  Page.set_bytes p ~off:100 "hello";
  check_str "bytes" "hello" (Page.get_bytes p ~off:100 ~len:5);
  Page.blit_within p ~src:100 ~dst:200 ~len:5;
  check_str "blit" "hello" (Page.get_bytes p ~off:200 ~len:5);
  Page.zero_range p ~off:100 ~len:5;
  check_str "zero" "\000\000\000\000\000" (Page.get_bytes p ~off:100 ~len:5)

(* A page rebuilt from its stable image is an owning copy: equal contents,
   and writes to either side stay on that side. *)
let test_page_copy_independent () =
  let p = Page.create ~page_size:64 ~pid:1 Page.Meta in
  Page.set_u16 p 32 7;
  let q = Page.of_image ~pid:1 (Bytes.to_string (Page.stable_image p)) in
  let contents page =
    Page.get_bytes page ~off:Page.header_size ~len:(Page.size page - Page.header_size)
  in
  check_str "copies equal" (contents p) (contents q);
  Page.set_u16 q 40 9;
  check "copy is independent" false (contents p = contents q);
  check_int "original untouched" 7 (Page.get_u16 p 32)

let test_store_basics () =
  let s = Page_store.create ~page_size:128 in
  let pid0 = Page_store.allocate s Page.Meta in
  let pid1 = Page_store.allocate s Page.Btree_leaf in
  check_int "pids monotone" 0 pid0;
  check_int "pids monotone 2" 1 pid1;
  check_int "allocated" 2 (Page_store.allocated_count s);
  check_int "nothing stable yet" 0 (Page_store.stable_count s);
  check "exists false before write" false (Page_store.exists s pid1);
  (try
     ignore (Page_store.read s pid1);
     Alcotest.fail "read of unwritten page must raise"
   with Page_store.Missing_page 1 -> ());
  let p = Page.create ~page_size:128 ~pid:pid1 Page.Btree_leaf in
  Page.set_u16 p 32 99;
  Page_store.write s p;
  check "exists after write" true (Page_store.exists s pid1);
  let r = Page_store.read s pid1 in
  check_int "contents persisted" 99 (Page.get_u16 r 32);
  (* The stable image is a snapshot, not a live alias. *)
  Page.set_u16 p 32 11;
  check_int "later mutation invisible" 99 (Page.get_u16 (Page_store.read s pid1) 32)

let test_store_clone () =
  let s = Page_store.create ~page_size:128 in
  let pid = Page_store.allocate s Page.Meta in
  let p = Page.create ~page_size:128 ~pid Page.Meta in
  Page.set_u16 p 32 5;
  Page_store.write s p;
  let c = Page_store.clone s in
  Page.set_u16 p 32 6;
  Page_store.write s p;
  check_int "clone froze the old image" 5 (Page.get_u16 (Page_store.read c pid) 32);
  check_int "original moved on" 6 (Page.get_u16 (Page_store.read s pid) 32);
  check_int "clone allocation cursor" (Page_store.allocated_count s) (Page_store.allocated_count c)

(* [clone] shares image bytes, so isolation rests on both stores replacing
   whole images and on [Page]'s copy-on-write borrows. *)
let store_with_page () =
  let s = Page_store.create ~page_size:128 in
  let pid = Page_store.allocate s Page.Meta in
  let p = Page.create ~page_size:128 ~pid Page.Meta in
  Page.set_bytes p ~off:32 "important";
  Page_store.write s p;
  (s, pid)

let read_payload s pid = Page.get_bytes (Page_store.read s pid) ~off:32 ~len:9

let expect_corrupt what s pid =
  match Page_store.read s pid with
  | _ -> Alcotest.fail (what ^ ": corruption must be detected")
  | exception Page_store.Corrupt_page p -> check_int (what ^ ": corrupt pid") pid p

let test_store_clone_corrupt_isolated () =
  let s, pid = store_with_page () in
  let c = Page_store.clone s in
  Page_store.corrupt_for_test c pid;
  expect_corrupt "corrupted clone" c pid;
  check_str "original still readable" "important" (read_payload s pid);
  let s, pid = store_with_page () in
  let c = Page_store.clone s in
  Page_store.corrupt_for_test s pid;
  expect_corrupt "corrupted original" s pid;
  check_str "clone still readable" "important" (read_payload c pid);
  (* A clone of a corrupted image inherits its unverified state. *)
  expect_corrupt "clone of a corrupted store" (Page_store.clone s) pid

let test_store_clone_borrow_isolated () =
  let s, pid = store_with_page () in
  let c = Page_store.clone s in
  let borrowed = Page_store.read c pid in
  check "read lends the stable image" true borrowed.Page.shared;
  Page.set_bytes borrowed ~off:32 "scribbled";
  check "mutation unshared the page" false borrowed.Page.shared;
  check_str "clone untouched" "important" (read_payload c pid);
  check_str "original untouched" "important" (read_payload s pid)

let test_store_note_allocated () =
  let s = Page_store.create ~page_size:128 in
  Page_store.note_allocated s 41;
  check_int "cursor advanced" 42 (Page_store.allocated_count s);
  check_int "next pid skips" 42 (Page_store.allocate s Page.Meta)

let test_store_iter () =
  let s = Page_store.create ~page_size:128 in
  for _ = 0 to 4 do
    ignore (Page_store.allocate s Page.Meta)
  done;
  List.iter
    (fun pid ->
      let p = Page.create ~page_size:128 ~pid Page.Meta in
      Page_store.write s p)
    [ 1; 3 ];
  let seen = ref [] in
  Page_store.iter_stable s (fun p -> seen := p.Page.pid :: !seen);
  Alcotest.(check (list int)) "iterates stable pages in pid order" [ 1; 3 ] (List.rev !seen)

let test_checksum () =
  let p = Page.create ~page_size:256 ~pid:1 Page.Meta in
  Page.set_bytes p ~off:40 "payload";
  check "unstamped page fails (zero checksum)" false (Page.checksum_ok p);
  (* [stable_image] stamps the checksum into the image the store keeps. *)
  let stamped p = Page.of_image ~pid:1 (Bytes.to_string (Page.stable_image p)) in
  let p = stamped p in
  check "stamped page passes" true (Page.checksum_ok p);
  Page.set_bytes p ~off:40 "tampered";
  check "mutation breaks the checksum" false (Page.checksum_ok p);
  let p = stamped p in
  check "re-stamp fixes it" true (Page.checksum_ok p);
  (* pLSN is covered by the checksum. *)
  Page.set_plsn p 999;
  check "plsn covered" false (Page.checksum_ok p)

(* A stray write that zeroes the checksum field of a stamped page must not
   turn it into an "unstamped" page that passes. *)
let test_zeroed_checksum_field () =
  let p = Page.create ~page_size:256 ~pid:1 Page.Btree_leaf in
  Page.set_bytes p ~off:40 "payload";
  let image = Page.stable_image p in
  check "stamp is non-zero" true (Bytes.get_int32_be image 4 <> 0l);
  Bytes.fill image 4 4 '\000';
  check "zeroed stamp fails" false (Page.checksum_ok (Page.of_image ~pid:1 (Bytes.to_string image)))

let test_store_detects_corruption () =
  let s = Page_store.create ~page_size:128 in
  let pid = Page_store.allocate s Page.Meta in
  let p = Page.create ~page_size:128 ~pid Page.Meta in
  Page.set_bytes p ~off:32 "important";
  Page_store.write s p;
  check "clean read ok" true (Page.get_bytes (Page_store.read s pid) ~off:32 ~len:9 = "important");
  Page_store.corrupt_for_test s pid;
  (try
     ignore (Page_store.read s pid);
     Alcotest.fail "corruption must be detected"
   with Page_store.Corrupt_page p -> check_int "corrupt pid reported" pid p);
  (* A fresh write repairs the page. *)
  Page_store.write s p;
  check "rewrite restores readability" true (Page_store.exists s pid && Page.checksum_ok (Page_store.read s pid))

let suite =
  [
    Alcotest.test_case "page header" `Quick test_page_header;
    Alcotest.test_case "page checksum" `Quick test_checksum;
    Alcotest.test_case "zeroed checksum field fails" `Quick test_zeroed_checksum_field;
    Alcotest.test_case "store detects corruption" `Quick test_store_detects_corruption;
    Alcotest.test_case "page accessors" `Quick test_page_accessors;
    Alcotest.test_case "page copy" `Quick test_page_copy_independent;
    Alcotest.test_case "store basics" `Quick test_store_basics;
    Alcotest.test_case "store clone" `Quick test_store_clone;
    Alcotest.test_case "clone corruption isolated" `Quick test_store_clone_corrupt_isolated;
    Alcotest.test_case "clone borrow isolated" `Quick test_store_clone_borrow_isolated;
    Alcotest.test_case "store note_allocated" `Quick test_store_note_allocated;
    Alcotest.test_case "store iter" `Quick test_store_iter;
  ]
