(* Codec, log records, and the log manager. *)

module Codec = Deut_wal.Codec
module Lr = Deut_wal.Log_record
module Lsn = Deut_wal.Lsn
module Log = Deut_wal.Log_manager
module Clock = Deut_sim.Clock
module Disk = Deut_sim.Disk

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let test_codec_scalars () =
  let w = Codec.writer () in
  Codec.w_u8 w 0xFE;
  Codec.w_u32 w 0xDEADBEEF;
  Codec.w_i64 w (-42);
  Codec.w_string w "abc";
  Codec.w_opt_string w None;
  Codec.w_opt_string w (Some "");
  Codec.w_u32_array w [| 1; 2; 3 |];
  Codec.w_i64_array w [| -1; max_int |];
  let r = Codec.reader (Codec.contents w) in
  check_int "u8" 0xFE (Codec.r_u8 r);
  check_int "u32" 0xDEADBEEF (Codec.r_u32 r);
  check_int "i64" (-42) (Codec.r_i64 r);
  check_str "string" "abc" (Codec.r_string r);
  check "none" true (Codec.r_opt_string r = None);
  check "some empty" true (Codec.r_opt_string r = Some "");
  Alcotest.(check (array int)) "u32 array" [| 1; 2; 3 |] (Codec.r_u32_array r);
  Alcotest.(check (array int)) "i64 array" [| -1; max_int |] (Codec.r_i64_array r);
  check "consumed all" true
    (match Codec.r_u8 r with _ -> false | exception Codec.Truncated _ -> true)

let test_codec_truncation () =
  let w = Codec.writer () in
  Codec.w_string w "hello";
  let full = Codec.contents w in
  let r = Codec.reader (String.sub full 0 6) in
  try
    ignore (Codec.r_string r);
    Alcotest.fail "truncated read must raise"
  with Codec.Truncated _ -> ()

let sample_records =
  [
    Lr.Update_rec
      {
        txn = 7;
        table = 1;
        key = 42;
        op = Lr.Update;
        before = Some "old";
        after = Some "new";
        pid_hint = 17;
        prev_lsn = 900;
      };
    Lr.Update_rec
      {
        txn = 8;
        table = 2;
        key = -5;
        op = Lr.Insert;
        before = None;
        after = Some "";
        pid_hint = 0;
        prev_lsn = Lsn.nil;
      };
    Lr.Update_rec
      {
        txn = 9;
        table = 3;
        key = max_int;
        op = Lr.Delete;
        before = Some "gone";
        after = None;
        pid_hint = 123456;
        prev_lsn = 0;
      };
    Lr.Commit { txn = 3 };
    Lr.Abort { txn = 12 };
    Lr.Clr
      {
        txn = 4;
        table = 1;
        key = 10;
        op = Lr.Insert;
        value = Some "restored";
        pid_hint = 3;
        undo_next = Lsn.nil;
      };
    Lr.Begin_ckpt;
    Lr.End_ckpt { bckpt = 1000; active = [| (1, 555); (9, Lsn.nil) |] };
    Lr.End_ckpt { bckpt = Lsn.nil; active = [||] };
    Lr.Aries_ckpt_dpt { entries = [| (1, 10, 20); (2, 30, 40) |] };
    Lr.Bw { written = [| 5; 6; 7 |]; fw_lsn = 88 };
    Lr.Delta
      {
        dirty = [| 1; 2; 2; 3 |];
        written = [| 2 |];
        fw_lsn = 77;
        first_dirty = 2;
        tc_lsn = 99;
        dirty_lsns = [||];
      };
    Lr.Delta
      {
        dirty = [| 4 |];
        written = [||];
        fw_lsn = Lsn.nil;
        first_dirty = 1;
        tc_lsn = 101;
        dirty_lsns = [| 55 |];
      };
    Lr.Smo { kind = Lr.Leaf_split; pages = [| (3, "abc"); (4, String.make 100 'z') |] };
    Lr.Smo { kind = Lr.Catalog; pages = [||] };
  ]

let test_record_roundtrip () =
  List.iter
    (fun record ->
      let decoded = Lr.decode (Lr.encode record) in
      if decoded <> record then
        Alcotest.failf "roundtrip failed for %s" (Lr.describe record))
    sample_records

let test_redo_view () =
  List.iter
    (fun record ->
      match (record, Lr.redo_view record) with
      | Lr.Update_rec u, Some v ->
          check_int "view key" u.Lr.key v.Lr.rv_key;
          check "view value" true (v.Lr.rv_value = u.Lr.after)
      | Lr.Clr c, Some v ->
          check_int "clr view pid" c.Lr.pid_hint v.Lr.rv_pid;
          check "clr view value" true (v.Lr.rv_value = c.Lr.value)
      | (Lr.Update_rec _ | Lr.Clr _), None -> Alcotest.fail "update/clr must be redoable"
      | _, None -> ()
      | _, Some _ -> Alcotest.fail "non-update records are not redoable")
    sample_records

(* qcheck: arbitrary update records roundtrip. *)
let record_gen =
  let open QCheck2.Gen in
  let op = oneofl [ Lr.Insert; Lr.Update; Lr.Delete ] in
  let opt_str = option (string_size (0 -- 64)) in
  let* txn = 0 -- 1000 and* table = 0 -- 10 and* key = int and* o = op in
  let* before = opt_str and* after = opt_str and* pid = 0 -- 1_000_000 and* prev = -1 -- 10000 in
  return (Lr.Update_rec { txn; table; key; op = o; before; after; pid_hint = pid; prev_lsn = prev })

let prop_roundtrip =
  QCheck2.Test.make ~name:"log record roundtrip (random updates)" ~count:500 record_gen
    (fun r -> Lr.decode (Lr.encode r) = r)

let test_log_append_read () =
  let log = Log.create ~page_size:4096 in
  let lsns = List.map (Log.append log) sample_records in
  check_int "record count" (List.length sample_records) (Log.record_count log);
  List.iter2
    (fun lsn record ->
      let got, _next = Log.read_at log lsn in
      check "read_at returns the record" true (got = record))
    lsns sample_records;
  (* LSNs are byte offsets: strictly increasing, first at the log's base
     (offset 0 is reserved as the fresh-page pLSN sentinel). *)
  check_int "first lsn" (Log.base_lsn log) (List.hd lsns);
  check "offset 0 reserved" true (List.hd lsns > 0);
  ignore
    (List.fold_left
       (fun prev lsn ->
         check "lsns increase" true (lsn > prev);
         lsn)
       (-1) lsns)

let test_log_force_semantics () =
  let log = Log.create ~page_size:4096 in
  let l1 = Log.append log (Lr.Commit { txn = 1 }) in
  let l2 = Log.append log (Lr.Commit { txn = 2 }) in
  let _l3 = Log.append log (Lr.Commit { txn = 3 }) in
  check_int "nothing stable yet" l1 (Log.stable_lsn log);
  Log.force_upto log l1;
  check "force_upto covers the record" true (Log.stable_lsn log > l1);
  check "force_upto stops before the next" true (Log.stable_lsn log <= l2);
  Log.force log;
  check_int "force all" (Log.end_lsn log) (Log.stable_lsn log)

let test_log_crash_drops_tail () =
  let log = Log.create ~page_size:4096 in
  let _ = Log.append log (Lr.Commit { txn = 1 }) in
  Log.force log;
  let stable_end = Log.stable_lsn log in
  let _ = Log.append log (Lr.Commit { txn = 2 }) in
  let crashed = Log.crash log in
  check_int "tail dropped" stable_end (Log.end_lsn crashed);
  let seen = ref 0 in
  Log.iter crashed ~from:Lsn.nil (fun _ _ -> incr seen);
  check_int "only stable records visible" 1 !seen

let test_log_iter_range () =
  let log = Log.create ~page_size:4096 in
  let lsns = Array.init 10 (fun i -> Log.append log (Lr.Commit { txn = i })) in
  Log.force log;
  let seen = ref [] in
  Log.iter log ~from:lsns.(4) (fun _ r ->
      match r with Lr.Commit { txn } -> seen := txn :: !seen | _ -> ());
  Alcotest.(check (list int)) "scan from mid-log" [ 4; 5; 6; 7; 8; 9 ] (List.rev !seen);
  let count ?upto () =
    let n = ref 0 in
    Log.iter log ~from:Lsn.nil ?upto (fun _ _ -> incr n);
    !n
  in
  check_int "scan all" 10 (count ());
  check_int "upto is exclusive" 3 (count ~upto:lsns.(3) ())

let test_log_compact () =
  let log = Log.create ~page_size:4096 in
  let lsns = Array.init 10 (fun i -> Log.append log (Lr.Commit { txn = i })) in
  Log.force log;
  Log.compact log ~keep_from:lsns.(5);
  check_int "base moved" lsns.(5) (Log.base_lsn log);
  (* Retained records still readable at their original LSNs. *)
  let r, _ = Log.read_at log lsns.(7) in
  check "post-compact read" true (r = Lr.Commit { txn = 7 });
  (try
     ignore (Log.read_at log lsns.(2));
     Alcotest.fail "archived offset must raise"
   with Invalid_argument _ -> ());
  (* Appends continue with consistent offsets. *)
  let l = Log.append log (Lr.Commit { txn = 99 }) in
  Log.force log;
  let r, _ = Log.read_at log l in
  check "append after compact" true (r = Lr.Commit { txn = 99 });
  (* A crash copy of a compacted log keeps the base. *)
  let crashed = Log.crash log in
  check_int "crash keeps base" lsns.(5) (Log.base_lsn crashed)

let test_log_charges_disk () =
  let log = Log.create ~page_size:512 in
  for i = 0 to 199 do
    ignore (Log.append log (Lr.Commit { txn = i }))
  done;
  Log.force log;
  let clock = Clock.create () in
  let disk = Disk.create clock in
  Log.attach_read_disk log disk;
  Log.iter log ~from:Lsn.nil (fun _ _ -> ());
  let expected_pages = ((Log.end_lsn log - 1) / 512) + 1 in
  check_int "every log page charged once" expected_pages (Disk.counters disk).Disk.pages_read;
  check "scan advanced the clock" true (Clock.now clock > 0.0)

let test_corruption_detected () =
  let log = Log.create ~page_size:4096 in
  let l0 = Log.append log (Lr.Commit { txn = 1 }) in
  let l1 = Log.append log (Lr.Commit { txn = 2 }) in
  Log.force log;
  Log.corrupt_for_test log l0;
  (try
     ignore (Log.read_at log l0);
     Alcotest.fail "corrupt record must be detected"
   with Log.Corrupt_record l -> check_int "corrupt lsn reported" l0 l);
  (* Other records unaffected. *)
  let r, _ = Log.read_at log l1 in
  check "later record intact" true (r = Lr.Commit { txn = 2 });
  (* Scans surface the corruption too. *)
  try
    Log.iter log ~from:Lsn.nil (fun _ _ -> ());
    Alcotest.fail "scan over corruption must raise"
  with Log.Corrupt_record _ -> ()

(* A range scan charges the log pages its records start on, each once. *)
let test_pages_between () =
  let log = Log.create ~page_size:100 in
  let lsns = Array.init 30 (fun i -> Log.append log (Lr.Commit { txn = i })) in
  Log.force log;
  let pages_read ~from ~upto =
    let disk = Disk.create (Clock.create ()) in
    Log.attach_read_disk log disk;
    Log.iter log ~from ~upto (fun _ _ -> ());
    (Disk.counters disk).Disk.pages_read
  in
  let page i = lsns.(i) / 100 in
  check_int "empty range" 0 (pages_read ~from:lsns.(3) ~upto:lsns.(3));
  check_int "one record" 1 (pages_read ~from:lsns.(3) ~upto:lsns.(4));
  (* The first record that starts on a later page than its predecessor. *)
  let i = List.find (fun i -> page (i + 1) > page i) (List.init 28 Fun.id) in
  check_int "spanning boundary" 2 (pages_read ~from:lsns.(i) ~upto:lsns.(i + 2));
  check_int "within the first page" 1 (pages_read ~from:lsns.(i) ~upto:lsns.(i + 1))

let suite =
  [
    Alcotest.test_case "codec scalars" `Quick test_codec_scalars;
    Alcotest.test_case "codec truncation" `Quick test_codec_truncation;
    Alcotest.test_case "record roundtrip" `Quick test_record_roundtrip;
    Alcotest.test_case "redo view" `Quick test_redo_view;
    Env.qcheck prop_roundtrip;
    Alcotest.test_case "log append/read" `Quick test_log_append_read;
    Alcotest.test_case "log force semantics" `Quick test_log_force_semantics;
    Alcotest.test_case "log crash drops tail" `Quick test_log_crash_drops_tail;
    Alcotest.test_case "log iter range" `Quick test_log_iter_range;
    Alcotest.test_case "log compact" `Quick test_log_compact;
    Alcotest.test_case "log charges disk" `Quick test_log_charges_disk;
    Alcotest.test_case "log corruption detected" `Quick test_corruption_detected;
    Alcotest.test_case "pages_between" `Quick test_pages_between;
  ]
