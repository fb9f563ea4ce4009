(* Workload library: oracle semantics, driver behaviour, report rendering,
   and the experiment harness at a tiny scale. *)

module Db = Deut_core.Db
module Config = Deut_core.Config
module Recovery = Deut_core.Recovery
module Workload = Deut_workload.Workload
module Oracle = Deut_workload.Oracle
module Driver = Deut_workload.Driver
module Report = Deut_workload.Report
module Experiment = Deut_workload.Experiment

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_oracle_txn_semantics () =
  let o = Oracle.create () in
  Oracle.begin_txn o 1;
  Oracle.buffer_put o ~txn:1 ~table:1 ~key:5 ~value:"a";
  check "pending writes invisible" true (Oracle.committed_value o ~table:1 ~key:5 = None);
  Oracle.commit o ~txn:1;
  check "committed visible" true (Oracle.committed_value o ~table:1 ~key:5 = Some "a");
  Oracle.begin_txn o 2;
  Oracle.buffer_put o ~txn:2 ~table:1 ~key:5 ~value:"b";
  Oracle.buffer_delete o ~txn:2 ~table:1 ~key:5;
  Oracle.buffer_put o ~txn:2 ~table:1 ~key:6 ~value:"c";
  Oracle.abort o ~txn:2;
  check "aborted writes discarded" true (Oracle.committed_value o ~table:1 ~key:5 = Some "a");
  check "aborted inserts discarded" true (Oracle.committed_value o ~table:1 ~key:6 = None);
  Oracle.begin_txn o 3;
  Oracle.buffer_put o ~txn:3 ~table:1 ~key:5 ~value:"x";
  Oracle.buffer_delete o ~txn:3 ~table:1 ~key:5;
  Oracle.commit o ~txn:3;
  check "in-txn order respected" true (Oracle.committed_value o ~table:1 ~key:5 = None);
  Oracle.begin_txn o 4;
  Oracle.buffer_put o ~txn:4 ~table:2 ~key:5 ~value:"other";
  Oracle.commit o ~txn:4;
  check_int "tables separate" 0 (Oracle.entry_count o ~table:1);
  check_int "tables separate 2" 1 (Oracle.entry_count o ~table:2);
  Alcotest.(check (list (pair int string))) "sorted entries" [ (5, "other") ]
    (Oracle.committed_entries o ~table:2)

(* Model test: random operation sequences over three tables, checked after
   every step against a reference [Map] keyed by [(table, key)].  An
   operation on a transaction that was never begun must raise
   [Invalid_argument] in the oracle exactly where the model refuses it. *)
type oracle_op =
  | Begin of int
  | Put of int * int * int * string
  | Delete of int * int * int
  | Commit of int
  | Abort of int
  | Commit_queued of int
  | Force
  | Seal

let show_oracle_op = function
  | Begin txn -> Printf.sprintf "Begin %d" txn
  | Put (txn, table, key, v) -> Printf.sprintf "Put (%d, %d, %d, %S)" txn table key v
  | Delete (txn, table, key) -> Printf.sprintf "Delete (%d, %d, %d)" txn table key
  | Commit txn -> Printf.sprintf "Commit %d" txn
  | Abort txn -> Printf.sprintf "Abort %d" txn
  | Commit_queued txn -> Printf.sprintf "Commit_queued %d" txn
  | Force -> "Force"
  | Seal -> "Seal"

let model_tables = [ 1; 2; 3 ]
let model_keys = List.init 12 Fun.id

let oracle_op_gen =
  let open QCheck2.Gen in
  let txn = 0 -- 3 and table = oneofl model_tables and key = oneofl model_keys in
  frequency
    [
      (3, map (fun t -> Begin t) txn);
      ( 8,
        let* t = txn and* tb = table and* k = key and* v = string_size ~gen:printable (0 -- 3) in
        return (Put (t, tb, k, v)) );
      ( 4,
        let* t = txn and* tb = table and* k = key in
        return (Delete (t, tb, k)) );
      (3, map (fun t -> Commit t) txn);
      (1, map (fun t -> Abort t) txn);
      (2, map (fun t -> Commit_queued t) txn);
      (2, return Force);
      (1, return Seal);
    ]

module Rows = Map.Make (struct
  type t = int * int

  let compare = compare
end)

module Txns = Map.Make (Int)

type oracle_model = {
  rows : string Rows.t;
  pending : ((int * int) * string option) list Txns.t;  (* newest first *)
  queued : ((int * int) * string option) list list;  (* newest group first *)
}

let empty_model = { rows = Rows.empty; pending = Txns.empty; queued = [] }

let apply_group rows group =
  List.fold_left
    (fun rows (addr, v) ->
      match v with Some v -> Rows.add addr v rows | None -> Rows.remove addr rows)
    rows group

(* [None] where the oracle must refuse the operation. *)
let model_step m op =
  let buffered txn w =
    Option.map
      (fun ws -> { m with pending = Txns.add txn (w :: ws) m.pending })
      (Txns.find_opt txn m.pending)
  in
  let taken txn f =
    Option.map
      (fun ws -> f { m with pending = Txns.remove txn m.pending } (List.rev ws))
      (Txns.find_opt txn m.pending)
  in
  match op with
  | Begin txn -> Some { m with pending = Txns.add txn [] m.pending }
  | Put (txn, table, key, v) -> buffered txn ((table, key), Some v)
  | Delete (txn, table, key) -> buffered txn ((table, key), None)
  | Commit txn -> taken txn (fun m ws -> { m with rows = apply_group m.rows ws })
  | Abort txn -> Some { m with pending = Txns.remove txn m.pending }
  | Commit_queued txn -> taken txn (fun m ws -> { m with queued = ws :: m.queued })
  | Force ->
      Some { m with rows = List.fold_left apply_group m.rows (List.rev m.queued); queued = [] }
  | Seal -> Some m

let oracle_step o = function
  | Begin txn -> Oracle.begin_txn o txn
  | Put (txn, table, key, value) -> Oracle.buffer_put o ~txn ~table ~key ~value
  | Delete (txn, table, key) -> Oracle.buffer_delete o ~txn ~table ~key
  | Commit txn -> Oracle.commit o ~txn
  | Abort txn -> Oracle.abort o ~txn
  | Commit_queued txn -> Oracle.commit_queued o ~txn
  | Force -> Oracle.force o
  | Seal -> Oracle.seal o

let oracle_agrees o m =
  Oracle.queued_commits o = List.length m.queued
  && List.for_all
       (fun table ->
         let expected =
           Rows.fold (fun (t, k) v acc -> if t = table then (k, v) :: acc else acc) m.rows []
           |> List.rev
         in
         Oracle.committed_entries o ~table = expected
         && Oracle.entry_count o ~table = List.length expected
         && List.for_all
              (fun key ->
                Oracle.committed_value o ~table ~key = Rows.find_opt (table, key) m.rows)
              model_keys)
       model_tables

let oracle_matches_model ops =
  let o = Oracle.create () in
  let rec go m = function
    | [] -> true
    | op :: rest -> (
        let refused =
          match oracle_step o op with () -> false | exception Invalid_argument _ -> true
        in
        match model_step m op with
        | Some m' -> (not refused) && oracle_agrees o m' && go m' rest
        | None -> refused && oracle_agrees o m && go m rest)
  in
  go empty_model ops

let prop_oracle_model =
  QCheck2.Test.make ~name:"oracle equals a (table, key) map model" ~count:500
    ~print:(fun ops -> String.concat "; " (List.map show_oracle_op ops))
    QCheck2.Gen.(list_size (0 -- 60) oracle_op_gen)
    oracle_matches_model

let test_oracle_model_cases () =
  check "commit after seal recomputes the sealed entries" true
    (oracle_matches_model
       [
         Begin 0; Put (0, 1, 1, "a"); Put (0, 1, 3, "c"); Commit 0; Seal;
         Begin 1; Put (1, 1, 2, "b"); Delete (1, 1, 3); Commit 1;
         Seal; Begin 2; Put (2, 1, 0, "z"); Commit_queued 2; Force;
       ]);
  check "a table emptied by deletes" true
    (oracle_matches_model
       [
         Begin 0; Put (0, 2, 4, "x"); Put (0, 2, 5, "y"); Commit 0; Seal;
         Begin 1; Delete (1, 2, 4); Delete (1, 2, 5); Commit 1; Seal;
         Begin 2; Put (2, 2, 5, "w"); Commit 2;
       ])

let small_config =
  { Env.config with Config.page_size = 1024; pool_pages = 32; delta_period = 50; shards = 1 }

(* A table spanning many leaves, written through [Db] and mirrored into a
   sealed oracle.  Each verify test then writes once more through [Db]
   without telling the oracle. *)
let oracle_fixture () =
  let db = Db.create ~config:small_config () in
  Db.create_table db ~table:1;
  let o = Oracle.create () in
  for key = 1 to 300 do
    let value = Printf.sprintf "v%04d" key in
    Db.put db ~table:1 ~key ~value;
    Oracle.begin_txn o key;
    Oracle.buffer_put o ~txn:key ~table:1 ~key ~value;
    Oracle.commit o ~txn:key
  done;
  Oracle.seal o;
  (match Oracle.verify o db ~tables:[ 1 ] with Ok () -> () | Error e -> Alcotest.fail e);
  (db, o)

let check_verify_error o db expected =
  match Oracle.verify o db ~tables:[ 1 ] with
  | Ok () -> Alcotest.fail ("verify missed: " ^ expected)
  | Error e -> Alcotest.(check string) "verify error" expected e

let test_oracle_catches_changed_value () =
  let db, o = oracle_fixture () in
  Db.put db ~table:1 ~key:150 ~value:"vXXXX";
  check_verify_error o db {|table 1: recovered (150,"vXXXX") but committed (150,"v0150")|}

let test_oracle_catches_missing_row () =
  let db, o = oracle_fixture () in
  let txn = Db.begin_txn db in
  (match Db.delete db txn ~table:1 ~key:150 with
  | Ok () -> Db.commit db txn
  | Error e -> Alcotest.fail (Db.error_to_string e));
  check_verify_error o db "table 1: 299 entries recovered, 300 committed"

let test_oracle_catches_extra_row () =
  let db, o = oracle_fixture () in
  Db.put db ~table:1 ~key:1000 ~value:"extra";
  check_verify_error o db "table 1: 301 entries recovered, 300 committed"

(* {2 Leaf corruption: the in-place checks against checked references}

   [Node.check] and [Node.match_leaf] skip the bounds checks of loads they
   have bounded themselves.  The references below read every field with
   bounds-checked loads instead, as both checks did before: the structural
   check of a leaf, and the oracle check as a fold that copies every row
   out and compares the lists.  One byte of one leaf is corrupted; both
   verdicts must agree with the references (a reference that reads past
   the page raises, which counts as [Error]), and neither check may
   raise. *)

module Page = Deut_storage.Page
module Node = Deut_btree.Node
module Btree = Deut_btree.Btree
module Pool = Deut_buffer.Buffer_pool

let ref_u16 (p : Page.t) off = Bytes.get_uint16_be p.Page.buf off
let ref_u64 (p : Page.t) off = Int64.to_int (Bytes.get_int64_be p.Page.buf off)
let ref_nslots p = ref_u16 p (Page.header_size + 2)
let ref_cell p slot = ref_u16 p (Node.node_header_end + (2 * slot))

let ref_leaf_ok ~lo ~hi p =
  let n = ref_nslots p and cs = ref_u16 p (Page.header_size + 4) and size = Page.size p in
  let rec slots i prev =
    i >= n
    ||
    let off = ref_cell p i in
    off >= cs
    && off + 10 <= size
    && off + 10 + ref_u16 p (off + 8) <= size
    &&
    let k = ref_u64 p off in
    (i = 0 || prev < k) && lo <= k && k < hi && slots (i + 1) k
  in
  cs <= size && cs >= Node.node_header_end + (2 * n) && slots 0 0

let ref_rows_ok leaves expected =
  let row p i =
    let off = ref_cell p i in
    (ref_u64 p off, Bytes.sub_string p.Page.buf (off + 10) (ref_u16 p (off + 8)))
  in
  match List.concat_map (fun p -> List.init (ref_nslots p) (row p)) leaves with
  | rows -> rows = expected
  | exception Invalid_argument _ -> false

(* The fixture's leaves in key order with their separator bounds, read off
   its one internal level. *)
let fixture_leaves db =
  let sh = Deut_core.Engine.shard (Db.engine db) 0 in
  let tree = Deut_core.Dc.tree sh.Deut_core.Engine.s_dc ~table:1 in
  let pool = Btree.pool_of tree in
  let root = Pool.get pool (Btree.root_pid tree) in
  if Node.level root <> 1 then Alcotest.fail "fixture tree is not two levels deep";
  let n = Node.nslots root in
  let sep i = if i < 0 then min_int else if i >= n then max_int else Node.slot_key root i in
  List.init (n + 1) (fun i ->
      let child = if i = 0 then Node.leftmost_child root else Node.child_at root (i - 1) in
      (Pool.get pool child, sep (i - 1), sep i))

type corruption = { leaf : int; field : int; a : int; b : int; flip : int }

let field_names = [| "nslots"; "cell_start"; "slot offset"; "value length"; "key"; "value" |]

let show_corruption c =
  Printf.sprintf "leaf %d, %s (a=%d b=%d), xor 0x%02x" c.leaf field_names.(c.field) c.a c.b c.flip

let corruption_gen =
  QCheck2.Gen.(
    map
      (fun ((leaf, field), (a, b, flip)) -> { leaf; field; a; b; flip })
      (pair (pair nat (int_bound 5)) (triple nat nat (int_range 1 255))))

(* The byte [c] names on leaf [p], read before it is corrupted. *)
let corrupted_offset p c =
  let slot = c.a mod ref_nslots p in
  let cell = ref_cell p slot in
  match c.field with
  | 0 -> Page.header_size + 2 + (c.b mod 2)
  | 1 -> Page.header_size + 4 + (c.b mod 2)
  | 2 -> Node.node_header_end + (2 * slot) + (c.b mod 2)
  | 3 -> cell + 8 + (c.b mod 2)
  | 4 -> cell + (c.b mod 8)
  | _ -> cell + 10 + (c.b mod ref_u16 p (cell + 8))

let corruption_fixture = lazy (oracle_fixture ())

let checks_agree_on c =
  let db, o = Lazy.force corruption_fixture in
  let leaves = fixture_leaves db in
  let p, _, _ = List.nth leaves (c.leaf mod List.length leaves) in
  let off = corrupted_offset p c in
  let old = Page.get_u8 p off in
  Page.set_u8 p off (old lxor c.flip);
  let verdict what f =
    match f () with
    | r -> Result.is_ok r
    | exception e -> QCheck2.Test.fail_reportf "%s raised %s" what (Printexc.to_string e)
  in
  let integrity, oracle, ref_integrity, ref_oracle =
    Fun.protect
      ~finally:(fun () -> Page.set_u8 p off old)
      (fun () ->
        ( verdict "Db.check_integrity" (fun () -> Db.check_integrity db),
          verdict "Oracle.verify" (fun () -> Oracle.verify o db ~tables:[ 1 ]),
          List.for_all (fun (p, lo, hi) -> ref_leaf_ok ~lo ~hi p) leaves,
          ref_rows_ok (List.map (fun (p, _, _) -> p) leaves) (Oracle.committed_entries o ~table:1)
        ))
  in
  if integrity <> ref_integrity then
    QCheck2.Test.fail_reportf "Db.check_integrity says %b, the reference %b" integrity ref_integrity;
  if oracle <> ref_oracle then
    QCheck2.Test.fail_reportf "Oracle.verify says %b, the reference %b" oracle ref_oracle;
  true

let prop_leaf_corruption =
  QCheck2.Test.make ~name:"leaf corruption: in-place checks match checked references" ~count:400
    ~print:show_corruption corruption_gen checks_agree_on

let small_spec = { Workload.default with Workload.rows = 500; value_size = 12; seed = 2 }

(* The check compares leaf cells in place: over a sealed 20k-row table it
   allocates per leaf, never per row (copying each value out, as a fold
   over the rows does, costs about five words a row). *)
let test_oracle_verify_allocation () =
  let rows = 20_000 in
  let config = { Config.default with Config.shards = 1; pool_pages = 4096 } in
  let driver = Driver.create ~config { small_spec with Workload.rows } in
  let db = Driver.db driver and o = Driver.oracle driver in
  Oracle.seal o;
  let verify () = Oracle.verify o db ~tables:[ 1 ] in
  (match verify () with Ok () -> () | Error e -> Alcotest.fail e);
  let before = Gc.minor_words () in
  let verdict = verify () in
  let words = Gc.minor_words () -. before in
  check "verify passes" true (verdict = Ok ());
  let per_row = words /. float_of_int rows in
  if per_row >= 0.5 then Alcotest.failf "Oracle.verify allocated %.2f minor words per row" per_row

let test_driver_load_and_verify () =
  let driver = Driver.create ~config:small_config small_spec in
  (* Without any crash, the live db must match the oracle. *)
  (match Driver.verify_recovered driver (Driver.db driver) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  check_int "all rows loaded" 500 (Db.entry_count (Driver.db driver) ~table:1)

(* [Experiment.store_digest] with each page's checksum field (bytes 4-7)
   zeroed: the store's content, blind to how the pages are stamped. *)
let masked_store_digest db =
  let sh0 = Deut_core.Engine.shard (Db.engine db) 0 in
  Deut_buffer.Buffer_pool.flush_all_dirty sh0.Deut_core.Engine.s_pool;
  let pages = ref [] in
  Deut_storage.Page_store.iter_stable sh0.Deut_core.Engine.s_store (fun p ->
      let buf = Bytes.copy p.Deut_storage.Page.buf in
      Bytes.fill buf 4 4 '\000';
      pages := (p.Deut_storage.Page.pid, Bytes.to_string buf) :: !pages);
  let buf = Buffer.create 4096 in
  List.iter
    (fun (pid, bytes) ->
      Buffer.add_string buf (string_of_int pid);
      Buffer.add_char buf ':';
      Buffer.add_string buf bytes)
    (List.sort compare !pages);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Golden load: the paper's database at 1/512 scale, pinned by row count,
   log extent and both digests, so a faster load path (oracle, checksum,
   page store) must leave every byte the engine writes unchanged.  The
   masked digest pins the page contents apart from their stamps, so a
   change of checksum function moves only the full store digest. *)
let test_golden_paper_load () =
  let setup = Experiment.paper_setup ~scale:512 ~cache_mb:512 () in
  let driver = Driver.create ~config:setup.Experiment.config setup.Experiment.spec in
  let db = Driver.db driver in
  check_int "rows" 96_163 (Oracle.entry_count (Driver.oracle driver) ~table:1);
  check_int "log.tc.end_lsn" 27_940_506 (Db.metric db "log.tc.end_lsn");
  check_int "log.tc.records" 98_689 (Db.metric db "log.tc.records");
  Alcotest.(check string) "logical digest" "7d139635e47abdd7050405da2b56ce78"
    (Deut_workload.Client_sched.logical_digest db);
  Alcotest.(check string) "masked store digest" "74dbbed33cf91d1cb980228454c60571"
    (masked_store_digest db);
  Alcotest.(check string) "store digest" "8e9775498ee4a03d832f0efd0e9c168e"
    (Experiment.store_digest db)

let test_driver_updates_tracked () =
  let driver = Driver.create ~config:small_config small_spec in
  Driver.run_updates driver ~updates:200;
  check "updates counted" true (Driver.updates_done driver >= 200);
  match Driver.verify_recovered driver (Driver.db driver) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_driver_mixed_ops () =
  let spec =
    {
      small_spec with
      Workload.op_mix = Workload.Mixed { update = 0.4; insert = 0.3; delete = 0.2; read = 0.1 };
    }
  in
  let driver = Driver.create ~config:small_config spec in
  Driver.run_updates driver ~updates:400;
  match Driver.verify_recovered driver (Driver.db driver) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_crash_protocol_tail () =
  (* The protocol must leave roughly [tail] updates after the last Δ/BW
     record so logical redo exercises its fallback.  The table must exceed
     the cache: with everything resident there are no misses, hence no
     background flushing and eventually no dirty transitions, and the late
     Δ windows come out empty (correctly emitting nothing). *)
  let spec = { small_spec with Workload.rows = 2500 } in
  let driver = Driver.create ~config:small_config spec in
  Driver.run_crash_protocol driver ~checkpoints:2 ~interval:200 ~tail:17;
  let image = Driver.crash driver in
  let recovered, stats = Db.recover image Recovery.Log1 in
  (match Driver.verify_recovered driver recovered with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  check "tail of expected size" true
    (stats.Deut_core.Recovery_stats.tail_records >= 15
    && stats.Deut_core.Recovery_stats.tail_records <= 60)

let test_value_of_sizes () =
  let rng = Deut_sim.Rng.create ~seed:3 in
  List.iter
    (fun size ->
      let v = Workload.value_of rng ~size in
      Alcotest.(check int) "exact size" size (String.length v);
      String.iter
        (fun c ->
          if not ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) then
            Alcotest.failf "unexpected byte %C" c)
        v)
    [ 0; 1; 16; 255 ]

let test_sequential_distribution () =
  let spec =
    { small_spec with Workload.rows = 100; key_dist = Workload.Sequential; seed = 6 }
  in
  let driver = Driver.create ~config:small_config spec in
  Driver.run_updates driver ~updates:250;
  (* Sequential keys wrap around; state still matches the oracle. *)
  match Driver.verify_recovered driver (Driver.db driver) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* The streams no other test pins: a Mixed + Zipf serial stream over
   three tables, a Sequential serial stream, and a four-client scheduler
   over a Mixed spec under locking.  Each is pinned by the logical digest
   of the state it leaves and the operations it counted, so a change in
   how operations are drawn or applied fails here.  The config is a
   literal, not [Env.config]: no DEUT_* knob may move these. *)
let pinned_config =
  { Config.default with Config.page_size = 1024; pool_pages = 32; delta_period = 50 }

let pinned_mix = Workload.Mixed { update = 0.4; insert = 0.2; delete = 0.2; read = 0.2 }

let check_pinned name ~digest ~ops driver n =
  (match Driver.verify_recovered driver (Driver.db driver) with
  | Ok () -> ()
  | Error e -> Alcotest.fail (name ^ ": " ^ e));
  Alcotest.(check string) (name ^ ": logical digest") digest
    (Deut_workload.Client_sched.logical_digest (Driver.db driver));
  check_int (name ^ ": ops") ops n

let test_pinned_streams () =
  let serial spec ~updates =
    let driver = Driver.create ~config:pinned_config spec in
    Driver.run_updates driver ~updates;
    (driver, Driver.updates_done driver)
  in
  let driver, n =
    serial ~updates:600
      { small_spec with Workload.tables = 3; key_dist = Workload.Zipf 0.9; op_mix = pinned_mix; seed = 7 }
  in
  check_pinned "serial mixed zipf" ~digest:"c726f8bdc61fc056f7a3f8de4e2781d6" ~ops:601 driver n;
  let driver, n = serial ~updates:300 { small_spec with Workload.key_dist = Workload.Sequential; seed = 8 } in
  check_pinned "serial sequential" ~digest:"04f76185f72b4a0137e7201c861f5284" ~ops:300 driver n;
  let config = { pinned_config with Config.clients = 4; locking = true; group_commit = 2 } in
  let driver = Driver.create ~config { small_spec with Workload.op_mix = pinned_mix; seed = 9 } in
  let sched = Driver.run_concurrent driver ~txns:80 in
  Deut_workload.Client_sched.flush sched;
  check_pinned "4 clients mixed" ~digest:"280e59ea98d01aebc349293990b628cc" ~ops:800 driver
    (Deut_workload.Client_sched.stats sched).Deut_workload.Client_sched.committed_ops

(* [Workload.exec]'s error rule: a missing key is an expected skip only
   where the mix deletes keys; anywhere else it is a bug and raises. *)
let test_exec_missing_key () =
  let db = Db.create ~config:pinned_config () in
  Db.create_table db ~table:1;
  let o = Oracle.create () in
  let txn = Db.begin_txn db in
  Oracle.begin_txn o (Db.Txn.id txn);
  let exec spec action = Workload.exec db ~oracle:o spec txn { Workload.table = 1; key = 7; action } in
  let raises what spec action =
    match exec spec action with
    | _ -> Alcotest.failf "%s: no Failure" what
    | exception Failure _ -> ()
  in
  raises "update-only update" small_spec (Workload.Upd "v");
  raises "update-only delete" small_spec Workload.Del;
  let no_deletes = Workload.Mixed { update = 0.5; insert = 0.5; delete = 0.0; read = 0.0 } in
  raises "update in a mix without deletes" { small_spec with Workload.op_mix = no_deletes }
    (Workload.Upd "v");
  let deleting = { small_spec with Workload.op_mix = pinned_mix } in
  check "update in a deleting mix skips" true (exec deleting (Workload.Upd "v") = Workload.Skipped);
  check "delete in a deleting mix skips" true (exec deleting Workload.Del = Workload.Skipped);
  check "insert writes" true (exec deleting (Workload.Ins "w") = Workload.Wrote);
  raises "duplicate insert" deleting (Workload.Ins "x");
  check "read skips" true (exec deleting Workload.Read = Workload.Skipped);
  Db.commit db txn;
  Oracle.commit o ~txn:(Db.Txn.id txn);
  check "the write is mirrored" true (Oracle.committed_value o ~table:1 ~key:7 = Some "w")

let test_report_table () =
  let rendered =
    Report.table ~title:"T" ~header:[ "name"; "Δ value" ]
      ~rows:[ [ "alpha"; "1.0" ]; [ "very-long-name"; "22.5" ]; [ "µs → ms"; "3" ] ]
      ()
  in
  let lines = String.split_on_char '\n' rendered in
  check_int "title + header + rule + 3 rows + trailing" 7 (List.length lines);
  (* Every line as wide as the rule, counted in code points: "Δ", "µ" and
     "→" each take one column, as on a terminal. *)
  let code_points s = String.fold_left (fun n c -> if Char.code c land 0xC0 = 0x80 then n else n + 1) 0 s in
  (match lines with
  | _title :: header :: rule :: rows ->
      let w = code_points rule in
      check_int "header as wide as the rule" w (code_points header);
      List.iter
        (fun r -> if r <> "" then check_int ("row as wide as the rule: " ^ r) w (code_points r))
        rows
  | _ -> Alcotest.fail "unexpected shape");
  (* A text cell in the last column leaves no trailing spaces. *)
  let text_last = Report.table ~header:[ "n"; "label" ] ~rows:[ [ "1"; "a" ]; [ "22"; "long label" ] ] () in
  List.iter
    (fun l -> check ("no trailing space: " ^ l) false (String.ends_with ~suffix:" " l))
    (String.split_on_char '\n' text_last)

let test_experiment_tiny () =
  (* One tiny experiment cell end-to-end, verifying every method. *)
  let setup = Experiment.paper_setup ~config:Env.config ~scale:512 ~cache_mb:256 () in
  let run = Experiment.build setup in
  check "db built" true (run.Experiment.db_pages > 100);
  check "dirty pages at crash" true (run.Experiment.dirty_at_crash > 0);
  check "deltas written" true (run.Experiment.deltas_total > 0);
  check "dirty fraction sane" true
    (run.Experiment.dirty_fraction > 0.0 && run.Experiment.dirty_fraction <= 1.0);
  let results = Experiment.run_all run Recovery.all_methods in
  check_int "five methods" 5 (List.length results);
  List.iter
    (fun (_, stats) -> check "redo happened" true (stats.Deut_core.Recovery_stats.records_scanned > 0))
    results

let suite =
  [
    Alcotest.test_case "oracle txn semantics" `Quick test_oracle_txn_semantics;
    Env.qcheck prop_oracle_model;
    Alcotest.test_case "oracle model: seal, then mutate" `Quick test_oracle_model_cases;
    Alcotest.test_case "oracle catches a changed value" `Quick test_oracle_catches_changed_value;
    Alcotest.test_case "oracle catches a missing row" `Quick test_oracle_catches_missing_row;
    Alcotest.test_case "oracle catches an extra row" `Quick test_oracle_catches_extra_row;
    Env.qcheck prop_leaf_corruption;
    Alcotest.test_case "driver load + verify" `Quick test_driver_load_and_verify;
    Alcotest.test_case "oracle verify allocates per leaf" `Quick test_oracle_verify_allocation;
    Alcotest.test_case "golden paper load" `Quick test_golden_paper_load;
    Alcotest.test_case "driver updates tracked" `Quick test_driver_updates_tracked;
    Alcotest.test_case "driver mixed ops" `Quick test_driver_mixed_ops;
    Alcotest.test_case "crash protocol tail" `Quick test_crash_protocol_tail;
    Alcotest.test_case "value_of sizes" `Quick test_value_of_sizes;
    Alcotest.test_case "sequential distribution" `Quick test_sequential_distribution;
    Alcotest.test_case "pinned operation streams" `Quick test_pinned_streams;
    Alcotest.test_case "exec: missing key skips only where deletes run" `Quick test_exec_missing_key;
    Alcotest.test_case "report table" `Quick test_report_table;
    Alcotest.test_case "experiment tiny cell" `Slow test_experiment_tiny;
  ]
