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

let small_spec = { Workload.default with Workload.rows = 500; value_size = 12; seed = 2 }

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
    Alcotest.test_case "driver load + verify" `Quick test_driver_load_and_verify;
    Alcotest.test_case "golden paper load" `Quick test_golden_paper_load;
    Alcotest.test_case "driver updates tracked" `Quick test_driver_updates_tracked;
    Alcotest.test_case "driver mixed ops" `Quick test_driver_mixed_ops;
    Alcotest.test_case "crash protocol tail" `Quick test_crash_protocol_tail;
    Alcotest.test_case "value_of sizes" `Quick test_value_of_sizes;
    Alcotest.test_case "sequential distribution" `Quick test_sequential_distribution;
    Alcotest.test_case "report table" `Quick test_report_table;
    Alcotest.test_case "experiment tiny cell" `Slow test_experiment_tiny;
  ]
