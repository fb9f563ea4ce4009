(* Randomized crash-workload generator.  See fuzz.mli for the contract.

   Shared between the crash-recovery fuzz suite (which recovers the
   sampled image under every method and compares against the oracle) and
   [repro_cli forensics] (which rebuilds the same image from a failing
   seed and prints its flight-recorder snapshot).  Everything here is a
   pure function of the seed — same seed, same workload, same sampled
   crash boundary, same image bytes. *)

module Db = Deut_core.Db
module Config = Deut_core.Config
module Engine = Deut_core.Engine
module Recovery = Deut_core.Recovery
module Crash_image = Deut_core.Crash_image
module Rng = Deut_sim.Rng
module Lr = Deut_wal.Log_record
module Lsn = Deut_wal.Lsn
module Log = Deut_wal.Log_manager

let tables = [ 1; 2 ]

let config_of config rng =
  {
    config with
    Config.page_size = 1024;
    pool_pages = [| 16; 32; 64 |].(Rng.int rng 3);
    delta_period = [| 5; 10; 20 |].(Rng.int rng 3);
    delta_capacity = 64;
    (* Archive (rather than drop) compacted log bytes: the committed-prefix
       oracle folds the image's log from genesis, which plain compaction
       would cut out from under it.  Sealing keeps every byte readable
       (iter spans archive + live) and exercises restart-from-archive. *)
    archive = true;
    (* The generator leaves transactions open while later ones run; key
       locks make the overlap serializable (conflicting ops fail with
       [Lock_conflict] and are skipped) — without them a later commit
       could overwrite a loser's write and make its rollback unsound. *)
    locking = true;
  }

(* Committed state implied by a log prefix, generalised over tables:
   buffer each transaction's operations, fold into the committed map on
   Commit, drop on Abort.  CLRs are ignored — a loser's updates and its
   compensations net to nothing. *)
let expected_of_log log =
  let committed = Hashtbl.create 64 in
  let pending = Hashtbl.create 8 in
  Log.iter log ~from:Lsn.nil (fun _lsn record ->
      match record with
      | Lr.Update_rec u ->
          let prior = Option.value (Hashtbl.find_opt pending u.Lr.txn) ~default:[] in
          Hashtbl.replace pending u.Lr.txn (((u.Lr.table, u.Lr.key), u.Lr.after) :: prior)
      | Lr.Commit { txn } ->
          List.iter
            (fun (tk, after) ->
              match after with
              | Some v -> Hashtbl.replace committed tk v
              | None -> Hashtbl.remove committed tk)
            (List.rev (Option.value (Hashtbl.find_opt pending txn) ~default:[]));
          Hashtbl.remove pending txn
      | Lr.Abort { txn } -> Hashtbl.remove pending txn
      | Lr.Clr _ | Lr.Begin_ckpt | Lr.End_ckpt _ | Lr.Aries_ckpt_dpt _ | Lr.Bw _ | Lr.Delta _
      | Lr.Smo _ ->
          ());
  List.sort compare (Hashtbl.fold (fun tk v acc -> (tk, v) :: acc) committed [])

(* Generate and run the workload, reservoir-sampling one crash boundary.
   Returns the sampled image (the workload always appends at least one
   record, so the reservoir is never empty). *)
let build_image ?(config = Config.default) seed =
  let rng = Rng.create ~seed in
  let config = config_of config rng in
  let db = Db.create ~config () in
  List.iter (fun table -> Db.create_table db ~table) tables;
  let engine = Db.engine db in
  let log = engine.Engine.log in
  let sel_rng = Rng.split rng in
  let seen = ref 0 in
  let image = ref None in
  (* Snapshot at an append boundary: everything appended to the TC log so
     far survives.  The flight recorder rides along, as [Db.crash] would
     carry it. *)
  Log.set_append_hook log
    (Some
       (fun _lsn ->
         incr seen;
         if Rng.int sel_rng !seen = 0 then
           image := Some (Crash_image.capture ~upto:(Log.end_lsn log) engine)));
  (* Tracked keys are an approximation of what is present (aborts drift
     it); operations that turn out invalid return a typed error and are
     simply skipped. *)
  let keys = Hashtbl.create 64 in
  let present table = Hashtbl.find_opt keys table |> Option.value ~default:[] in
  let add table k = Hashtbl.replace keys table (k :: present table) in
  let remove table k =
    Hashtbl.replace keys table (List.filter (fun k' -> k' <> k) (present table))
  in
  let pick_table () = List.nth tables (Rng.int rng (List.length tables)) in
  let n_txns = 10 + Rng.int rng 15 in
  for t = 0 to n_txns - 1 do
    let txn = Db.begin_txn db in
    let n_ops = 1 + Rng.int rng 6 in
    for o = 0 to n_ops - 1 do
      let table = pick_table () in
      let v = Printf.sprintf "s%d.%d.%d" seed t o in
      match Rng.int rng 10 with
      | 0 | 1 | 2 | 3 ->
          let key = Rng.int rng 200 in
          if Result.is_ok (Db.insert db txn ~table ~key ~value:v) then add table key
      | 4 | 5 | 6 -> (
          match present table with
          | [] -> ()
          | ks -> ignore (Db.update db txn ~table ~key:(List.nth ks (Rng.int rng (List.length ks))) ~value:v))
      | _ -> (
          match present table with
          | [] -> ()
          | ks ->
              let key = List.nth ks (Rng.int rng (List.length ks)) in
              if Result.is_ok (Db.delete db txn ~table ~key) then remove table key)
    done;
    (match Rng.int rng 20 with
    | n when n < 16 -> Db.commit db txn
    | 16 | 17 | 18 -> Db.abort db txn
    | _ -> () (* leave open: an in-flight loser at later boundaries *));
    if Rng.int rng 7 = 0 then Db.checkpoint db;
    if Rng.int rng 10 = 0 then Db.compact_log db
  done;
  Log.set_append_hook log None;
  match !image with
  | Some image -> image
  | None -> failwith "Fuzz.build_image: workload appended no log records"

(* With shards > 1 only the logical methods can run (split layout per
   shard), and the staged InstantLog2 form is not yet sharded. *)
let methods_for ~shards =
  if shards > 1 then [ Recovery.Log0; Recovery.Log1; Recovery.Log2 ]
  else Recovery.all_methods_with_instant

let corpus = List.init 32 (fun i -> 1001 + (7919 * i))

let repro_hint seed =
  Printf.sprintf "repro: DEUT_FUZZ_SEEDS=%d dune exec test/main.exe -- test fuzz-recovery" seed
