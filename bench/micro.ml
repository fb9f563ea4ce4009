(* Bechamel micro-benchmarks: one Test.make per hot path of the engine.
   These measure real wall-clock costs (OLS estimate of ns/op), in contrast
   to the figure tables, which report simulated recovery time.

   [checksum-page] and [checksum-record] time the storage checksum
   ([Checksum.sub], XXH64) on a full page image and on a log-record-sized
   payload.  The "(before)"/"(after)" pairs measure one optimisation of the
   hot-path wall-clock pass against the code shape it replaced:

     page-read: the copy-on-write borrow the store hands out now vs the
          copy-and-hash every fetch used to pay;
     wal-encode: the reusable scratch writer vs a fresh buffer + contents
          string per record;
     wal-decode: in-place [decode_sub] out of the log buffer vs decoding a
          substring copy.

   [run ~quick] takes the harness's quick (DEUT_QUICK) sampling budget. *)

open Bechamel
open Toolkit
module Checksum = Deut_storage.Checksum
module Page = Deut_storage.Page
module Page_store = Deut_storage.Page_store
module Pool = Deut_buffer.Buffer_pool
module Btree = Deut_btree.Btree
module Codec = Deut_wal.Codec
module Lr = Deut_wal.Log_record
module Log = Deut_wal.Log_manager
module Dpt = Deut_core.Dpt
module Rng = Deut_sim.Rng

let page_size = 8192

let page_buf =
  let b = Bytes.create page_size in
  for i = 0 to page_size - 1 do
    Bytes.set b i (Char.chr ((i * 131) land 0xFF))
  done;
  b

let sample_update =
  Lr.Update_rec
    {
      txn = 42;
      table = 1;
      key = 123456;
      op = Lr.Update;
      before = Some "previous-value-of-the-rec";
      after = Some "updated-value-of-the-recx";
      pid_hint = 9876;
      prev_lsn = 1_000_000;
    }

let encoded_update = Lr.encode sample_update
let encoded_len = String.length encoded_update

(* The in-place decode path reads out of a larger buffer at an offset, the
   way the recovery scan reads frames out of the log. *)
let log_like =
  let b = Bytes.create (encoded_len + 64) in
  Bytes.blit_string encoded_update 0 b 32 encoded_len;
  b

(* A store holding one stable page, for the fetch-path comparison. *)
let store_fixture =
  lazy
    (let store = Page_store.create ~page_size in
     let pid = Page_store.allocate store Page.Btree_leaf in
     let page = Page.create ~page_size ~pid Page.Btree_leaf in
     Page.set_bytes page ~off:Page.header_size "stable-page-payload";
     Page_store.write store page;
     (store, pid))

(* Bodies under ~100 ns are too short for one sample to time against
   clock noise (OLS r² < 0.5 even at the full budget), so such a row runs
   [loop] calls per sample and the fit gets a slope to resolve; divide by
   [loop] for one call.  Both rows of a before/after pair loop alike, so
   the pair stays comparable. *)
let loop = 100

let looped ?pair name body =
  let pair = match pair with Some p -> ", " ^ p | None -> "" in
  Test.make
    ~name:(Printf.sprintf "%s (x%d%s)" name loop pair)
    (Staged.stage (fun () ->
         for _ = 1 to loop do
           ignore (Sys.opaque_identity (body ()))
         done))

let pool_fixture =
  lazy
    (let clock = Deut_sim.Clock.create () in
     let disk = Deut_sim.Disk.create clock in
     let store = Page_store.create ~page_size in
     let pool = Pool.create ~capacity:64 ~store ~disk ~clock () in
     let pid = Page_store.allocate store Page.Btree_leaf in
     let page = Page.create ~page_size ~pid Page.Btree_leaf in
     Page_store.write store page;
     ignore (Pool.get pool pid);
     (pool, pid))

(* The lazy writer's per-miss check on a pool of young dirty frames:
   4,096 frames, 3,072 of them dirty and pinned, with an age gate no update
   reaches, so no writer sweep can flush.  Each step is one update to a
   dirty page and one miss, which runs the writer's check and evicts one
   of the 1,024 clean frames.  Pinning keeps eviction off the dirty frames;
   the clean frames keep its walk short. *)
let young_dirty_fixture =
  lazy
    (let clock = Deut_sim.Clock.create () in
     let disk = Deut_sim.Disk.create clock in
     let store = Page_store.create ~page_size:1024 in
     let capacity = 4096 and dirty = 3072 and cycle = 2048 in
     let pool =
       Pool.create ~capacity ~lazy_writer_every:1 ~lazy_writer_min_age:(1 lsl 40) ~store ~disk ~clock
         ()
     in
     for _ = 1 to dirty + cycle do
       let pid = Page_store.allocate store Page.Btree_leaf in
       Page_store.write store (Page.create ~page_size:1024 ~pid Page.Btree_leaf)
     done;
     let lsn = ref 0 in
     for pid = 0 to dirty - 1 do
       ignore (Pool.get pool ~pin:true pid);
       incr lsn;
       Pool.mark_dirty pool ~pid ~lsn:!lsn
     done;
     let next = ref 0 in
     fun () ->
       incr lsn;
       Pool.mark_dirty pool ~pid:(!lsn mod dirty) ~lsn:!lsn;
       next := (!next + 1) mod cycle;
       ignore (Pool.get pool (dirty + !next)))

(* Read-mostly tree fixture: 20k rows in a pool large enough to hold them,
   so lookups and updates measure CPU cost, not the simulated disk. *)
let tree_fixture =
  lazy
    (let clock = Deut_sim.Clock.create () in
     let disk = Deut_sim.Disk.create clock in
     let store = Page_store.create ~page_size:4096 in
     let pool = Pool.create ~capacity:2048 ~store ~disk ~clock () in
     let log = Log.create ~page_size:4096 in
     let log_smo smo = Log.append log (Lr.Smo smo) in
     Btree.format_store ~pool ~log_smo;
     let tree = Btree.create ~pool ~table:1 ~log_smo () in
     let lsn = ref 0 in
     for k = 0 to 19_999 do
       match Btree.prepare_write tree ~key:k ~op:Lr.Insert ~value_len:20 with
       | Btree.Leaf { pid; _ } ->
           incr lsn;
           Btree.apply_insert tree ~pid ~key:k ~value:(Printf.sprintf "%020d" k) ~lsn:!lsn
       | _ -> assert false
     done;
     (tree, lsn))

let tests () =
  let rng = Rng.create ~seed:99 in
  [
    Test.make ~name:"checksum-page"
      (Staged.stage (fun () -> Checksum.sub page_buf ~off:0 ~len:page_size));
    looped "checksum-record" (fun () -> Checksum.sub page_buf ~off:32 ~len:encoded_len);
    looped ~pair:"before" "page-read-copy+hash" (fun () ->
        (* What every fetch used to cost: duplicate the stable image, then
           checksum the copy. *)
        let copy = Bytes.copy page_buf in
        Checksum.sub copy ~off:0 ~len:page_size);
    (let store, pid = Lazy.force store_fixture in
     looped ~pair:"after" "page-read-borrow" (fun () -> Page_store.read store pid));
    looped ~pair:"before" "wal-encode-alloc" (fun () -> Lr.encode sample_update);
    (let scratch = Codec.writer () in
     looped ~pair:"after" "wal-encode-scratch" (fun () ->
         Codec.clear scratch;
         Lr.encode_into scratch sample_update;
         Codec.length scratch));
    looped ~pair:"before" "wal-decode-substring" (fun () ->
        Lr.decode (Bytes.sub_string log_like 32 encoded_len));
    looped ~pair:"after" "wal-decode-in-place" (fun () ->
        Lr.decode_sub log_like ~pos:32 ~len:encoded_len);
    (let pool, pid = Lazy.force pool_fixture in
     looped "pool-hit-fetch" (fun () -> Pool.get pool pid));
    Test.make ~name:"pool-miss-young-dirty"
      (Staged.stage (fun () -> (Lazy.force young_dirty_fixture) ()));
    Test.make ~name:"btree-lookup"
      (Staged.stage (fun () ->
           let tree, _ = Lazy.force tree_fixture in
           ignore (Btree.lookup tree ~key:(Rng.int rng 20_000))));
    Test.make ~name:"btree-update-in-place"
      (Staged.stage (fun () ->
           let tree, lsn = Lazy.force tree_fixture in
           let key = Rng.int rng 20_000 in
           match Btree.prepare_write tree ~key ~op:Lr.Update ~value_len:20 with
           | Btree.Leaf { pid; _ } ->
               incr lsn;
               Btree.apply_update tree ~pid ~key ~value:(Printf.sprintf "%020d" key) ~lsn:!lsn
           | _ -> assert false));
    (* The two verification walks over the whole fixture tree: every page
       checked once, then every entry folded along the leaf chain. *)
    Test.make ~name:"btree-check-tree"
      (Staged.stage (fun () ->
           let tree, _ = Lazy.force tree_fixture in
           ignore (Btree.check_tree tree)));
    Test.make ~name:"btree-fold-entries"
      (Staged.stage (fun () ->
           let tree, _ = Lazy.force tree_fixture in
           Btree.fold_entries tree ~init:0 ~f:(fun n _ v -> n + String.length v)));
    (let dpt = Dpt.create () in
     looped "dpt-add-find" (fun () ->
         let pid = Rng.int rng 4096 in
         ignore (Dpt.add dpt ~pid ~lsn:pid);
         Dpt.find dpt pid));
  ]

let run ~quick () =
  (* A quick run is a smoke test: a tenth of the sampling budget keeps the
     whole harness inside the CI time budget, but it is too small to fit a
     slope for every row, so a row whose fit has r² < 0.5 prints n/a
     instead of a slope. *)
  let cfg =
    if quick then
      Benchmark.cfg ~limit:400 ~quota:(Time.second 0.08) ~kde:None ()
    else Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None ()
  in
  (* Build the fixtures before sampling starts, so no sample times a
     build. *)
  ignore
    ( Lazy.force store_fixture,
      Lazy.force pool_fixture,
      Lazy.force young_dirty_fixture,
      Lazy.force tree_fixture );
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let instance = Instance.monotonic_clock in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%-36s %14s %10s\n%s\n" "benchmark" "ns/op (OLS)" "r²" (String.make 62 '-'));
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let result = Analyze.one ols instance (Benchmark.run cfg [ instance ] elt) in
          let estimate = match Analyze.OLS.estimates result with Some [ e ] -> e | _ -> nan in
          let r2 = Option.value (Analyze.OLS.r_square result) ~default:nan in
          let slope = if r2 >= 0.5 then Printf.sprintf "%.1f" estimate else "n/a" in
          Buffer.add_string buf
            (Printf.sprintf "%-36s %14s %10.4f\n" (Test.Elt.name elt) slope r2))
        (Test.elements test))
    (tests ());
  Buffer.contents buf
