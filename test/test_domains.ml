(* Real OS-level parallelism only fans harness cells across domains; it
   never reaches a recovery.  The tests here recover the same crash image
   with every method at 1 and 4 domains and check the statistics and the
   store and logical digests identical; run the fig2 sweep at 1, 2 and 4
   domains and check every fanned cell against the sequential one; fire
   the shared digest gate; and instantiate one crash image from several
   domains at once to prove images are immutable shareable inputs.  The
   obs structures' single-domain ownership guards are exercised last. *)

module Db = Deut_core.Db
module Config = Deut_core.Config
module Recovery = Deut_core.Recovery
module Rs = Deut_core.Recovery_stats
module Workload = Deut_workload.Workload
module Driver = Deut_workload.Driver
module Experiment = Deut_workload.Experiment
module Figures = Deut_workload.Figures
module Client_sched = Deut_workload.Client_sched
module Domain_pool = Deut_sim.Domain_pool
module Metrics = Deut_obs.Metrics
module Trace = Deut_obs.Trace
module Json = Deut_obs.Json

let check = Alcotest.(check bool)

let small_config ?(domains = 1) () =
  {
    Env.config with
    Config.page_size = 1024;
    pool_pages = 48;
    delta_period = 40;
    delta_capacity = 64;
    shards = 1;
    redo_workers = 1;
    domains;
  }

let make_crash ?(op_mix = Workload.Update_only) ?(rows = 1200) () =
  let spec = { Workload.default with Workload.rows; value_size = 16; op_mix; seed = 11 } in
  let driver = Driver.create ~config:(small_config ()) spec in
  Driver.run_crash_protocol driver ~checkpoints:3 ~interval:300 ~tail:15;
  Driver.start_loser driver ~ops:8;
  (driver, Driver.crash driver)

(* The redo decisions and undo work — what the fig2 fan-out must
   reproduce cell by cell. *)
let apply_counts (s : Rs.t) =
  [
    s.Rs.records_scanned;
    s.Rs.redo_candidates;
    s.Rs.redo_applied;
    s.Rs.skipped_dpt;
    s.Rs.skipped_rlsn;
    s.Rs.skipped_plsn;
    s.Rs.tail_records;
    s.Rs.dpt_size;
    s.Rs.smos_replayed;
    s.Rs.losers;
    s.Rs.clrs_written;
  ]

let recover_with driver image method_ domains =
  let db, stats = Db.recover ~config:(small_config ~domains ()) image method_ in
  (match Driver.verify_recovered driver db with
  | Ok () -> ()
  | Error msg ->
      Alcotest.failf "%s at %d domains: wrong state: %s" (Recovery.method_to_string method_)
        domains msg);
  let logical = Client_sched.logical_digest db in
  (Experiment.store_digest db, logical, stats)

let stats_t = Alcotest.testable Rs.pp ( = )

(* The domain count never reaches a recovery: every method returns the
   same statistics — simulated times and IO counts included — and the
   same store and logical state at 1 and 4 domains, on an update-only
   image and on an SMO-heavy one. *)
let test_recovery_ignores_domains () =
  let images =
    [
      ("update-only", make_crash ());
      ( "SMO-heavy",
        make_crash
          ~op_mix:(Workload.Mixed { update = 0.3; insert = 0.6; delete = 0.1; read = 0.0 })
          ~rows:800 () );
    ]
  in
  List.iter
    (fun (label, (driver, image)) ->
      List.iter
        (fun m ->
          let name what =
            Printf.sprintf "%s %s: %s at 4 domains" label (Recovery.method_to_string m) what
          in
          let store1, logical1, stats1 = recover_with driver image m 1 in
          let store4, logical4, stats4 = recover_with driver image m 4 in
          Alcotest.check stats_t (name "recovery stats") stats1 stats4;
          check (name "store digest") true (String.equal store1 store4);
          check (name "logical digest") true (String.equal logical1 logical4))
        Recovery.all_methods)
    images

(* A crash image is an immutable input: several domains instantiating and
   recovering from the same image concurrently must neither perturb each
   other nor the image (a later sequential recovery still matches). *)
let test_crash_image_isolation () =
  let driver, image = make_crash () in
  let reference = recover_with driver image Recovery.Log1 1 in
  let pool = Domain_pool.create ~domains:4 in
  let results =
    Domain_pool.map pool
      (fun _ -> recover_with driver image Recovery.Log1 1)
      [ 0; 1; 2; 3 ]
  in
  List.iteri
    (fun i r ->
      check (Printf.sprintf "concurrent recovery %d matches reference" i) true (r = reference))
    results;
  check "image unperturbed after concurrent use" true
    (recover_with driver image Recovery.Log1 1 = reference)

(* Harness fan-out: the fig2 sweep fanned across 2 domains (each builds
   and recovers several cells in turn) and 4 (every cell has its own
   domain) must return the sequential sweep's JSON in every field
   [bench-diff] gates: cell and method order, every count, every simulated
   time and every digest. *)
let test_fig2_cells_deterministic () =
  let fig2 = List.find (fun (s : Figures.sweep) -> s.name = "fig2") Figures.sweeps in
  let sweep domains =
    fig2.run
      {
        Figures.config = { Env.config with Config.domains };
        scale = 256;
        cache = None;
        methods = Some [ Recovery.Log1; Recovery.Log2 ];
        progress = ignore;
      }
      [ ("cache-sizes", [ 64; 128 ]) ]
  in
  let reference = sweep 1 in
  List.iter
    (fun domains ->
      let d = Json.diff ~ungated:Deut_workload.Bench_summary.is_wall reference (sweep domains) in
      Alcotest.(check (list string))
        (Printf.sprintf "fig2 at %d domains: no gated field differs" domains)
        [] d.Json.gated)
    [ 2; 4 ]

(* The shared determinism gate passes agreeing cells and, on a divergence,
   raises [Failure] naming both cells' coordinates. *)
let test_digest_gate () =
  Figures.digests_agree "test sweep" [ ("1 shard", "d0"); ("4 shards", "d0"); ("8 shards", "d0") ];
  let contains s sub =
    let n = String.length sub in
    let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
    at 0
  in
  match
    Figures.digests_agree "test sweep"
      [ ("1 shard/4 clients", "aaaa"); ("4 shards/4 clients", "bbbb") ]
  with
  | () -> Alcotest.fail "diverged digests passed the gate"
  | exception Failure msg ->
      List.iter
        (fun part -> check (Printf.sprintf "failure names %S" part) true (contains msg part))
        [ "test sweep"; "1 shard/4 clients"; "4 shards/4 clients"; "aaaa"; "bbbb" ]

let test_domain_pool () =
  let pool = Domain_pool.create ~domains:4 in
  let items = List.init 37 Fun.id in
  Alcotest.(check (list int))
    "results in input order" (List.map (fun i -> i * i) items)
    (Domain_pool.map pool (fun i -> i * i) items);
  check "exception propagates" true
    (match Domain_pool.map pool (fun i -> if i = 13 then failwith "boom" else i) items with
    | _ -> false
    | exception Failure msg -> msg = "boom")

(* The loud ownership guards: instrumentation structures refuse writes
   from domains that do not own them instead of tearing their rings. *)
let test_obs_owner_guards () =
  let metrics = Metrics.create () in
  let trace = Trace.create ~now:(fun () -> 0.0) () in
  let refused f =
    Domain.join
      (Domain.spawn (fun () ->
           match f () with () -> false | exception Invalid_argument _ -> true))
  in
  check "metrics registration refused cross-domain" true
    (refused (fun () -> ignore (Metrics.counter metrics "guard.test")));
  check "trace push refused cross-domain" true
    (refused (fun () -> Trace.instant trace ~name:"guard" ~cat:"test" ()));
  (* The owner itself is unaffected. *)
  Metrics.incr (Metrics.counter metrics "guard.test");
  Trace.instant trace ~name:"guard" ~cat:"test" ();
  check "owner writes fine" true
    (Metrics.read_int metrics "guard.test" = 1 && Trace.emitted trace = 1)

let suite =
  [
    Alcotest.test_case "recovery ignores the domain count" `Quick test_recovery_ignores_domains;
    Alcotest.test_case "crash-image isolation" `Quick test_crash_image_isolation;
    Alcotest.test_case "fig2 cells deterministic" `Slow test_fig2_cells_deterministic;
    Alcotest.test_case "digest gate names both cells" `Quick test_digest_gate;
    Alcotest.test_case "domain pool order and errors" `Quick test_domain_pool;
    Alcotest.test_case "obs ownership guards" `Quick test_obs_owner_guards;
  ]
