(* Crash torture: randomized workloads crashed at random points, recovered
   with every method (including the Appendix D logging variants), each
   recovery checked against the committed-state oracle and the B-tree
   structural invariants.  A miniature of the repository's qcheck suites,
   runnable as a standalone confidence drill.

   Run with:  dune exec examples/crash_torture.exe -- [rounds] *)

module Db = Deut_core.Db
module Config = Deut_core.Config
module Recovery = Deut_core.Recovery
module Workload = Deut_workload.Workload
module Driver = Deut_workload.Driver
module Rng = Deut_sim.Rng

let () =
  let rounds = try int_of_string Sys.argv.(1) with _ -> 12 in
  let env = Config.of_env Config.default in
  let rng = Rng.create ~seed:31337 in
  let failures = ref 0 in
  for round = 1 to rounds do
    (* Randomize everything that plausibly interacts with recovery. *)
    let dpt_mode =
      match Rng.int rng 3 with 0 -> Config.Standard | 1 -> Config.Perfect | _ -> Config.Reduced
    in
    let log_layout = if Rng.int rng 3 = 0 then Config.Split else Config.Integrated in
    let config =
      {
        env with
        Config.page_size = 512 * (1 + Rng.int rng 2);
        pool_pages = 24 + Rng.int rng 64;
        delta_period = 20 + Rng.int rng 60;
        delta_capacity = 32 + Rng.int rng 64;
        lazy_writer_every = 1 + Rng.int rng 3;
        dpt_mode;
        log_layout;
      }
    in
    let op_mix =
      if Rng.bool rng then Workload.Update_only
      else Workload.Mixed { update = 0.5; insert = 0.25; delete = 0.15; read = 0.1 }
    in
    let spec =
      {
        Workload.default with
        Workload.rows = 300 + Rng.int rng 1500;
        value_size = 8 + Rng.int rng 24;
        op_mix;
        key_dist = (if Rng.bool rng then Workload.Uniform else Workload.Zipf 0.9);
        seed = Rng.int rng 100000;
      }
    in
    let driver = Driver.create ~config spec in
    Driver.run_crash_protocol driver
      ~checkpoints:(1 + Rng.int rng 3)
      ~interval:(100 + Rng.int rng 300)
      ~tail:(Rng.int rng 30);
    if Rng.bool rng then Driver.start_loser driver ~ops:(1 + Rng.int rng 12);
    let image = Driver.crash driver in
    let methods =
      match log_layout with
      | Config.Split -> [ Recovery.Log0; Recovery.Log1; Recovery.Log2 ]
      | Config.Integrated -> Recovery.all_methods
    in
    List.iter
      (fun m ->
        let recovered, _stats = Db.recover image m in
        match Driver.verify_recovered driver recovered with
        | Ok () -> ()
        | Error msg ->
            incr failures;
            Printf.printf "round %2d %-5s FAILED: %s\n%!" round (Recovery.method_to_string m) msg)
      methods;
    Printf.printf "round %2d ok (%s, %s, %d rows, pool %d, %s)\n%!" round
      (Config.log_layout_to_string log_layout)
      (Config.dpt_mode_to_string config.Config.dpt_mode)
      spec.Workload.rows config.Config.pool_pages
      (match op_mix with Workload.Update_only -> "update-only" | _ -> "mixed ops")
  done;
  if !failures = 0 then Printf.printf "torture passed: %d rounds x 5 methods, all verified.\n" rounds
  else begin
    Printf.printf "%d failures!\n" !failures;
    exit 1
  end
