(* The benchmark's command line:

     bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--inject-fault]

   Runs one workload for S seconds and prints, as its last line, one JSON
   object: whether every output checked out, how many units (restarts and
   transactions) were attempted and failed, and every end-to-end metric
   (--trace 0) or every per-layer metric (--trace 1) by name with its unit.
   Exits 1 when any check failed. *)

let usage =
  "bench.exe --workload restart-paper|restart-instant|oltp-mixed --seed N --seconds S --trace 0|1 \
   [--inject-fault]"

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and trace = ref 0 in
  let fault = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of the workloads");
      ("--seed", Arg.Set_int seed, "N input seed (0 reproduces Experiment.paper_setup's seeds)");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or per-layer metrics (1)");
      ("--inject-fault", Arg.Set fault, " corrupt one recovered state (the gate must fail)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if not (List.mem !workload Catalog.workloads) then (
    prerr_endline ("unknown workload '" ^ !workload ^ "'\n" ^ usage);
    exit 2);
  if !trace <> 0 && !trace <> 1 then (
    prerr_endline usage;
    exit 2);
  Wall.pin_gc ();
  let g = Gc.get () in
  Printf.printf "# gc: minor_heap_size=%d words space_overhead=%d; two major cycles before every timed sample\n%!"
    g.Gc.minor_heap_size g.Gc.space_overhead;
  let run = { Common.seed = !seed; seconds = !seconds; trace = !trace = 1; fault = !fault } in
  let o =
    match !workload with
    | "restart-paper" -> Restart.run_workload Restart.Paper run
    | "restart-instant" -> Restart.run_workload Restart.Instant run
    | _ -> Oltp.run_workload run
  in
  let t = o.Common.tally in
  let fail_ratio = Common.ratio t.Common.failed t.Common.attempted in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name Catalog.per_layer) then failwith ("uncatalogued metric " ^ name))
    o.Common.layers;
  let metrics =
    if run.Common.trace then
      List.map
        (fun (name, unit_) ->
          let value =
            if name = "fail_ratio" then fail_ratio
            else Option.value (List.assoc_opt name o.Common.layers) ~default:0.0
          in
          { Report.name; unit_; value })
        Catalog.per_layer
    else
      List.map
        (fun (name, unit_) ->
          match List.assoc_opt name o.Common.e2e with
          | Some value -> { Report.name; unit_; value }
          | None -> failwith ("no value for end-to-end metric " ^ name))
        Catalog.end_to_end
  in
  let correct = t.Common.failed = 0 in
  Printf.printf "# %s: %d attempted, %d failed (fail_ratio %g)\n" !workload t.Common.attempted
    t.Common.failed fail_ratio;
  print_endline
    (Report.to_json { Report.correct; attempted = t.Common.attempted; failed = t.Common.failed; metrics });
  exit (if correct then 0 else 1)
