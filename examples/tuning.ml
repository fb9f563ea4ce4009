(* The Appendix D trade-off, live: how much the DC logs during normal
   execution versus how fast logical recovery runs.  Sweeps the Δ-record
   period (how often the DC emits its dirty/flush bookkeeping) and prints
   normal-execution overhead against Log1 redo time.

   Run with:  dune exec examples/tuning.exe *)

module Config = Deut_core.Config
module Recovery = Deut_core.Recovery
module Recovery_stats = Deut_core.Recovery_stats
module Workload = Deut_workload.Workload
module Driver = Deut_workload.Driver
module Db = Deut_core.Db
module Report = Deut_workload.Report

let () =
  let env = Config.of_env Config.default in
  let rows = 4000 in
  let header =
    [ "Δ period (updates)"; "Δ records"; "Δ KiB logged"; "DPT size"; "Log1 redo (ms)"; "tail" ]
  in
  let row period =
    let config =
      {
        env with
        Config.page_size = 1024;
        pool_pages = 96;
        delta_period = period;
        delta_capacity = 512;
      }
    in
    let spec = { Workload.default with Workload.rows; value_size = 16; seed = 77 } in
    let driver = Driver.create ~config spec in
    Driver.run_crash_protocol driver ~checkpoints:3 ~interval:600 ~tail:(min 25 (period / 2));
    let db = Driver.db driver in
    let deltas = Db.metric db "monitor.delta_records"
    and delta_kb = float_of_int (Db.metric db "monitor.delta_bytes") /. 1024. in
    let image = Driver.crash driver in
    let recovered, stats = Db.recover image Recovery.Log1 in
    (match Driver.verify_recovered driver recovered with
    | Ok () -> ()
    | Error e -> failwith e);
    [
      string_of_int period;
      string_of_int deltas;
      Printf.sprintf "%.1f" delta_kb;
      string_of_int stats.Recovery_stats.dpt_size;
      Printf.sprintf "%.1f" (Recovery_stats.redo_ms stats);
      string_of_int stats.Recovery_stats.tail_records;
    ]
  in
  let rows_out = List.map row [ 10; 25; 50; 100; 200; 400 ] in
  print_string
    (Report.table
       ~title:
         "Δ-record cadence: normal-operation logging overhead vs recovery speed\n\
          (frequent Δ records shrink the unprotected log tail but cost log\n\
          bandwidth — the spectrum of Appendix D)"
       ~header ~rows:rows_out ())
