(* The Δ/BW monitor: emission cadence and record contents (§3.3, §4.1). *)

module Monitor = Deut_core.Monitor
module Config = Deut_core.Config
module Lr = Deut_wal.Log_record
module Lsn = Deut_wal.Lsn

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

type env = {
  monitor : Monitor.t;
  records : Lr.t list ref;
  stable : Lsn.t ref;
}

let make ?(config = Config.default) () =
  let records = ref [] in
  let stable = ref 0 in
  let log_append r =
    records := r :: !records;
    String.length (Lr.encode r)
  in
  let monitor = Monitor.create ~config ~log_append ~stable_lsn:(fun () -> !stable) () in
  { monitor; records; stable }

let deltas e =
  List.filter_map (function Lr.Delta d -> Some d | _ -> None) (List.rev !(e.records))

let bws e = List.filter_map (function Lr.Bw b -> Some b | _ -> None) (List.rev !(e.records))

let config ?(dpt_mode = Config.Standard) ?(period = 10) ?(capacity = 100) () =
  { Config.default with Config.delta_period = period; delta_capacity = capacity; dpt_mode }

let test_periodic_emission () =
  let e = make ~config:(config ()) () in
  for i = 1 to 9 do
    Monitor.on_dirty e.monitor ~pid:i ~lsn:i;
    Monitor.tick_update e.monitor
  done;
  check_int "no emission before the period" 0 (List.length (deltas e));
  Monitor.on_dirty e.monitor ~pid:10 ~lsn:10;
  Monitor.tick_update e.monitor;
  (match deltas e with
  | [ d ] ->
      Alcotest.(check (array int)) "dirty set order" (Array.init 10 (fun i -> i + 1)) d.Lr.dirty;
      check "no flushes: nil FW-LSN" true (Lsn.is_nil d.Lr.fw_lsn);
      check_int "first_dirty = |dirty| without flush" 10 d.Lr.first_dirty;
      check "written empty" true (d.Lr.written = [||])
  | l -> Alcotest.failf "expected one Δ record, got %d" (List.length l));
  check_int "no BW without flushes" 0 (List.length (bws e));
  check_int "counter" 1 (Monitor.deltas_written e.monitor)

let test_fw_lsn_and_first_dirty () =
  let e = make ~config:(config ()) () in
  Monitor.on_dirty e.monitor ~pid:1 ~lsn:5;
  Monitor.on_dirty e.monitor ~pid:2 ~lsn:6;
  e.stable := 77;
  Monitor.on_flush e.monitor ~pid:1;
  (* First flush captured the stable end and the DirtySet watermark. *)
  Monitor.on_dirty e.monitor ~pid:3 ~lsn:80;
  e.stable := 90;
  Monitor.on_flush e.monitor ~pid:2;
  Monitor.emit_pending e.monitor;
  (match deltas e with
  | [ d ] ->
      check_int "fw_lsn is stable end at FIRST flush" 77 d.Lr.fw_lsn;
      check_int "first_dirty splits before/after first flush" 2 d.Lr.first_dirty;
      Alcotest.(check (array int)) "dirty order" [| 1; 2; 3 |] d.Lr.dirty;
      Alcotest.(check (array int)) "written order" [| 1; 2 |] d.Lr.written
  | l -> Alcotest.failf "expected one Δ record, got %d" (List.length l));
  match bws e with
  | [ b ] ->
      check_int "bw fw_lsn" 77 b.Lr.fw_lsn;
      Alcotest.(check (array int)) "bw written" [| 1; 2 |] b.Lr.written
  | l -> Alcotest.failf "expected one BW record, got %d" (List.length l)

let test_delta_before_bw () =
  (* §5.2: Δ-log records are written exactly before BW-log records. *)
  let e = make ~config:(config ()) () in
  Monitor.on_dirty e.monitor ~pid:1 ~lsn:1;
  Monitor.on_flush e.monitor ~pid:1;
  Monitor.emit_pending e.monitor;
  match List.rev !(e.records) with
  | [ Lr.Delta _; Lr.Bw _ ] -> ()
  | _ -> Alcotest.fail "expected Δ record immediately before BW record"

let test_capacity_trigger_delta_only () =
  let e = make ~config:(config ~capacity:5 ()) () in
  for i = 1 to 5 do
    Monitor.on_dirty e.monitor ~pid:i ~lsn:i
  done;
  (* DirtySet hit capacity: Δ emitted without any tick, BW not. *)
  check_int "capacity-triggered Δ" 1 (List.length (deltas e));
  check_int "no BW for a dirty-only record" 0 (List.length (bws e));
  check_int "counters agree" 1 (Monitor.deltas_written e.monitor)

let test_interval_reset () =
  let e = make ~config:(config ()) () in
  Monitor.on_dirty e.monitor ~pid:1 ~lsn:1;
  e.stable := 10;
  Monitor.on_flush e.monitor ~pid:1;
  Monitor.emit_pending e.monitor;
  (* Second interval starts from scratch. *)
  Monitor.on_dirty e.monitor ~pid:2 ~lsn:20;
  Monitor.emit_pending e.monitor;
  match deltas e with
  | [ _; d2 ] ->
      Alcotest.(check (array int)) "fresh dirty set" [| 2 |] d2.Lr.dirty;
      check "fresh fw_lsn" true (Lsn.is_nil d2.Lr.fw_lsn);
      check "fresh written" true (d2.Lr.written = [||])
  | l -> Alcotest.failf "expected two Δ records, got %d" (List.length l)

let test_empty_emission_skipped () =
  let e = make ~config:(config ()) () in
  Monitor.emit_pending e.monitor;
  for _ = 1 to 25 do
    Monitor.tick_update e.monitor
  done;
  check_int "nothing to say, nothing written" 0 (List.length !(e.records))

let test_perfect_mode_dirty_lsns () =
  let e = make ~config:(config ~dpt_mode:Config.Perfect ()) () in
  Monitor.on_dirty e.monitor ~pid:7 ~lsn:100;
  Monitor.on_dirty e.monitor ~pid:8 ~lsn:200;
  Monitor.emit_pending e.monitor;
  match deltas e with
  | [ d ] ->
      Alcotest.(check (array int)) "exact dirtying LSNs" [| 100; 200 |] d.Lr.dirty_lsns;
      Alcotest.(check (array int)) "pids" [| 7; 8 |] d.Lr.dirty
  | l -> Alcotest.failf "expected one Δ record, got %d" (List.length l)

let test_reduced_mode_drops_fw () =
  let e = make ~config:(config ~dpt_mode:Config.Reduced ()) () in
  Monitor.on_dirty e.monitor ~pid:1 ~lsn:1;
  e.stable := 50;
  Monitor.on_flush e.monitor ~pid:1;
  Monitor.on_dirty e.monitor ~pid:2 ~lsn:60;
  Monitor.emit_pending e.monitor;
  match deltas e with
  | [ d ] ->
      check "reduced: no fw_lsn" true (Lsn.is_nil d.Lr.fw_lsn);
      check_int "reduced: first_dirty = |dirty|" 2 d.Lr.first_dirty;
      check "written still present" true (d.Lr.written = [| 1 |]);
      check "no dirty_lsns" true (d.Lr.dirty_lsns = [||])
  | l -> Alcotest.failf "expected one Δ record, got %d" (List.length l)

let test_written_capacity_triggers_both () =
  (* A full WrittenSet forces both records out, Δ first. *)
  let e = make ~config:(config ~capacity:3 ()) () in
  Monitor.on_dirty e.monitor ~pid:9 ~lsn:1;
  e.stable := 5;
  Monitor.on_flush e.monitor ~pid:1;
  Monitor.on_flush e.monitor ~pid:2;
  Monitor.on_flush e.monitor ~pid:3;
  (match List.rev !(e.records) with
  | [ Lr.Delta d; Lr.Bw b ] ->
      Alcotest.(check (array int)) "delta written" [| 1; 2; 3 |] d.Lr.written;
      Alcotest.(check (array int)) "delta dirty came along" [| 9 |] d.Lr.dirty;
      Alcotest.(check (array int)) "bw written" [| 1; 2; 3 |] b.Lr.written
  | l -> Alcotest.failf "expected Δ then BW, got %d records" (List.length l));
  check_int "counters" 1 (Monitor.deltas_written e.monitor);
  check_int "counters bw" 1 (Monitor.bws_written e.monitor);
  check "byte accounting" true (Monitor.delta_bytes e.monitor > Monitor.bw_bytes e.monitor)

let test_runtime_dpt_aries_mode () =
  let aries = { (config ()) with Config.checkpoint_mode = Config.Aries_fuzzy } in
  let e = make ~config:aries () in
  Monitor.on_dirty e.monitor ~pid:3 ~lsn:30;
  Monitor.on_dirty e.monitor ~pid:1 ~lsn:10;
  (* Flush removes from the runtime map. *)
  Monitor.on_flush e.monitor ~pid:3;
  Alcotest.(check (array (triple int int int)))
    "runtime DPT tracks unflushed dirty pages" [| (1, 10, 10) |]
    (Monitor.runtime_dpt e.monitor);
  (* In penultimate mode, the map is not maintained. *)
  let e2 = make ~config:(config ()) () in
  Monitor.on_dirty e2.monitor ~pid:1 ~lsn:10;
  check_int "penultimate: no runtime DPT" 0 (Array.length (Monitor.runtime_dpt e2.monitor))

let suite =
  [
    Alcotest.test_case "periodic emission" `Quick test_periodic_emission;
    Alcotest.test_case "FW-LSN and FirstDirty" `Quick test_fw_lsn_and_first_dirty;
    Alcotest.test_case "Δ before BW" `Quick test_delta_before_bw;
    Alcotest.test_case "capacity triggers Δ only" `Quick test_capacity_trigger_delta_only;
    Alcotest.test_case "interval reset" `Quick test_interval_reset;
    Alcotest.test_case "empty emission skipped" `Quick test_empty_emission_skipped;
    Alcotest.test_case "perfect mode" `Quick test_perfect_mode_dirty_lsns;
    Alcotest.test_case "reduced mode" `Quick test_reduced_mode_drops_fw;
    Alcotest.test_case "written capacity triggers both" `Quick test_written_capacity_triggers_both;
    Alcotest.test_case "runtime DPT (ARIES mode)" `Quick test_runtime_dpt_aries_mode;
  ]
