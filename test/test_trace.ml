(* Observability layer: trace ring semantics, Chrome-JSON export,
   same-seed determinism of traced recoveries, span/counter agreement,
   histogram bucketing, and CSV quoting. *)

module Db = Deut_core.Db
module Config = Deut_core.Config
module Engine = Deut_core.Engine
module Recovery = Deut_core.Recovery
module Recovery_stats = Deut_core.Recovery_stats
module Workload = Deut_workload.Workload
module Driver = Deut_workload.Driver
module Trace = Deut_obs.Trace
module Metrics = Deut_obs.Metrics
module Analysis = Deut_obs.Analysis

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ---------- ring buffer ---------- *)

let test_ring_wraparound () =
  let clock = ref 0.0 in
  let tr = Trace.create ~now:(fun () -> !clock) ~capacity:4 () in
  for i = 1 to 10 do
    clock := float_of_int i;
    Trace.instant tr ~name:(Printf.sprintf "e%d" i) ~cat:"t" ()
  done;
  check_int "length capped at capacity" 4 (Trace.length tr);
  check_int "all emissions counted" 10 (Trace.emitted tr);
  check_int "overflow reported" 6 (Trace.dropped tr);
  let names = List.map (fun ev -> ev.Trace.name) (Trace.events tr) in
  Alcotest.(check (list string)) "oldest-first, newest retained" [ "e7"; "e8"; "e9"; "e10" ] names;
  Trace.stop tr;
  Trace.instant tr ~name:"late" ~cat:"t" ();
  check_int "stopped trace drops emissions" 10 (Trace.emitted tr)

(* ---------- minimal JSON well-formedness checker ---------- *)

(* Recursive-descent validator for the JSON subset the exporter emits;
   raises [Failure] on malformed input. *)
let validate_json s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos >= n then failwith "eof" else s.[!pos] in
  let advance () = incr pos in
  let skip_ws () = while !pos < n && (peek () = ' ' || peek () = '\n') do advance () done in
  let expect c = if peek () <> c then failwith (Printf.sprintf "expected %c at %d" c !pos) else advance () in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' -> obj ()
    | '[' -> arr ()
    | '"' -> string_lit ()
    | '-' | '0' .. '9' -> number ()
    | 't' -> literal "true"
    | 'f' -> literal "false"
    | 'n' -> literal "null"
    | c -> failwith (Printf.sprintf "unexpected %c at %d" c !pos)
  and literal lit =
    String.iter (fun c -> expect c) lit
  and string_lit () =
    expect '"';
    let rec go () =
      match peek () with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (match peek () with
          | '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' -> advance ()
          | 'u' ->
              advance ();
              for _ = 1 to 4 do
                (match peek () with
                | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> advance ()
                | _ -> failwith "bad \\u escape")
              done
          | _ -> failwith "bad escape");
          go ()
      | c when Char.code c < 0x20 -> failwith "raw control char in string"
      | _ ->
          advance ();
          go ()
    in
    go ()
  and number () =
    if peek () = '-' then advance ();
    while !pos < n && (match peek () with '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true | _ -> false) do
      advance ()
    done
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = '}' then advance ()
    else
      let rec members () =
        skip_ws ();
        string_lit ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        if peek () = ',' then begin advance (); members () end else expect '}'
      in
      members ()
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = ']' then advance ()
    else
      let rec elements () =
        value ();
        skip_ws ();
        if peek () = ',' then begin advance (); elements () end else expect ']'
      in
      elements ()
  in
  value ();
  skip_ws ();
  if !pos <> n then failwith "trailing garbage"

(* ---------- traced recovery ---------- *)

let traced base =
  {
    base with
    Config.page_size = 1024;
    pool_pages = 48;
    delta_period = 40;
    delta_capacity = 64;
    shards = 1;
    tracing = true;
    trace_capacity = 1 lsl 18;
  }

let traced_config = traced Env.config

let small_spec = { Workload.default with Workload.rows = 1200; value_size = 16; seed = 5 }

let make_crash () =
  let driver = Driver.create ~config:traced_config small_spec in
  Driver.run_crash_protocol driver ~checkpoints:3 ~interval:300 ~tail:15;
  Driver.start_loser driver ~ops:8;
  (driver, Driver.crash driver)

let recover_traced image method_ =
  let db, stats = Db.recover ~config:traced_config image method_ in
  let tr =
    match Engine.trace (Db.engine db) with
    | Some tr -> tr
    | None -> Alcotest.fail "tracing enabled in config but engine has no trace"
  in
  (db, stats, tr)

let test_traced_recovery_deterministic () =
  let _, image = make_crash () in
  List.iter
    (fun m ->
      let _, _, tr1 = recover_traced image m in
      let _, _, tr2 = recover_traced image m in
      let j1 = Trace.to_chrome_json tr1 and j2 = Trace.to_chrome_json tr2 in
      check
        (Printf.sprintf "%s: same-seed traces byte-identical" (Recovery.method_to_string m))
        true (String.equal j1 j2))
    [ Recovery.Log2; Recovery.Sql2 ]

let test_chrome_json_well_formed () =
  let _, image = make_crash () in
  let _, _, tr = recover_traced image Recovery.Log2 in
  check "trace non-empty" true (Trace.length tr > 0);
  check_int "nothing dropped at this scale" 0 (Trace.dropped tr);
  let json = Trace.to_chrome_json tr in
  (match validate_json json with
  | () -> ()
  | exception Failure msg -> Alcotest.failf "exported JSON malformed: %s" msg);
  (* The export carries every buffered event plus one lane-name record per
     lane — the 7 fixed lanes and every other lane an event lands on
     (parallel-redo workers, the network, shards) — plus one process-name
     record per pid those lanes live on. *)
  let lanes =
    List.sort_uniq compare (List.init 7 Fun.id @ List.map (fun ev -> ev.Trace.track) (Trace.events tr))
  in
  let pids = List.sort_uniq compare (List.map Trace.pid_of_track lanes) in
  let count_occurrences needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i acc =
      if i + nl > hl then acc
      else if String.sub hay i nl = needle then go (i + 1) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  check_int "all events exported"
    (Trace.length tr + List.length pids + List.length lanes)
    (count_occurrences "\"name\":" json - count_occurrences "\"args\":{\"name\":" json)

let test_spans_match_counters () =
  let _, image = make_crash () in
  List.iter
    (fun m ->
      let _, stats, tr = recover_traced image m in
      check_int
        (Printf.sprintf "%s: one page_fetch span per fetch" (Recovery.method_to_string m))
        (stats.Recovery_stats.data_page_fetches + stats.Recovery_stats.index_page_fetches)
        (Trace.count tr ~kind:Trace.Span ~name:"page_fetch" ());
      check_int
        (Printf.sprintf "%s: one redo_op span per candidate" (Recovery.method_to_string m))
        stats.Recovery_stats.redo_candidates
        (Trace.count tr ~kind:Trace.Span ~name:"redo_op" ());
      List.iter
        (fun phase ->
          check_int
            (Printf.sprintf "%s: exactly one %s phase span" (Recovery.method_to_string m) phase)
            1
            (Trace.count tr ~kind:Trace.Span ~name:phase ()))
        [ "analysis"; "redo"; "undo" ])
    [ Recovery.Log1; Recovery.Sql1 ]

(* ---------- pinned export bytes ---------- *)

(* The exact bytes of both exporters, fixed by their MD5.  A deliberate
   format change re-pins them. *)
let pinned_config = traced Config.default

let pinned_crash config =
  let driver = Driver.create ~config small_spec in
  Driver.run_crash_protocol driver ~checkpoints:3 ~interval:300 ~tail:15;
  Driver.start_loser driver ~ops:8;
  Driver.crash driver

let test_export_bytes_pinned () =
  let image = pinned_crash pinned_config in
  let md5 s = Digest.to_hex (Digest.string s) in
  List.iter
    (fun (m, want_trace, want_profile) ->
      let name = Recovery.method_to_string m in
      let db, _ = Db.recover ~config:pinned_config image m in
      let tr = Option.get (Engine.trace (Db.engine db)) in
      check_str (name ^ ": Chrome JSON bytes") want_trace
        (md5 (Trace.to_chrome_json ~metrics:(Engine.metrics (Db.engine db)) tr));
      check_str (name ^ ": profile JSON bytes") want_profile
        (md5 (Analysis.to_json (Analysis.of_trace tr))))
    [
      (Recovery.Log2, "0203aa3d406d2f27975450a9ade13c03", "1b0b9f8dfe5b2810e78aeb0ebf494939");
      (Recovery.Sql2, "d9be57e1dac05dba3e67ab37beaeb8d2", "357a06e9e4ad2a090e2e26f6d7a64c21");
    ]

(* ---------- pinned recovery statistics ---------- *)

(* Every method's [Recovery_stats] rendering on the pinned small crash:
   the seven methods (ARIES-ckpt on the same workload checkpointed the
   fuzzy ARIES way), Log1 under the perfect and reduced DPT modes of
   Appendix D, and the logical methods on a four-shard image, whose
   analysis runs overlapped across shards.  The config starts from the
   pure [Config.default], so these hold on every CI leg; a change that
   moves one of these numbers changes the recovery itself. *)
let golden_stats =
  [
      ( "Log0",
        {|analysis 5.5 ms, redo 515.0 ms, undo 0.0 ms
records: scanned 355, candidates 308, applied 79, tail 0
skips: dpt 0, rlsn 0, plsn 229
fetches: data 124 (stall 500.3 ms), index 2 (stall 8.1 ms), log pages 58
dpt 0 entries; Δ seen 8, BW seen 7, SMO replayed 0
prefetch: issued 0, hits 0, stalls 126
undo: losers 1, CLRs 8|} );
      ( "Log1",
        {|analysis 5.5 ms, redo 231.5 ms, undo 0.0 ms
records: scanned 355, candidates 308, applied 79, tail 38
skips: dpt 89, rlsn 117, plsn 23
fetches: data 53 (stall 216.7 ms), index 2 (stall 8.1 ms), log pages 58
dpt 41 entries; Δ seen 8, BW seen 7, SMO replayed 0
prefetch: issued 0, hits 0, stalls 55
undo: losers 1, CLRs 8|} );
      ( "SQL1",
        {|analysis 5.5 ms, redo 234.9 ms, undo 0.1 ms
records: scanned 355, candidates 308, applied 79, tail 0
skips: dpt 44, rlsn 149, plsn 36
fetches: data 56 (stall 228.9 ms), index 0 (stall 0.0 ms), log pages 58
dpt 54 entries; Δ seen 8, BW seen 7, SMO replayed 0
prefetch: issued 0, hits 0, stalls 56
undo: losers 1, CLRs 8|} );
      ( "Log2",
        {|analysis 13.6 ms, redo 136.7 ms, undo 0.0 ms
records: scanned 355, candidates 308, applied 79, tail 38
skips: dpt 89, rlsn 117, plsn 23
fetches: data 52 (stall 126.0 ms), index 3 (stall 12.2 ms), log pages 58
dpt 41 entries; Δ seen 8, BW seen 7, SMO replayed 0
prefetch: issued 39, hits 39, stalls 18
undo: losers 1, CLRs 8|} );
      ( "SQL2",
        {|analysis 5.5 ms, redo 159.6 ms, undo 0.1 ms
records: scanned 355, candidates 308, applied 79, tail 0
skips: dpt 44, rlsn 149, plsn 36
fetches: data 56 (stall 153.6 ms), index 0 (stall 0.0 ms), log pages 58
dpt 54 entries; Δ seen 8, BW seen 7, SMO replayed 0
prefetch: issued 52, hits 47, stalls 12
undo: losers 1, CLRs 8|} );
      ( "InstantLog2",
        {|analysis 5.5 ms, redo 217.0 ms, undo 32.6 ms
records: scanned 355, candidates 308, applied 79, tail 38
skips: dpt 89, rlsn 117, plsn 23
fetches: data 51 (stall 207.7 ms), index 3 (stall 12.2 ms), log pages 58
dpt 41 entries; Δ seen 8, BW seen 7, SMO replayed 0
prefetch: issued 0, hits 0, stalls 54
undo: losers 1, CLRs 8
instant: open at 14.9 ms, drained at 232.0 ms; pages on-demand 8, background 60|} );
      ( "ARIES-ckpt aries-fuzzy",
        {|analysis 5.5 ms, redo 546.6 ms, undo 8.1 ms
records: scanned 462, candidates 399, applied 83, tail 0
skips: dpt 0, rlsn 33, plsn 283
fetches: data 138 (stall 548.0 ms), index 0 (stall 0.0 ms), log pages 68
dpt 68 entries; Δ seen 8, BW seen 8, SMO replayed 0
prefetch: issued 0, hits 0, stalls 138
undo: losers 1, CLRs 8|} );
      ( "Log1 perfect-dpt",
        {|analysis 5.5 ms, redo 231.6 ms, undo 0.0 ms
records: scanned 355, candidates 308, applied 79, tail 38
skips: dpt 89, rlsn 117, plsn 23
fetches: data 53 (stall 216.7 ms), index 2 (stall 8.1 ms), log pages 60
dpt 41 entries; Δ seen 8, BW seen 7, SMO replayed 0
prefetch: issued 0, hits 0, stalls 55
undo: losers 1, CLRs 8|} );
      ( "Log1 reduced-dpt",
        {|analysis 5.5 ms, redo 241.7 ms, undo 0.0 ms
records: scanned 355, candidates 308, applied 79, tail 38
skips: dpt 89, rlsn 103, plsn 37
fetches: data 54 (stall 226.9 ms), index 2 (stall 8.1 ms), log pages 58
dpt 41 entries; Δ seen 8, BW seen 7, SMO replayed 0
prefetch: issued 0, hits 0, stalls 56
undo: losers 1, CLRs 8|} );
      ( "Log0 4 shards",
        {|analysis 4.1 ms, redo 192.3 ms, undo 0.0 ms
records: scanned 340, candidates 308, applied 84, tail 0
skips: dpt 0, rlsn 0, plsn 224
fetches: data 165 (stall 612.3 ms), index 8 (stall 32.4 ms), log pages 35
dpt 0 entries; Δ seen 9, BW seen 9, SMO replayed 0
prefetch: issued 0, hits 0, stalls 173
undo: losers 1, CLRs 8|} );
      ( "Log1 4 shards",
        {|analysis 4.1 ms, redo 147.7 ms, undo 0.0 ms
records: scanned 340, candidates 308, applied 84, tail 116
skips: dpt 24, rlsn 49, plsn 151
fetches: data 127 (stall 468.5 ms), index 8 (stall 32.4 ms), log pages 35
dpt 57 entries; Δ seen 9, BW seen 9, SMO replayed 0
prefetch: issued 0, hits 0, stalls 135
undo: losers 1, CLRs 8|} );
      ( "Log2 4 shards",
        {|analysis 12.2 ms, redo 117.5 ms, undo 0.0 ms
records: scanned 340, candidates 308, applied 84, tail 116
skips: dpt 24, rlsn 49, plsn 151
fetches: data 123 (stall 338.3 ms), index 12 (stall 48.6 ms), log pages 35
dpt 57 entries; Δ seen 9, BW seen 9, SMO replayed 0
prefetch: issued 40, hits 40, stalls 97
undo: losers 1, CLRs 8|} );
  ]

let test_recovery_stats_pinned () =
  let images =
    [
      ("", pinned_config, Recovery.all_methods_with_instant);
      ( " aries-fuzzy",
        { pinned_config with Config.checkpoint_mode = Config.Aries_fuzzy },
        [ Recovery.Aries_ckpt ] );
      (" perfect-dpt", { pinned_config with Config.dpt_mode = Config.Perfect }, [ Recovery.Log1 ]);
      (" reduced-dpt", { pinned_config with Config.dpt_mode = Config.Reduced }, [ Recovery.Log1 ]);
      ( " 4 shards",
        { pinned_config with Config.shards = 4 },
        [ Recovery.Log0; Recovery.Log1; Recovery.Log2 ] );
    ]
  in
  let got =
    List.concat_map
      (fun (label, config, methods) ->
        let image = pinned_crash config in
        List.map
          (fun m ->
            let _, stats = Db.recover image m in
            (Recovery.method_to_string m ^ label, Recovery_stats.to_string stats))
          methods)
      images
  in
  check_int "one pin per recovery" (List.length golden_stats) (List.length got);
  List.iter2
    (fun (name, want) (got_name, got) ->
      check_str "recovery label" name got_name;
      check_str (name ^ ": stats") want got)
    golden_stats got

(* ---------- histograms ---------- *)

let test_histogram_buckets () =
  let m = Metrics.create () in
  let h = Metrics.histogram m ~base:2.0 ~lo:1.0 ~buckets:4 "h" in
  let bounds = Metrics.bucket_bounds h in
  Alcotest.(check (array (float 1e-9))) "log-scale bounds" [| 1.0; 2.0; 4.0; 8.0 |] bounds;
  (* A value exactly on a bound lands in that bound's bucket (<=); past the
     last bound it lands in the overflow bucket. *)
  check_int "at first bound" 0 (Metrics.bucket_of h 1.0);
  check_int "just above first bound" 1 (Metrics.bucket_of h 1.5);
  check_int "at last bound" 3 (Metrics.bucket_of h 8.0);
  check_int "overflow" 4 (Metrics.bucket_of h 9.0);
  List.iter (fun v -> Metrics.observe h v) [ 0.5; 1.0; 3.0; 8.0; 100.0 ];
  Alcotest.(check (array int)) "counts per bucket" [| 2; 0; 1; 1; 1 |] (Metrics.bucket_counts h);
  check_int "n" 5 (Metrics.observations h);
  check "sum" true (abs_float (Metrics.sum h -. 112.5) < 1e-9)

let suite =
  [
    Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
    Alcotest.test_case "same-seed determinism" `Quick test_traced_recovery_deterministic;
    Alcotest.test_case "chrome JSON well-formed" `Quick test_chrome_json_well_formed;
    Alcotest.test_case "spans match counters" `Quick test_spans_match_counters;
    Alcotest.test_case "export bytes pinned" `Quick test_export_bytes_pinned;
    Alcotest.test_case "recovery stats pinned" `Quick test_recovery_stats_pinned;
    Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
  ]
