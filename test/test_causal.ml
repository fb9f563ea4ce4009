(* Causal cross-shard tracing and the crash-surviving flight recorder.

   A traced sharded recovery over the simulated network must export one
   stitched story: every TC-side protocol call opens a Chrome flow on the
   recovery lane, the flow steps through the link's delivery span and the
   DC-side handler span, and closes back on the TC's [req:] span — so
   this suite walks the flow-event graph and checks the arrows actually
   connect.  On top of that: same-seed byte determinism of the sharded
   networked export, retransmit attribution in the Analysis stall budget,
   flow pairing on a trace past 65,536 events, metrics registry collision
   detection, shard-prefixed device metrics, and byte-identical forensics
   dumps from the flight recorder that rides through a crash. *)

module Db = Deut_core.Db
module Config = Deut_core.Config
module Engine = Deut_core.Engine
module Crash_image = Deut_core.Crash_image
module Recovery = Deut_core.Recovery
module Trace = Deut_obs.Trace
module Metrics = Deut_obs.Metrics
module Analysis = Deut_obs.Analysis
module Json = Deut_obs.Json
module Flight = Deut_obs.Flight
module Fuzz = Deut_workload.Fuzz
module Workload = Deut_workload.Workload
module Driver = Deut_workload.Driver
module Client_sched = Deut_workload.Client_sched

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let config ?(shards = 4) ?(lossy = false) () =
  {
    Env.config with
    Config.page_size = 1024;
    pool_pages = 64;
    locking = true;
    clients = 4;
    shards;
    net = true;
    net_latency_us = (if lossy then 80.0 else 20.0);
    net_jitter_us = (if lossy then 40.0 else 0.0);
    net_loss = (if lossy then 0.05 else 0.0);
    net_reorder = (if lossy then 0.1 else 0.0);
    net_timeout_us = 500.0;
    tracing = true;
  }

let spec = { Workload.default with Workload.rows = 150; seed = 1903 }

(* Crash a sharded networked workload, then recover it traced. *)
let recover_traced ?shards ?lossy () =
  let c = config ?shards ?lossy () in
  let driver = Driver.create ~config:c spec in
  let sched = Driver.run_concurrent driver ~txns:40 in
  Client_sched.flush sched;
  let image = Driver.crash driver in
  let db, _stats = Db.recover image Recovery.Log2 in
  let tr =
    match Engine.trace (Db.engine db) with
    | Some tr -> tr
    | None -> Alcotest.fail "tracing enabled but engine has no trace"
  in
  (db, tr)

(* ---------- the flow-event graph ---------- *)

(* Group the trace's flow events by id, preserving emission order. *)
let flows_of tr =
  let tbl = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun ev ->
      match ev.Trace.kind with
      | Trace.Flow_start | Trace.Flow_step | Trace.Flow_end ->
          let id = List.assoc "id" ev.Trace.args in
          if not (Hashtbl.mem tbl id) then order := id :: !order;
          Hashtbl.replace tbl id (ev :: Option.value (Hashtbl.find_opt tbl id) ~default:[])
      | _ -> ())
    (Trace.events tr);
  List.rev_map (fun id -> (id, List.rev (Hashtbl.find tbl id))) !order

let kind_counts chain =
  List.fold_left
    (fun (s, t, f) ev ->
      match ev.Trace.kind with
      | Trace.Flow_start -> (s + 1, t, f)
      | Trace.Flow_step -> (s, t + 1, f)
      | Trace.Flow_end -> (s, t, f + 1)
      | _ -> (s, t, f))
    (0, 0, 0) chain

(* Every message's flow must read s -> t... -> f: open on the TC's
   recovery lane, step across the wire / the shard handler, close back on
   the TC — with non-decreasing timestamps, so Perfetto's arrows point
   forward in time.  A DEUT_SHARDS=4 recovery must stitch flows into
   every shard. *)
let test_flow_graph_connects () =
  let _db, tr = recover_traced () in
  let flows = flows_of tr in
  check "recovery produced flows" true (List.length flows >= 4);
  let shards_seen = Hashtbl.create 8 in
  List.iter
    (fun (id, chain) ->
      let s, t, f = kind_counts chain in
      check_int (Printf.sprintf "flow %d: one start" id) 1 s;
      check_int (Printf.sprintf "flow %d: one end" id) 1 f;
      check (Printf.sprintf "flow %d: steps exist" id) true (t >= 1);
      (match chain with
      | first :: _ ->
          check (Printf.sprintf "flow %d opens as a start" id) true
            (first.Trace.kind = Trace.Flow_start);
          check_int (Printf.sprintf "flow %d opens on the recovery lane" id)
            Trace.track_recovery first.Trace.track
      | [] -> Alcotest.fail "empty flow chain");
      (match List.rev chain with
      | last :: _ ->
          check (Printf.sprintf "flow %d closes as an end" id) true
            (last.Trace.kind = Trace.Flow_end);
          check_int (Printf.sprintf "flow %d closes on the recovery lane" id)
            Trace.track_recovery last.Trace.track
      | [] -> ());
      List.iter
        (fun ev ->
          if ev.Trace.kind = Trace.Flow_step then begin
            check (Printf.sprintf "flow %d steps off-engine (lane %d)" id ev.Trace.track)
              true
              (ev.Trace.track >= Trace.track_net);
            if ev.Trace.track >= Trace.track_shard 0 then
              Hashtbl.replace shards_seen (ev.Trace.track - Trace.track_shard 0) ()
          end)
        chain;
      ignore
        (List.fold_left
           (fun prev ev ->
             check (Printf.sprintf "flow %d: time moves forward" id) true
               (ev.Trace.ts >= prev);
             ev.Trace.ts)
           neg_infinity chain))
    flows;
  check "flows reach every shard" true (Hashtbl.length shards_seen >= 4)

(* Same seed, same wire luck, same arrows: the full sharded networked
   export is byte-identical across runs. *)
let test_sharded_trace_deterministic () =
  let json () =
    let _db, tr = recover_traced ~lossy:true () in
    Trace.to_chrome_json tr
  in
  check "same-seed sharded+lossy traces byte-identical" true
    (String.equal (json ()) (json ()))

(* ---------- stall -> message attribution ---------- *)

(* Under a lossy link the profile must charge cross-shard waiting to the
   requests that waited, and pin at least one retransmit on its causing
   request kind. *)
let test_retransmit_attribution () =
  let _db, tr = recover_traced ~lossy:true () in
  let p = Analysis.of_trace tr in
  check "messages observed" true (p.Analysis.net_msgs > 0);
  check "wire time accumulated" true (p.Analysis.net_wire_us > 0.0);
  check "losses observed" true (p.Analysis.net_retransmits > 0);
  check "attribution buckets exist" true (p.Analysis.net_sources <> []);
  check "a named request owns a retransmit" true
    (List.exists
       (fun s -> s.Analysis.ns_request <> "(unknown)" && s.Analysis.ns_retransmits > 0)
       p.Analysis.net_sources);
  List.iter
    (fun s ->
      check (Printf.sprintf "%s: calls counted" s.Analysis.ns_request) true
        (s.Analysis.ns_calls > 0))
    p.Analysis.net_sources;
  (* The net section is in the JSON the profile gate reads. *)
  let net =
    match Json.parse (Analysis.to_json p) with
    | Ok j -> Json.member "net" j
    | Error e -> Alcotest.failf "profile JSON does not parse: %s" e
  in
  check_int "msgs in the JSON" p.Analysis.net_msgs (int_of_float (Json.num net "msgs"));
  check_int "retransmits in the JSON" p.Analysis.net_retransmits
    (int_of_float (Json.num net "retransmits"));
  check_int "buckets in the JSON"
    (List.length p.Analysis.net_sources)
    (List.length (Json.to_list "sources" (Json.member "sources" net)))

(* Profiles written before the net section existed still parse, and the
   exact profile gate names the missing block as their one difference. *)
let test_profile_json_backward_compat () =
  let parse text =
    match Json.parse text with Ok j -> j | Error e -> Alcotest.failf "does not parse: %s" e
  in
  let empty = Analysis.of_trace (Trace.create ~now:(fun () -> 0.0) ()) in
  let current = parse (Analysis.to_json empty) in
  let old =
    match current with
    | Json.Obj fields -> Json.Obj (List.remove_assoc "net" fields)
    | _ -> Alcotest.fail "profile JSON is not an object"
  in
  let pre_net = parse (Json.to_string old) in
  let d = Json.diff pre_net current in
  Alcotest.(check (list string))
    "the net block, and only it"
    [ "/net: (missing) -> " ^ Json.to_string (Json.member "net" current) ]
    d.Json.gated

(* ---------- a long trace ---------- *)

(* A sharded, networked recovery whose trace outgrows 65,536 events keeps
   every flow whole: each id has exactly one start and one end, the start
   first and the end last. *)
let test_long_trace_flow_pairing () =
  let spec = { spec with Workload.rows = 1500 } in
  let driver = Driver.create ~config:(config ~lossy:true ()) spec in
  let sched = Driver.run_concurrent driver ~txns:600 in
  Client_sched.flush sched;
  let image = Driver.crash driver in
  let db, _ = Db.recover image Recovery.Log2 in
  let tr = Option.get (Engine.trace (Db.engine db)) in
  check (Printf.sprintf "%d events, past 65,536" (Trace.length tr)) true (Trace.length tr > 65_536);
  List.iter
    (fun (id, chain) ->
      let s, _, f = kind_counts chain in
      check_int (Printf.sprintf "flow %d: one start" id) 1 s;
      check_int (Printf.sprintf "flow %d: one end" id) 1 f;
      check (Printf.sprintf "flow %d: start first, end last" id) true
        ((List.hd chain).Trace.kind = Trace.Flow_start
        && (List.hd (List.rev chain)).Trace.kind = Trace.Flow_end))
    (flows_of tr)

(* ---------- metrics registry ---------- *)

(* Duplicate registration fails loudly instead of silently shadowing. *)
let test_metrics_collision_detection () =
  let m = Metrics.create () in
  Metrics.gauge m "x.level" (fun () -> 1.0);
  check "duplicate gauge raises" true
    (match Metrics.gauge m "x.level" (fun () -> 2.0) with
    | exception Invalid_argument _ -> true
    | () -> false);
  check "gauge over live histogram raises" true
    (let _ = Metrics.histogram m "x.lat" in
     match Metrics.gauge m "x.lat" (fun () -> 0.0) with
    | exception Invalid_argument _ -> true
    | () -> false);
  check "histogram over live gauge raises" true
    (match Metrics.histogram m "x.level" with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* Histograms stay get-or-create: asking again is sharing, not
     shadowing. *)
  let h1 = Metrics.histogram m "x.shared" in
  Metrics.observe h1 2.0;
  Metrics.observe (Metrics.histogram m "x.shared") 3.0;
  check_int "histogram shared, not shadowed" 2 (Metrics.observations h1);
  check_int "shared histogram reads its sum" 5 (Metrics.read_int m "x.shared")

(* Every shard's device histograms carry the shard<i>. prefix — shard 0
   included — so a sharded registry never aliases two devices. *)
let test_shard_prefixed_metrics () =
  let c = { (config ()) with Config.net = false; tracing = false } in
  let driver = Driver.create ~config:c spec in
  let sched = Driver.run_concurrent driver ~txns:20 in
  Client_sched.flush sched;
  let names = Metrics.names (Engine.metrics (Db.engine (Driver.db driver))) in
  for i = 0 to 3 do
    check (Printf.sprintf "shard%d.disk.data.io_us registered" i) true
      (List.mem (Printf.sprintf "shard%d.disk.data.io_us" i) names)
  done;
  check "no unprefixed data-disk histogram when sharded" false
    (List.mem "disk.data.io_us" names)

(* ---------- forensics ---------- *)

(* The flight recorder rides through Db.crash inside the image; rendering
   two same-seed rebuilds is byte-identical, which is what lets CI dump a
   failing fuzz seed's black box after the fact. *)
let test_forensics_deterministic () =
  let dump shards =
    let image = Fuzz.build_image ~config:{ Env.config with Config.shards } 4242 in
    match Crash_image.flight image with
    | Some snap -> Flight.render snap
    | None -> Alcotest.fail "fuzz image carries no flight snapshot"
  in
  check_string "single-shard forensics byte-identical" (dump 1) (dump 1);
  check_string "sharded forensics byte-identical" (dump 4) (dump 4);
  let d = dump 4 in
  let contains needle =
    let nl = String.length needle and dl = String.length d in
    let rec go i = i + nl <= dl && (String.sub d i nl = needle || go (i + 1)) in
    go 0
  in
  check "dump names the tc" true (contains "[tc]");
  check "dump names a sibling shard" true (contains "[shard 3]");
  check "dump resolves causal chains" true (contains "causal chains");
  check "protocol sends recorded" true (contains "send");
  check "log forces recorded" true (contains "log_force")

(* Db.crash stamps the black box before the snapshot leaves. *)
let test_crash_marker_recorded () =
  let db = Db.create ~config:{ Env.config with Config.page_size = 1024 } () in
  Db.create_table db ~table:1;
  Db.put db ~table:1 ~key:1 ~value:"v";
  let image = Db.crash db in
  match Crash_image.flight image with
  | None -> Alcotest.fail "image carries no flight snapshot"
  | Some snap ->
      (* The dump's [tc] section runs from its heading to the next blank
         line, one event per line: sequence number, time, kind, detail. *)
      let rec tc_section = function
        | l :: rest when String.starts_with ~prefix:"[tc]" l -> body rest
        | _ :: rest -> tc_section rest
        | [] -> []
      and body = function "" :: _ | [] -> [] | l :: rest -> l :: body rest in
      let kind line = List.nth (List.filter (( <> ) "") (String.split_on_char ' ' line)) 2 in
      check "crash marker is the last tc event" true
        (match List.rev (tc_section (String.split_on_char '\n' (Flight.render snap))) with
        | last :: _ -> kind last = "crash"
        | [] -> false)

let suite =
  [
    Alcotest.test_case "flow graph connects TC -> net -> shards" `Quick
      test_flow_graph_connects;
    Alcotest.test_case "sharded networked trace byte-deterministic" `Quick
      test_sharded_trace_deterministic;
    Alcotest.test_case "retransmits attributed to requests" `Quick test_retransmit_attribution;
    Alcotest.test_case "profile json backward compatible" `Quick
      test_profile_json_backward_compat;
    Alcotest.test_case "long trace keeps every flow whole" `Quick test_long_trace_flow_pairing;
    Alcotest.test_case "metrics collision detection" `Quick test_metrics_collision_detection;
    Alcotest.test_case "shard-prefixed device metrics" `Quick test_shard_prefixed_metrics;
    Alcotest.test_case "forensics dumps byte-identical" `Quick test_forensics_deterministic;
    Alcotest.test_case "crash marker recorded" `Quick test_crash_marker_recorded;
  ]
