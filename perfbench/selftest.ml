(* Self-tests of the benchmark's own machinery: percentile choice, name
   validity, span self time and the result line.  The last two lines of
   output are the workload names and a sample result line naming every
   catalogued metric; run.py parses them back and checks them against
   BENCHMARK.json:

     python3 perfbench/run.py --selftest *)

let failures = ref 0
let checks = ref 0

let check what ok =
  incr checks;
  if not ok then (
    incr failures;
    Printf.printf "FAIL %s\n%!" what)

let percentile_choice () =
  let tail n = Wall.supported_tail n in
  check "1000 samples support p99" (tail 1000 = Some 99.0);
  check "999 samples support only p95" (tail 999 = Some 95.0);
  check "10000 samples support p99.9" (tail 10_000 = Some 99.9);
  check "20 samples support the median" (tail 20 = Some 50.0);
  check "19 samples support nothing" (tail 19 = None);
  let xs = Array.init 100 (fun i -> float_of_int (100 - i)) in
  check "nearest-rank p50 of 1..100" (Wall.percentile xs 50.0 = 50.0);
  check "nearest-rank p99 of 1..100" (Wall.percentile xs 99.0 = 99.0);
  check "p100 is the maximum" (Wall.percentile xs 100.0 = 100.0);
  check "median of one" (Wall.median [| 3.5 |] = 3.5);
  check "median of an even count takes the lower middle" (Wall.median [| 4.; 1.; 3.; 2. |] = 2.0)

let names () =
  List.iter
    (fun n -> check ("valid name " ^ n) (Report.valid_name n))
    [ "recover_ms.p50"; "restart-paper"; "1abc"; "recovery.SQL2.sim_ms"; String.make 64 'a' ];
  List.iter
    (fun n -> check ("invalid name " ^ n) (not (Report.valid_name n)))
    [ ""; ".x"; "_x"; "-x"; "a b"; "a/b"; "a%"; String.make 65 'a'; "caf\xc3\xa9" ];
  List.iter (fun u -> check ("valid unit " ^ u) (Report.valid_unit u)) [ "ms"; "1/s"; "%"; "sim_ms"; "1/sim_s" ];
  List.iter
    (fun u -> check ("invalid unit " ^ u) (not (Report.valid_unit u)))
    [ ""; "m s"; String.make 17 'm'; "ms,"; "\"" ];
  let all = Catalog.end_to_end @ Catalog.per_layer in
  List.iter
    (fun (n, u) -> check ("catalogue entry " ^ n) (Report.valid_name n && Report.valid_unit u))
    all;
  List.iter (fun w -> check ("workload name " ^ w) (Report.valid_name w)) Catalog.workloads;
  let names = List.map fst all @ Catalog.workloads in
  check "names are used once" (List.length (List.sort_uniq compare names) = List.length names);
  check "setup_s is an end-to-end metric in s" (List.assoc_opt "setup_s" Catalog.end_to_end = Some "s")

let self_time () =
  let self t0 t1 children =
    Wall.self_ns ~t0:(Int64.of_int t0) ~t1:(Int64.of_int t1)
      (List.map (fun (a, b) -> (Int64.of_int a, Int64.of_int b)) children)
    |> Int64.to_int
  in
  check "no children: whole duration" (self 0 100 [] = 100);
  check "disjoint children subtract" (self 0 100 [ (10, 20); (50, 80) ] = 60);
  check "overlapping children count once" (self 0 100 [ (10, 40); (30, 60) ] = 50);
  check "nested children count once" (self 0 100 [ (10, 90); (20, 30) ] = 20);
  check "children clip to the parent" (self 0 100 [ (-10, 10); (90, 150) ] = 80);
  check "children outside do not count" (self 0 100 [ (200, 300) ] = 100);
  check "fully covered: zero" (self 0 100 [ (0, 100) ] = 0);
  (* The recorder: a parent's self time is its duration less its child's. *)
  let sp = Wall.recorder ~enabled:true in
  let spin ms =
    let t0 = Wall.now_ns () in
    while Wall.ms_between t0 (Wall.now_ns ()) < ms do
      ()
    done
  in
  Wall.span sp "parent" (fun () ->
      spin 2.0;
      Wall.span sp "child" (fun () -> spin 3.0));
  let selfs = Wall.self_times sp in
  let parent = (Wall.durations sp "parent").(0) and child = (Wall.durations sp "child").(0) in
  check "recorded parent self = duration - child"
    (Float.abs ((selfs "parent").(0) -. (parent -. child)) < 1e-6);
  check "recorded child self = its duration" ((selfs "child").(0) = child);
  check "child ran about 3 ms" (child >= 3.0);
  let off = Wall.recorder ~enabled:false in
  check "disabled recorder still runs the call" (Wall.span off "x" (fun () -> 42) = 42);
  check "disabled recorder records nothing" (Wall.durations off "x" = [||]);
  (try Wall.span sp "raises" (fun () -> failwith "boom") with Failure _ -> ());
  check "a raising call still closes its span" (Array.length (Wall.durations sp "raises") = 1);
  check "and the next span has no stale parent"
    (Wall.span sp "after" (fun () -> true) && (Wall.self_times sp "after").(0) >= 0.0)

(* Every catalogued metric, end-to-end first, with values whose shortest
   exact form is long.  run.py --selftest recomputes the same values. *)
let sample_value i =
  match i mod 5 with
  | 0 -> 0.1
  | 1 -> 2.0 /. 3.0
  | 2 -> 1e-7 *. float_of_int (i + 1)
  | 3 -> 123456789.123456789
  | _ -> float_of_int i

let result_line () =
  let metrics =
    List.mapi
      (fun i (name, unit_) -> { Report.name; unit_; value = sample_value i })
      (Catalog.end_to_end @ Catalog.per_layer)
  in
  let r = { Report.correct = true; attempted = 1234; failed = 0; metrics } in
  let line = Report.to_json r in
  check "result is one line" (not (String.contains line '\n'));
  List.iter
    (fun m ->
      check ("value of " ^ m.Report.name ^ " reads back exactly")
        (float_of_string (Report.number m.Report.value) = m.Report.value))
    metrics;
  check "to_json refuses a bad name"
    (match Report.to_json { r with Report.metrics = [ { Report.name = "bad name"; unit_ = "ms"; value = 1.0 } ] } with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check "to_json refuses a non-finite value"
    (match Report.to_json { r with Report.metrics = [ { Report.name = "x"; unit_ = "ms"; value = Float.nan } ] } with
    | _ -> false
    | exception Invalid_argument _ -> true);
  line

let () =
  percentile_choice ();
  names ();
  self_time ();
  let line = result_line () in
  Printf.printf "perfbench self-test: %d checks, %d failed\n" !checks !failures;
  Printf.printf "# workloads: %s\n" (String.concat " " Catalog.workloads);
  print_endline line;
  exit (if !failures = 0 then 0 else 1)
