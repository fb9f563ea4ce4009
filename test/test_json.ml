(* The shared JSON module: print -> parse -> print is exact over generated
   trees in both layouts (checked against test_trace.ml's independent
   validator), the reader's error texts and offsets, the two layouts'
   exact bytes, and the bench-summary diff and invariant check behind
   [repro_cli bench-diff] on trees derived from the committed quick-sweep
   baseline. *)

module Json = Deut_obs.Json
module Bench_summary = Deut_workload.Bench_summary

let check = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* ---------- round trip ---------- *)

(* Every byte 0x00-0xff can appear; quote, backslash and the control
   characters the printer treats specially are drawn often. *)
let gen_string =
  let open QCheck2.Gen in
  string_size ~gen:(frequency [ (3, char); (1, oneofl [ '"'; '\\'; '\n'; '\000'; '\x1f'; '\x7f'; '\xff' ]) ])
    (0 -- 12)

let gen_json =
  let open QCheck2.Gen in
  let scalar =
    oneof
      [
        pure Json.Null;
        map (fun b -> Json.Bool b) bool;
        map Json.int int;
        map2 (fun decimals x -> Json.fixed ~decimals x) (0 -- 4) (float_range (-1e6) 1e6);
        map (fun s -> Json.Str s) gen_string;
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 1 then scalar
         else
           frequency
             [
               (2, scalar);
               (1, map (fun l -> Json.Arr l) (list_size (0 -- 4) (self (n / 3))));
               (1, map (fun l -> Json.Obj l) (list_size (0 -- 4) (pair gen_string (self (n / 3)))));
             ])

let prop_round_trip =
  QCheck2.Test.make ~name:"print -> parse -> print is a fixed point" ~count:500
    ~print:(fun v -> Json.to_string v)
    gen_json
    (fun v ->
      List.for_all
        (fun indent ->
          let text = Json.to_string ~indent v in
          Test_trace.validate_json text;
          match Json.parse text with
          | Ok v' -> v' = v && String.equal (Json.to_string ~indent v') text
          | Error msg -> QCheck2.Test.fail_reportf "%s on %S" msg text)
        [ false; true ])

(* ---------- exact layouts ---------- *)

let sample =
  Json.Obj
    [
      ("a", Json.int 1);
      ( "b",
        Json.Arr
          [ Json.Obj [ ("k", Json.Str "v\"\\\n\001"); ("n", Json.Null) ]; Json.Arr [ Json.Bool true ] ] );
      ("c", Json.Obj [ ("d", Json.fixed ~decimals:3 2.5) ]);
      ("e", Json.Arr []);
      ("f", Json.Obj []);
    ]

let test_layouts () =
  check_str "compact"
    {|{"a":1,"b":[{"k":"v\"\\\n\u0001","n":null},[true]],"c":{"d":2.500},"e":[],"f":{}}|}
    (Json.to_string sample);
  check_str "indented: scalar-only array elements on one line"
    {|{
  "a": 1,
  "b": [
    { "k": "v\"\\\n\u0001", "n": null },
    [ true ]
  ],
  "c": {
    "d": 2.500
  },
  "e": [],
  "f": {}
}|}
    (Json.to_string ~indent:true sample)

(* ---------- reader errors ---------- *)

let test_reader_errors () =
  List.iter
    (fun (input, want) ->
      match Json.parse input with
      | Ok _ -> Alcotest.failf "%S parsed" input
      | Error msg -> check_str (Printf.sprintf "error for %S" input) want msg)
    [
      ("{nope", "expected '\"' at offset 1");
      ("", "unexpected end of input at offset 0");
      ("[1,2", "expected ',' or ']' at offset 4");
      ({|{"a" 1}|}, "expected ':' at offset 5");
      ({|{"a":1,}|}, "expected '\"' at offset 7");
      ({|{"a":1 "b":2}|}, "expected ',' or '}' at offset 7");
      ("[1] x", "trailing garbage at offset 4");
      ({|"abc|}, "unterminated string at offset 4");
      ({|"\q"|}, "bad escape at offset 2");
      ({|"\u12"|}, "bad \\u escape at offset 2");
      ("tru", "expected true at offset 0");
      ("-", "bad number at offset 1");
    ];
  let raises want f =
    match f () with
    | _ -> Alcotest.failf "no Parse_error, wanted %S" want
    | exception Json.Parse_error msg -> check_str want want msg
  in
  let j = Json.Obj [ ("n", Json.int 3); ("s", Json.Str "x") ] in
  raises "missing field m" (fun () -> Json.member "m" j);
  raises "expected object around n" (fun () -> Json.member "n" (Json.Arr []));
  raises "expected number for s" (fun () -> Json.num j "s");
  raises "expected string for n" (fun () -> Json.str j "n");
  raises "expected array for n" (fun () -> Json.to_list "n" (Json.member "n" j))

(* ---------- bench-diff ---------- *)

(* The committed quick-sweep summary: under [dune runtest] the test runs
   in _build/default/test, under [dune exec] from the repository root. *)
let baseline () =
  let name = "baselines/BENCH_recovery_quick.json" in
  let path = if Sys.file_exists ("../" ^ name) then "../" ^ name else name in
  match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Ok j -> j
  | Error msg -> Alcotest.failf "%s: %s" path msg

(* [edit path f j] applies [f] to the value at [path]: a field name steps
   into an object, an integer string into an array. *)
let rec edit path f j =
  match (path, j) with
  | [], v -> f v
  | k :: rest, Json.Obj fields ->
      Json.Obj (List.map (fun (k', v) -> if k' = k then (k', edit rest f v) else (k', v)) fields)
  | i :: rest, Json.Arr items ->
      Json.Arr (List.mapi (fun n v -> if string_of_int n = i then edit rest f v else v) items)
  | _ -> Alcotest.failf "no path %s" (String.concat "/" path)

let set path v = edit path (fun _ -> v)

let rec get path j =
  match (path, j) with
  | [], v -> v
  | k :: rest, Json.Obj _ -> get rest (Json.member k j)
  | i :: rest, Json.Arr items -> get rest (List.nth items (int_of_string i))
  | _ -> Alcotest.failf "no path %s" (String.concat "/" path)

let bench_diff = Json.diff ~ungated:Bench_summary.is_wall

let test_diff_itself () =
  let b = baseline () in
  let d = bench_diff b b in
  check "no simulated difference" true (d.gated = []);
  check "no wall difference" true (d.ungated = [])

let test_diff_redo_changed () =
  let b = baseline () in
  let redo = [ "fig2"; "1"; "methods"; "3"; "redo_ms" ] in
  let d = bench_diff b (set redo (Json.fixed ~decimals:3 1.5) b) in
  Alcotest.(check (list string))
    "that path, and only it"
    [ "/fig2[1]/methods[3]/redo_ms: " ^ Json.to_string (get redo b) ^ " -> 1.500" ]
    d.gated

let test_diff_wall_only () =
  let b = baseline () in
  let walls =
    [
      [ "total_wall_s" ];
      [ "sections"; "0"; "wall_s" ];
      [ "fig2"; "0"; "build_wall_s" ];
      [ "fig2"; "2"; "methods"; "4"; "wall_s" ];
      [ "domains" ];
    ]
  in
  let d = bench_diff b (List.fold_left (fun j p -> set p (Json.int 12345) j) b walls) in
  check "nothing gated" true (d.gated = []);
  Alcotest.(check int) "every changed wall leaf printed" (List.length walls) (List.length d.ungated)

let test_diff_cell_dropped () =
  let b = baseline () in
  let drop_second a = Json.Arr (List.filteri (fun i _ -> i <> 1) (Json.to_list "availability" a)) in
  let d = bench_diff b (edit [ "availability" ] drop_second b) in
  Alcotest.(check (list string))
    "the list, as one line" [ "/availability: 3 items -> 2 items" ] d.gated

(* Every digest and every simulated cell is gated, fig2's digests and
   fig3's table included. *)
let test_diff_digest_and_fig3 () =
  let b = baseline () in
  let digest = [ "fig2"; "0"; "methods"; "2"; "store_digest" ] in
  let redo = [ "fig3"; "1"; "methods"; "0"; "redo_ms" ] in
  let d = bench_diff b (b |> set digest (Json.Str "0ff") |> set redo (Json.fixed ~decimals:3 1.5)) in
  Alcotest.(check (list string))
    "both paths, gated"
    [
      "/fig2[0]/methods[2]/store_digest: " ^ Json.to_string (get digest b) ^ " -> \"0ff\"";
      "/fig3[1]/methods[0]/redo_ms: " ^ Json.to_string (get redo b) ^ " -> 1.500";
    ]
    d.gated

(* ---------- invariants ---------- *)

let test_check_baseline () =
  Alcotest.(check (list string)) "the baseline holds every invariant" [] (Bench_summary.check (baseline ()))

(* Each invariant [Bench_summary.check] enforces, broken alone by editing
   the baseline, and exactly the failures it must report. *)
let broken_invariants =
  let num x = Json.fixed ~decimals:1 x in
  [
    ("schema", [ ([ "schema" ], Json.Str "deut-bench-recovery/0") ], [ "schema is not deut-bench-recovery/1" ]);
    ("fig2 methods", [ ([ "fig2"; "1"; "methods" ], Json.Arr []) ], [ "fig2: empty fig2 cells" ]);
    ( "sealed segments",
      [ ([ "archiving"; "1"; "segments" ], Json.int 0) ],
      [ "archiving: an archiving cell sealed no segments" ] );
    ( "bounded live log",
      [ ([ "archiving"; "1"; "final_live_kb" ], num 1e6) ],
      [ "archiving: live log not bounded" ] );
    ( "archiving digest",
      [ ([ "archiving"; "0"; "digest" ], Json.Str "0ff") ],
      [ "archiving: archiving changed committed state" ] );
    ("availability cells", [ ([ "availability" ], Json.Arr []) ], [ "availability: empty availability sweep" ]);
    ( "instant speedup",
      [ ([ "availability"; "0"; "speedup" ], num 9.5) ],
      [ "availability: availability gate — 9.5x at 64 MB, need >= 10.0x (open 8.450 ms, drained \
       353.965 ms)" ] );
    ( "background drain",
      [ ([ "availability"; "2"; "pages_background" ], Json.int 0) ],
      [ "availability: background drain replayed nothing" ] );
    ("sharding cells", [ ([ "sharding" ], Json.Arr []) ], [ "sharding: empty sharding sweep" ]);
    ( "shard counts",
      [ ([ "sharding"; "1"; "shards" ], Json.int 1); ([ "sharding"; "1"; "recover_shard_ms" ], Json.Null) ],
      [ "sharding: sharding sweep missing a shard count" ] );
    ( "sharding digest",
      [ ([ "sharding"; "0"; "digest" ], Json.Str "0ff") ],
      [ "sharding: sharding changed committed state" ] );
    ( "shard recovery",
      [ ([ "sharding"; "1"; "recover_shard_ms" ], Json.Null) ],
      [ "sharding: multi-shard cell skipped the crash/recovery scenario" ] );
    ( "missing blocks",
      [ ([], Json.Obj [ ("schema", Json.Str "deut-bench-recovery/1") ]) ],
      List.map
        (fun k -> k ^ ": missing field " ^ k)
        [ "fig2"; "archiving"; "availability"; "sharding" ] );
  ]

let test_check_broken edits want () =
  let broken = List.fold_left (fun j (path, v) -> set path v j) (baseline ()) edits in
  Alcotest.(check (list string)) "the failures" want (Bench_summary.check broken)

let suite =
  [
    Env.qcheck prop_round_trip;
    Alcotest.test_case "exact layouts" `Quick test_layouts;
    Alcotest.test_case "reader errors" `Quick test_reader_errors;
    Alcotest.test_case "bench-diff: a summary against itself" `Quick test_diff_itself;
    Alcotest.test_case "bench-diff: one redo_ms changed" `Quick test_diff_redo_changed;
    Alcotest.test_case "bench-diff: only wall leaves changed" `Quick test_diff_wall_only;
    Alcotest.test_case "bench-diff: an availability cell dropped" `Quick test_diff_cell_dropped;
    Alcotest.test_case "bench-diff: a fig2 digest and a fig3 redo_ms are gated" `Quick
      test_diff_digest_and_fig3;
    Alcotest.test_case "check: the baseline holds" `Quick test_check_baseline;
  ]
  @ List.map
      (fun (name, edits, want) ->
        Alcotest.test_case ("check: broken " ^ name) `Quick (test_check_broken edits want))
      broken_invariants
