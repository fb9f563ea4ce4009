(* The bench summary (BENCH_recovery.json), and the only code that reads
   it: bench/main.exe writes it with [to_json]; [repro_cli bench-diff]
   compares two of them with [Json.diff ~ungated:is_wall] and checks the
   new one with [check], which is how CI checks a run against
   baselines/BENCH_recovery_quick.json.
   Each sweep's block is its [Figures.sweep] JSON. *)

module Json = Deut_obs.Json

let schema = "deut-bench-recovery/1"

(* Wall-clock seconds ([sections] in run order) and the domain count the
   sweeps ran on, then each sweep's block under its name, with each
   number's precision fixed, so two runs diff cleanly. *)
let to_json ~scale ~quick ~domains ~total_wall_s ~sections sweeps =
  Json.Obj
    ([
       ("schema", Json.Str schema);
       ("scale", Json.int scale);
       ("quick", Json.Bool quick);
       ("domains", Json.int domains);
       ("total_wall_s", Json.fixed ~decimals:3 total_wall_s);
       ( "sections",
         Json.Arr
           (List.map
              (fun (name, w) ->
                Json.Obj [ ("name", Json.Str name); ("wall_s", Json.fixed ~decimals:3 w) ])
              sections) );
     ]
    @ sweeps)

(* The file's bytes: indented, one line per cell. *)
let to_string summary = Json.to_string ~indent:true summary ^ "\n"

(* ---------- diff ---------- *)

(* [bench-diff] is [Json.diff] with these keys ungated.  Wall-clock fields
   vary run to run: these keys at any depth, and the domain count, which
   only sets how many cells run at once. *)
let is_wall ~parent key =
  List.mem key [ "total_wall_s"; "sections"; "wall_s"; "build_wall_s" ]
  || (parent = "" && key = "domains")

(* ---------- invariants ---------- *)

let cells key j = Json.to_list key (Json.member key j)
let distinct key l = List.length (List.sort_uniq compare (List.map (fun c -> Json.member key c) l))

(* Instant recovery's availability win at the smallest cache size of an
   availability block. *)
let availability_gate ~min_speedup availability =
  let by_size =
    List.stable_sort
      (fun a b -> compare (Json.num a "cache_mb") (Json.num b "cache_mb"))
      (Json.to_list "availability" availability)
  in
  match by_size with
  | [] -> Error "no availability cells were produced"
  | smallest :: _ ->
      let speedup = Json.num smallest "speedup" and mb = Json.num smallest "cache_mb" in
      if speedup < min_speedup then
        Error
          (Printf.sprintf
             "availability gate — %.1fx at %.0f MB, need >= %.1fx (open %.3f ms, drained %.3f ms)"
             speedup mb min_speedup (Json.num smallest "ttft_ms") (Json.num smallest "drained_ms"))
      else Ok (Printf.sprintf "availability gate OK: %.1fx at %.0f MB (need >= %.1fx)" speedup mb min_speedup)

(* What every summary must show, whatever the baseline says: each failed
   invariant as one line.  Equality with a baseline stops guarding these
   the day the baseline is regenerated. *)
let check summary =
  let failures = ref [] in
  let fail msg = failures := msg :: !failures in
  let expect ok msg = if not ok then fail msg in
  let section key f = try f () with Json.Parse_error msg -> fail (key ^ ": " ^ msg) in
  section "schema" (fun () ->
      expect (Json.str summary "schema" = schema) ("schema is not " ^ schema));
  section "fig2" (fun () ->
      let fig2 = cells "fig2" summary in
      expect
        (fig2 <> [] && List.for_all (fun c -> cells "methods" c <> []) fig2)
        "fig2: empty fig2 cells");
  section "archiving" (fun () ->
      let all = cells "archiving" summary in
      let on = List.filter (fun c -> Json.member "archive" c = Json.Bool true) all in
      expect
        (on <> [] && List.for_all (fun c -> Json.num c "segments" > 0.0) on)
        "archiving: an archiving cell sealed no segments";
      expect
        (List.for_all (fun c -> Json.num c "final_live_kb" < Json.num c "final_logged_kb") on)
        "archiving: live log not bounded";
      expect (distinct "digest" all = 1) "archiving: archiving changed committed state");
  section "availability" (fun () ->
      match cells "availability" summary with
      | [] -> fail "availability: empty availability sweep"
      | a ->
          Result.iter_error
            (fun msg -> fail ("availability: " ^ msg))
            (availability_gate ~min_speedup:10.0 (Json.member "availability" summary));
          expect
            (List.for_all (fun c -> Json.num c "pages_background" > 0.0) a)
            "availability: background drain replayed nothing");
  section "sharding" (fun () ->
      match cells "sharding" summary with
      | [] -> fail "sharding: empty sharding sweep"
      | sh ->
          let multi = List.filter (fun c -> Json.num c "shards" > 1.0) sh in
          expect
            (List.exists (fun c -> Json.num c "shards" = 1.0) sh && multi <> [])
            "sharding: sharding sweep missing a shard count";
          expect (distinct "digest" sh = 1) "sharding: sharding changed committed state";
          expect
            (List.for_all (fun c -> Json.member "recover_shard_ms" c <> Json.Null) multi)
            "sharding: multi-shard cell skipped the crash/recovery scenario");
  List.rev !failures
