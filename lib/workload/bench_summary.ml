(* The bench summary (BENCH_recovery.json), and the only code that knows
   its schema: bench/main.exe writes it with [to_json]; [repro_cli
   bench-diff] compares two of them with [diff], which is how CI checks a
   run against baselines/BENCH_recovery_quick.json. *)

module Json = Deut_obs.Json
module Rs = Deut_core.Recovery_stats

(* Wall-clock seconds ([sections] in run order) beside the key simulated
   metrics, in a fixed field order with each number's precision fixed, so
   two runs diff cleanly.  The domains block's "requested" is [config]'s
   domain count: the config the bench ran its sweeps from. *)
let to_json ?(config = Deut_core.Config.default) ~scale ~quick ~total_wall_s ~sections ~archiving
    ~availability ~sharding ~(domains : Figures.domains_cell) (fig2 : Figures.fig2_cell list) =
  let f decimals x = Json.fixed ~decimals x and int = Json.int and str s = Json.Str s in
  let cells render cells = Json.Arr (List.map (fun c -> Json.Obj (render c)) cells) in
  Json.Obj
    [
      ("schema", str "deut-bench-recovery/1");
      ("scale", int scale);
      ("quick", Json.Bool quick);
      ("total_wall_s", f 3 total_wall_s);
      ("sections", cells (fun (name, w) -> [ ("name", str name); ("wall_s", f 3 w) ]) sections);
      ( "archiving",
        cells
          (fun (c : Figures.archiving_cell) ->
            let last = List.nth c.a_rounds (List.length c.a_rounds - 1) in
            [ ("archive", Json.Bool c.a_archive); ("rounds", int (List.length c.a_rounds));
              ("final_logged_kb", f 1 last.ar_logged_kb); ("final_live_kb", f 1 last.ar_live_kb);
              ("final_archived_kb", f 1 last.ar_archive_kb); ("segments", int last.ar_segments);
              ("digest", str c.a_digest) ])
          archiving );
      ( "availability",
        cells
          (fun (c : Figures.availability_cell) ->
            [ ("cache_mb", int c.v_cache_mb); ("ttft_ms", f 3 c.v_ttft_ms);
              ("drained_ms", f 3 c.v_drained_ms); ("log2_total_ms", f 3 c.v_log2_total_ms);
              ("speedup", f 2 c.v_speedup); ("pages_ondemand", int c.v_pages_ondemand);
              ("pages_background", int c.v_pages_background); ("probe_reads", int c.v_probe_reads) ])
          availability );
      ( "sharding",
        cells
          (fun (c : Figures.sharding_cell) ->
            let s = c.sh_stats in
            let recover = Option.fold ~none:Json.Null ~some:(fun cr -> f 3 cr.Figures.sc_recover_ms) in
            [ ("shards", int c.sh_shards); ("clients", int c.sh_clients);
              ("txns", int s.committed_txns); ("makespan_ms", f 3 s.makespan_ms);
              ("tput_tps", f 0 s.throughput_tps); ("net_msgs", int c.sh_net_msgs);
              ("recover_shard_ms", recover c.sh_crash); ("digest", str c.sh_digest) ])
          sharding );
      ( "domains",
        Json.Obj
          [ ("requested", int config.domains); ("used", int domains.dm_domains);
            ("cores_available", int domains.dm_cores);
            ("harness_seq_wall_s", f 3 domains.dm_seq_wall_s);
            ("harness_par_wall_s", f 3 domains.dm_par_wall_s);
            ("harness_speedup", f 2 (Figures.domains_speedup domains)) ] );
      ( "fig2",
        cells
          (fun (cell : Figures.fig2_cell) ->
            let methods (m, stats) =
              [ ("method", str (Deut_core.Recovery.method_to_string m));
                ("wall_s", f 4 (List.assoc m cell.method_walls));
                ("analysis_ms", f 3 (Rs.analysis_ms stats)); ("redo_ms", f 3 (Rs.redo_ms stats));
                ("undo_ms", f 3 (Rs.undo_ms stats)); ("records_scanned", int stats.records_scanned);
                ("redo_applied", int stats.redo_applied);
                ("data_page_fetches", int stats.data_page_fetches);
                ("log_pages_read", int stats.log_pages_read) ]
            in
            [ ("cache_mb", int cell.cache_mb); ("pool_pages", int cell.pool_pages);
              ("db_pages", int cell.db_pages); ("build_wall_s", f 3 cell.build_wall_s);
              ("methods", cells methods cell.methods) ])
          fig2 );
    ]

(* The file's bytes: indented, one line per cell. *)
let to_string summary = Json.to_string ~indent:true summary ^ "\n"

(* ---------- diff ---------- *)

(* Wall-clock fields vary run to run: these keys at any depth, and the
   machine-dependent counts of the "domains" block. *)
let is_wall ~parent key =
  List.mem key [ "total_wall_s"; "sections"; "wall_s"; "build_wall_s" ]
  || String.starts_with ~prefix:"harness_" key
  || (parent = "/domains" && List.mem key [ "used"; "cores_available"; "requested" ])

(* Every differing leaf as a "path: old -> new" line, in document order:
   [simulated] lines are behaviour changes (a missing or added key and a
   list whose length changed count, the list as one line); [wall] lines
   are never gated.  Numbers compare by value, so "1.0" equals "1". *)
type diff = { simulated : string list; wall : string list }

let diff old_ new_ =
  let simulated = ref [] and wall = ref [] in
  let show = function
    | Some (Json.Arr items) -> Printf.sprintf "%d items" (List.length items)
    | Some v -> Json.to_string v
    | None -> "(missing)"
  in
  let rec walk ~gated path a b =
    match (a, b) with
    | Some (Json.Obj fa), Some (Json.Obj fb) ->
        let added = List.filter (fun (k, _) -> not (List.mem_assoc k fa)) fb in
        List.iter
          (fun (k, _) ->
            walk
              ~gated:(gated && not (is_wall ~parent:path k))
              (path ^ "/" ^ k) (List.assoc_opt k fa) (List.assoc_opt k fb))
          (fa @ added)
    | Some (Json.Arr xa), Some (Json.Arr xb) when List.length xa = List.length xb ->
        List.iteri
          (fun i (x, y) -> walk ~gated (Printf.sprintf "%s[%d]" path i) (Some x) (Some y))
          (List.combine xa xb)
    | Some (Json.Num x), Some (Json.Num y) when float_of_string x = float_of_string y -> ()
    | a, b when a = b -> ()
    | a, b ->
        let line = Printf.sprintf "%s: %s -> %s" path (show a) (show b) in
        if gated then simulated := line :: !simulated else wall := line :: !wall
  in
  walk ~gated:true "" (Some old_) (Some new_);
  { simulated = List.rev !simulated; wall = List.rev !wall }
