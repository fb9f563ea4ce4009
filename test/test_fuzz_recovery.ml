(* Randomized crash-recovery property test.

   The workload/image generator lives in [Deut_workload.Fuzz] (shared
   with [repro_cli forensics]); this suite drives it over a seed corpus,
   recovers every sampled image under all runnable methods and compares
   each result, key for key, against the committed-prefix oracle folded
   from the image's own log.  InstantLog2 additionally runs in the staged
   open-while-redoing form with probe reads interleaved with background
   drain steps.

   On any failure the seed and a copy-paste repro command are printed, and
   the seed is appended to $DEUT_FUZZ_FAIL_FILE when set (CI uploads it as
   an artifact, then runs [repro_cli forensics] on each listed seed).
   Env knobs:
     DEUT_FUZZ_SEEDS=s1,s2,...   run exactly these seeds
     DEUT_FUZZ_SALT=n            add DEUT_FUZZ_COUNT (default 16) fresh
                                 seeds derived from n *)

module Db = Deut_core.Db
module Recovery = Deut_core.Recovery
module Crash_image = Deut_core.Crash_image
module Fuzz = Deut_workload.Fuzz
module Rng = Deut_sim.Rng

(* The runner's config, whose shard count (DEUT_SHARDS) stripes the
   fuzzed key space across that many data components (§4.1 protocol +
   split layout per shard).  CI runs the matrix at 1 and 4. *)
let fuzz_shards = Env.config.Deut_core.Config.shards

let dump_all db =
  List.concat_map
    (fun table -> List.map (fun (k, v) -> ((table, k), v)) (Db.dump_table db ~table))
    Fuzz.tables
  |> List.sort compare

let show entries =
  String.concat "; "
    (List.map (fun ((t, k), v) -> Printf.sprintf "%d:%d=%s" t k v) entries)

(* One "<seed> <shards>" line per failure: exactly the arguments
   [repro_cli forensics] needs to rebuild the failing image. *)
let fail_file = Sys.getenv_opt "DEUT_FUZZ_FAIL_FILE"

let note_failure seed =
  match fail_file with
  | None -> ()
  | Some path ->
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
      Printf.fprintf oc "%d %d\n" seed fuzz_shards;
      close_out oc

let fail_seed seed fmt =
  Printf.ksprintf
    (fun msg ->
      note_failure seed;
      Alcotest.failf "seed %d: %s\n  %s" seed msg (Fuzz.repro_hint seed))
    fmt

let methods = Fuzz.methods_for ~shards:fuzz_shards

let run_seed seed () =
  let image = Fuzz.build_image ~config:Env.config seed in
  let expected = Fuzz.expected_of_log image.Crash_image.log in
  (* Every runnable method against the oracle. *)
  List.iter
    (fun m ->
      let recovered, _stats = Db.recover image m in
      (match Db.check_integrity recovered with
      | Ok () -> ()
      | Error msg -> fail_seed seed "%s: broken B-tree: %s" (Recovery.method_to_string m) msg);
      let got = dump_all recovered in
      if got <> expected then
        fail_seed seed "%s diverged from oracle:\n  expected %s\n  got      %s"
          (Recovery.method_to_string m) (show expected) (show got))
    methods;
  if fuzz_shards > 1 then ()
  else begin
  (* InstantLog2, staged: probe reads interleaved with the background
     drain, then finish and compare again. *)
  let inst = Db.recover_instant image in
  let db = Db.instant_db inst in
  let probe_rng = Rng.create ~seed:(seed + 7919) in
  let progressed = ref true in
  while !progressed do
    let table = List.nth Fuzz.tables (Rng.int probe_rng (List.length Fuzz.tables)) in
    ignore (Db.read db ~table ~key:(Rng.int probe_rng 200));
    progressed := Db.instant_step inst
  done;
  ignore (Db.instant_finish inst);
  let got = dump_all db in
  if got <> expected then
    fail_seed seed "staged InstantLog2 diverged from oracle:\n  expected %s\n  got      %s"
      (show expected) (show got)
  end

let seeds =
  match Sys.getenv_opt "DEUT_FUZZ_SEEDS" with
  | Some csv ->
      List.map
        (fun s -> int_of_string (String.trim s))
        (List.filter (fun s -> String.trim s <> "") (String.split_on_char ',' csv))
  | None -> (
      match Sys.getenv_opt "DEUT_FUZZ_SALT" with
      | None -> Fuzz.corpus
      | Some salt ->
          let count =
            match Sys.getenv_opt "DEUT_FUZZ_COUNT" with Some n -> int_of_string n | None -> 16
          in
          let r = Rng.create ~seed:(int_of_string salt) in
          Fuzz.corpus @ List.init count (fun _ -> Rng.int r 1_000_000))

let suite =
  List.map
    (fun seed ->
      Alcotest.test_case (Printf.sprintf "seed %d" seed) `Quick (run_seed seed))
    seeds
