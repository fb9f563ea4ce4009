(* The test runner's edge: [Config.default] under the DEUT_* environment,
   read once, and the qcheck seed.  Suites whose coverage the CI matrix
   legs vary (shards, clients, redo workers, archiving, the network) build
   from this; golden suites, whose bytes must not depend on the leg, build
   from the pure [Config.default]. *)
let config = Deut_core.Config.of_env Deut_core.Config.default

(* Every qcheck property draws from one fixed seed, so two runs of a tree
   explore the same cases and a failure replays as it stands.  QCHECK_SEED
   picks another seed (CI draws a fresh one per run and prints it); an
   empty value counts as unset. *)
let qcheck_seed =
  match Sys.getenv_opt "QCHECK_SEED" with
  | None | Some "" -> 0x5eed
  | Some s -> (
      match int_of_string_opt s with
      | Some seed -> seed
      | None ->
          prerr_endline (Printf.sprintf "QCHECK_SEED=%S is not an integer" s);
          exit 2)

let qcheck t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| qcheck_seed |]) t
