(* The test runner's edge: [Config.default] under the DEUT_* environment,
   read once.  Suites whose coverage the CI matrix legs vary (shards,
   clients, redo workers, archiving, the network) build from this;
   golden suites, whose bytes must not depend on the leg, build from the
   pure [Config.default]. *)
let config = Deut_core.Config.of_env Deut_core.Config.default
