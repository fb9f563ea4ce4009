(* [Config.default] is a constant.  test/dune runs this with every DEUT_*
   variable [Config.of_env] reads set to a valid non-default value: the
   default must still equal the literal below, while [of_env] must see
   every one of those values (so the check cannot pass vacuously). *)

module Config = Deut_core.Config

let expected =
  {
    Config.page_size = 8192;
    pool_pages = 1024;
    delta_period = 1000;
    delta_capacity = 256;
    lazy_writer_every = 1;
    dpt_mode = Config.Standard;
    checkpoint_mode = Config.Penultimate;
    prefetch_window = 32;
    prefetch_chunk = 16;
    prefetch_lookahead = 512;
    prefetch_source = Config.Pf_list;
    redo_workers = 1;
    log_layout = Config.Integrated;
    locking = false;
    group_commit = 1;
    clients = 1;
    flight = true;
    flight_capacity = 128;
    tracing = false;
    trace_capacity = 65536;
    archive = false;
    archive_min_bytes = 0;
    shards = 1;
    domains = 1;
    net = false;
    net_latency_us = 50.0;
    net_jitter_us = 0.0;
    net_loss = 0.0;
    net_reorder = 0.0;
    net_timeout_us = 1000.0;
    seed = 42;
  }

(* The values test/dune sets. *)
let expected_env =
  {
    expected with
    Config.trace_capacity = 4096;
    flight = false;
    flight_capacity = 64;
    redo_workers = 3;
    clients = 3;
    archive = true;
    archive_min_bytes = 512;
    shards = 4;
    domains = 2;
    net = true;
    net_latency_us = 123.5;
    net_jitter_us = 7.5;
    net_loss = 0.25;
    net_reorder = 0.125;
    net_timeout_us = 2500.0;
  }

let () =
  let fail msg =
    prerr_endline ("config purity: " ^ msg);
    exit 1
  in
  if Config.default <> expected then fail "Config.default is not the constant it should be";
  if Config.of_env Config.default <> expected_env then
    fail "Config.of_env did not read every DEUT_* value this check sets"
