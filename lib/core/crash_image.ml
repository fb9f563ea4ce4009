(** What survives a crash: the stable page store, the stable log prefix,
    and the master record (last completed checkpoint) — per shard.

    A captured image is immutable here: every recovery run instantiates its
    own deep copies, so the five methods of §5.2 can be compared
    side-by-side from the {e same} crash — the paper's controlled
    methodology.

    The scalar [store]/[dc_log] fields are shard 0 (the whole engine when
    [shards = 1]); [extra_shards] carries the stable state of shards
    [1 .. n-1].  The TC log is shared: there is one commit order however
    many data components there are. *)

module Page_store = Deut_storage.Page_store
module Log_manager = Deut_wal.Log_manager
module Lsn = Deut_wal.Lsn
module Flight = Deut_obs.Flight

type shard_image = {
  sh_store : Page_store.t;
  sh_dc_log : Log_manager.t;  (* every sibling shard runs the split layout *)
}

type t = {
  config : Config.t;
  store : Page_store.t;
  log : Log_manager.t;  (* TC log, truncated to the stable prefix or the [upto] cut *)
  dc_log : Log_manager.t option;  (* shard 0's own log in the split layout *)
  master : Lsn.t;
  extra_shards : shard_image array;  (* shards 1..n-1; empty when [shards = 1] *)
  flight : Flight.snapshot option;
      (* the flight recorder's last-moments snapshot: not recovery input,
         but forensic evidence [repro_cli forensics] prints after the fact *)
}

(* [upto] cuts the TC log at a record boundary instead of its stable end:
   a crash right after that append.  Each DC log keeps only its forced
   prefix either way (SMOs force synchronously, so structure changes are
   never in a lost tail). *)
let capture ?upto (engine : Engine.t) =
  let extra_shards =
    Array.init
      (Engine.shard_count engine - 1)
      (fun i ->
        let sh = Engine.shard engine (i + 1) in
        {
          sh_store = Page_store.clone sh.Engine.s_store;
          sh_dc_log = Log_manager.crash sh.Engine.s_dc_log;
        })
  in
  let sh0 = Engine.shard engine 0 in
  let log = engine.Engine.log in
  {
    config = engine.Engine.config;
    store = Page_store.clone sh0.Engine.s_store;
    log = Log_manager.crash_at log (Option.value upto ~default:(Log_manager.stable_lsn log));
    dc_log =
      (if Engine.split engine then Some (Log_manager.crash sh0.Engine.s_dc_log) else None);
    master = Tc.master engine.Engine.tc;
    extra_shards;
    flight = Option.map Flight.snapshot (Engine.flight engine);
  }

let config t = t.config
let master t = t.master
let flight t = t.flight
let shard_count t = Array.length t.extra_shards + 1

let instantiate ?config t =
  let config = Option.value config ~default:t.config in
  (* A config override may retune cache sizes etc., but the log layout is a
     property of what was logged: recovering a split image as integrated
     would silently drop the DC log (and vice versa would look for one that
     does not exist).  Likewise the shard count: striping placed every key,
     so the image can only be recovered at the width it was written. *)
  (match (t.dc_log, config.Config.log_layout) with
  | Some _, Config.Split | None, Config.Integrated -> ()
  | Some _, Config.Integrated ->
      invalid_arg "Crash_image.instantiate: split-log image cannot be recovered as integrated"
  | None, Config.Split ->
      invalid_arg "Crash_image.instantiate: integrated image cannot be recovered as split");
  if Stdlib.max 1 config.Config.shards <> shard_count t then
    invalid_arg
      (Printf.sprintf "Crash_image.instantiate: image has %d shard(s), config asks for %d"
         (shard_count t) config.Config.shards);
  let dc_log = Option.map Log_manager.crash t.dc_log in
  let extra_shards =
    if Array.length t.extra_shards = 0 then None
    else
      Some
        (Array.map
           (fun si -> (Page_store.clone si.sh_store, Log_manager.crash si.sh_dc_log))
           t.extra_shards)
  in
  Engine.assemble ?dc_log ?extra_shards config ~store:(Page_store.clone t.store)
    ~log:(Log_manager.crash t.log)

let stable_pages t =
  Array.fold_left
    (fun acc si -> acc + Page_store.stable_count si.sh_store)
    (Page_store.stable_count t.store) t.extra_shards
