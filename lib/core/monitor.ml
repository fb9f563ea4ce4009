module Lr = Deut_wal.Log_record
module Lsn = Deut_wal.Lsn
module Ivec = Deut_sim.Ivec

type t = {
  config : Config.t;
  log_append : Lr.t -> int;  (* appends, returning the payload bytes written *)
  stable_lsn : unit -> Lsn.t;
  trace : Deut_obs.Trace.t option;
  (* Δ-record state *)
  dirty : Ivec.t;
  dirty_lsns : Ivec.t;  (* Perfect mode only *)
  written : Ivec.t;
  mutable fw_lsn : Lsn.t;
  mutable first_dirty : int;  (* |dirty| at first flush; max_int = no flush yet *)
  (* BW-record state *)
  bw_written : Ivec.t;
  mutable bw_fw_lsn : Lsn.t;
  mutable updates_since_emit : int;
  (* ARIES runtime DPT *)
  runtime : (int, Lsn.t) Hashtbl.t;
  (* counters *)
  mutable deltas : int;
  mutable bws : int;
  mutable delta_bytes : int;
  mutable bw_bytes : int;
}

let create ?trace ~config ~log_append ~stable_lsn () =
  {
    config;
    log_append;
    stable_lsn;
    trace;
    dirty = Ivec.create ();
    dirty_lsns = Ivec.create ();
    written = Ivec.create ();
    fw_lsn = Lsn.nil;
    first_dirty = max_int;
    bw_written = Ivec.create ();
    bw_fw_lsn = Lsn.nil;
    updates_since_emit = 0;
    runtime = Hashtbl.create 512;
    deltas = 0;
    bws = 0;
    delta_bytes = 0;
    bw_bytes = 0;
  }

let track_runtime t pid lsn =
  if t.config.Config.checkpoint_mode = Config.Aries_fuzzy && not (Hashtbl.mem t.runtime pid)
  then Hashtbl.replace t.runtime pid lsn

let emit_delta t =
  if not (Ivec.is_empty t.dirty && Ivec.is_empty t.written) then begin
    let reduced = t.config.Config.dpt_mode = Config.Reduced in
    (* §D.2 reduced logging drops FW-LSN and FirstDirty: analysis treats
       the whole DirtySet as dirtied before any flush of the interval.
       Only the D.1 perfect DPT carries the dirtying LSNs. *)
    let record =
      Lr.Delta
        {
          dirty = Ivec.to_array t.dirty;
          written = Ivec.to_array t.written;
          fw_lsn = (if reduced then Lsn.nil else t.fw_lsn);
          first_dirty =
            (if reduced || t.first_dirty = max_int then Ivec.length t.dirty else t.first_dirty);
          tc_lsn = t.stable_lsn ();
          dirty_lsns = Ivec.to_array t.dirty_lsns;
        }
    in
    t.delta_bytes <- t.delta_bytes + t.log_append record;
    t.deltas <- t.deltas + 1;
    (match t.trace with
    | Some tr ->
        Deut_obs.Trace.instant tr ~name:"delta_emit" ~cat:"monitor"
          ~track:Deut_obs.Trace.track_monitor
          ~args:[ ("dirty", Ivec.length t.dirty); ("written", Ivec.length t.written) ]
          ()
    | None -> ());
    Ivec.clear t.dirty;
    Ivec.clear t.dirty_lsns;
    Ivec.clear t.written;
    t.fw_lsn <- Lsn.nil;
    t.first_dirty <- max_int
  end

let emit_bw t =
  if not (Ivec.is_empty t.bw_written) then begin
    let record = Lr.Bw { written = Ivec.to_array t.bw_written; fw_lsn = t.bw_fw_lsn } in
    t.bw_bytes <- t.bw_bytes + t.log_append record;
    t.bws <- t.bws + 1;
    (match t.trace with
    | Some tr ->
        Deut_obs.Trace.instant tr ~name:"bw_emit" ~cat:"monitor"
          ~track:Deut_obs.Trace.track_monitor
          ~args:[ ("written", Ivec.length t.bw_written) ]
          ()
    | None -> ());
    Ivec.clear t.bw_written;
    t.bw_fw_lsn <- Lsn.nil
  end

(* Δ first, then BW, per the experimental-fairness rule of §5.2. *)
let emit_both t =
  emit_delta t;
  emit_bw t

let on_dirty t ~pid ~lsn =
  Ivec.push t.dirty pid;
  if t.config.Config.dpt_mode = Config.Perfect then Ivec.push t.dirty_lsns lsn;
  track_runtime t pid lsn;
  if Ivec.length t.dirty >= t.config.Config.delta_capacity then emit_delta t

let on_flush t ~pid =
  if Ivec.is_empty t.written then begin
    t.fw_lsn <- t.stable_lsn ();
    t.first_dirty <- Ivec.length t.dirty
  end;
  Ivec.push t.written pid;
  if Ivec.is_empty t.bw_written then t.bw_fw_lsn <- t.stable_lsn ();
  Ivec.push t.bw_written pid;
  Hashtbl.remove t.runtime pid;
  if
    Ivec.length t.written >= t.config.Config.delta_capacity
    || Ivec.length t.bw_written >= t.config.Config.delta_capacity
  then emit_both t

let tick_update t =
  t.updates_since_emit <- t.updates_since_emit + 1;
  if t.updates_since_emit >= t.config.Config.delta_period then begin
    t.updates_since_emit <- 0;
    emit_both t
  end

let emit_pending t =
  t.updates_since_emit <- 0;
  emit_both t

let deltas_written t = t.deltas
let bws_written t = t.bws
let delta_bytes t = t.delta_bytes
let bw_bytes t = t.bw_bytes

let runtime_dpt t =
  Hashtbl.fold (fun pid rlsn acc -> (pid, rlsn, rlsn) :: acc) t.runtime []
  |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b)
  |> Array.of_list
