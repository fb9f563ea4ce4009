(* Ring-buffer event trace.  See trace.mli for the contract. *)

type kind = Span | Instant | Flow_start | Flow_step | Flow_end

type event = {
  name : string;
  cat : string;
  track : int;
  ts : float;
  dur : float;
  kind : kind;
  args : (string * int) list;
}

type t = {
  now : unit -> float;
  capacity : int;
  buf : event array;
  mutable total : int; (* events ever recorded *)
  mutable stopped : bool;
  owner : Domain.id;  (* instrumentation is single-domain; see trace.mli *)
}

let track_recovery = 0
let track_cache = 1
let track_data_disk = 2
let track_log_disk = 3
let track_dc_log_disk = 4
let track_wal = 5
let track_monitor = 6
let track_archive_disk = 7
let worker_track_base = 8
let track_worker w = worker_track_base + w
let track_net = 39
let shard_track_base = 40
let track_shard s = shard_track_base + s
let track_ondemand = 63
let client_track_base = 64
let track_client c = client_track_base + c

(* Chrome "process" grouping: the engine's lanes live in pid 0, the
   network in pid 1, and each data-component shard in its own pid, so
   Perfetto groups lanes per component instead of one flat list. *)
let pid_of_track tid =
  if tid = track_net then 1
  else if tid >= shard_track_base && tid < track_ondemand then 2 + (tid - shard_track_base)
  else 0

let pid_name = function
  | 0 -> "engine"
  | 1 -> "net"
  | p -> "shard-" ^ string_of_int (p - 2)

let track_name = function
  | 0 -> "recovery"
  | 1 -> "cache"
  | 2 -> "data-disk"
  | 3 -> "log-disk"
  | 4 -> "dc-log-disk"
  | 5 -> "wal"
  | 6 -> "monitor"
  | 7 -> "archive-disk"
  | 39 -> "net"
  | 63 -> "ondemand-redo"
  | n when n >= client_track_base -> "client-" ^ string_of_int (n - client_track_base)
  | n when n >= shard_track_base -> "shard-" ^ string_of_int (n - shard_track_base)
  | n when n >= worker_track_base -> "redo-worker-" ^ string_of_int (n - worker_track_base)
  | n -> "track-" ^ string_of_int n

let dummy =
  { name = ""; cat = ""; track = 0; ts = 0.0; dur = 0.0; kind = Instant; args = [] }

let create ~now ?(capacity = 65536) () =
  if capacity < 1 then invalid_arg "Trace.create: capacity must be positive";
  {
    now;
    capacity;
    buf = Array.make capacity dummy;
    total = 0;
    stopped = false;
    owner = Domain.self ();
  }

let now t = t.now ()

(* The ownership guard makes a cross-domain event a loud error instead of
   a silently torn ring (two domains racing [total] would overwrite each
   other's slots).  One comparison per event; tracing is a diagnostic
   mode, so the cost is irrelevant. *)
let push t ev =
  if Domain.self () <> t.owner then
    invalid_arg
      ("Trace: event '" ^ ev.name
     ^ "' pushed from a domain that does not own this ring (instrumentation \
        is single-domain: give each domain its own engine)");
  if not t.stopped then begin
    t.buf.(t.total mod t.capacity) <- ev;
    t.total <- t.total + 1
  end

let span t ~name ~cat ?(track = 0) ~ts ~dur ?(args = []) () =
  push t { name; cat; track; ts; dur; kind = Span; args }

let instant t ~name ~cat ?(track = 0) ?(args = []) () =
  push t { name; cat; track; ts = t.now (); dur = 0.0; kind = Instant; args }

(* Flow events carry their id as the ["id"] arg by convention; the
   exporter renders it as the top-level Chrome flow [id] field.  The
   timestamp is explicit so a flow point can be placed inside the span it
   binds to (spans are emitted after their duration is known). *)
let flow t kind ~name ~cat ?(track = 0) ~ts ~id () =
  push t { name; cat; track; ts; dur = 0.0; kind; args = [ ("id", id) ] }

let flow_start t = flow t Flow_start
let flow_step t = flow t Flow_step
let flow_end t = flow t Flow_end

let flow_id ev = match List.assoc_opt "id" ev.args with Some id -> id | None -> -1

let stop t = t.stopped <- true
let emitted t = t.total
let length t = min t.total t.capacity
let dropped t = max 0 (t.total - t.capacity)

let events t =
  let n = length t in
  let first = t.total - n in
  List.init n (fun i -> t.buf.((first + i) mod t.capacity))

let count t ?kind ?name () =
  let matches ev =
    (match kind with Some k -> ev.kind = k | None -> true)
    && match name with Some n -> ev.name = n | None -> true
  in
  List.fold_left (fun acc ev -> if matches ev then acc + 1 else acc) 0 (events t)

(* ---------- export ---------- *)

(* Fixed "%.3f" keeps the output byte-stable across runs: the inputs are
   deterministic doubles from the simulation, so their rounding is too. *)
let us x = Json.fixed ~decimals:3 x

let event_json ev =
  let str s = Json.Str s in
  let common =
    [ ("name", str ev.name); ("cat", str ev.cat); ("pid", Json.int (pid_of_track ev.track));
      ("tid", Json.int ev.track); ("ts", us ev.ts) ]
  in
  let args =
    if ev.args = [] then []
    else [ ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.int v)) ev.args)) ]
  in
  let id = ("id", Json.int (flow_id ev)) in
  Json.Obj
    (common
    @
    match ev.kind with
    | Span -> ("ph", str "X") :: ("dur", us ev.dur) :: args
    | Instant -> ("ph", str "i") :: ("s", str "t") :: args
    | Flow_start -> [ ("ph", str "s"); id ]
    | Flow_step -> [ ("ph", str "t"); id ]
    | Flow_end -> [ ("ph", str "f"); ("bp", str "e"); id ])

(* A metadata event (ph "M"): lane names and the metrics snapshot. *)
let metadata ~name ~pid ~tid args =
  Json.Obj
    [ ("name", Json.Str name); ("ph", Json.Str "M"); ("pid", Json.int pid); ("tid", Json.int tid);
      ("args", Json.Obj args) ]

let to_chrome_json ?metrics t =
  (* Process- and thread-name metadata so Perfetto groups lanes per
     component and labels them: the seven fixed lanes plus any extra lane
     actually present in the events, each under its component's pid. *)
  let evs = events t in
  let extra =
    List.sort_uniq compare
      (List.filter_map (fun ev -> if ev.track > 6 then Some ev.track else None) evs)
  in
  let lanes = List.init 7 Fun.id @ extra in
  let pids = List.sort_uniq compare (List.map pid_of_track lanes) in
  let label s = [ ("name", Json.Str s) ] in
  let names =
    List.map (fun pid -> metadata ~name:"process_name" ~pid ~tid:0 (label (pid_name pid))) pids
    @ List.map
        (fun tid -> metadata ~name:"thread_name" ~pid:(pid_of_track tid) ~tid (label (track_name tid)))
        lanes
  in
  (* A metrics snapshot rides along as metadata events (ignored by trace
     viewers, read back by tools): one per registered name, in registration
     order so the bytes are stable. *)
  let snapshot m =
    List.map
      (fun name ->
        let n =
          match Metrics.find_histogram m name with
          | Some h -> [ ("n", Json.int (Metrics.observations h)) ]
          | None -> []
        in
        metadata ~name:"metric" ~pid:0 ~tid:0
          (("metric", Json.Str name) :: ("value", us (Metrics.read m name)) :: n))
      (Metrics.names m)
  in
  let metrics = Option.fold ~none:[] ~some:snapshot metrics in
  Json.to_string
    (Json.Obj
       [
         ("displayTimeUnit", Json.Str "ms");
         ("traceEvents", Json.Arr (names @ metrics @ List.map event_json evs));
       ])

(* A dropped event means an export would describe a truncated run; tell
   the operator exactly what capacity to ask for. *)
let overflow_advice t =
  if dropped t = 0 then None
  else
    Some
      (Printf.sprintf
         "trace ring overflowed (%d of %d events dropped).\n\
          A trace_capacity of %d would have sufficed — rerun with DEUT_TRACE_CAP=%d."
         (dropped t) (emitted t) (emitted t) (emitted t))
