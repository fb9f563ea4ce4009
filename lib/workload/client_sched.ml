(* Deterministic multi-client scheduler.  See client_sched.mli for the
   contract and DESIGN.md §7 for the full argument. *)

module Db = Deut_core.Db
module Config = Deut_core.Config
module Engine = Deut_core.Engine
module Clock = Deut_sim.Clock
module Cursor = Deut_sim.Clock.Cursor
module Rng = Deut_sim.Rng
module Trace = Deut_obs.Trace
module Metrics = Deut_obs.Metrics

type desc = { ticket : int; ops : Workload.op array }

type client = {
  cid : int;
  rng : Rng.t;  (* timing only: think time, backoff jitter *)
  cursor : Cursor.t;
  mutable desc : desc option;  (* the descriptor being executed *)
  mutable txn : Db.Txn.t option;
  mutable next_op : int;
  mutable committing : bool;  (* all ops applied; at the commit gate *)
  mutable parked : bool;  (* not schedulable until unparked *)
  mutable attempts : int;  (* aborts of the current descriptor *)
  mutable requested_at : float;  (* entered the commit gate *)
  mutable started_at : float;  (* began the current attempt *)
  mutable commits : int;
  mutable aborts : int;
}

type t = {
  db : Db.t;
  oracle : Oracle.t option;
  spec : Workload.spec;
  clock : Clock.t;
  clients : client array;
  stream : Workload.stream;  (* descriptor content, consumed in ticket order *)
  mutable next_ticket : int;
  mutable tickets_limit : int;
  mutable commits_done : int;  (* the ticket the gate admits next *)
  active : (int, client) Hashtbl.t;  (* txn id -> executing client *)
  wounded : (int, unit) Hashtbl.t;  (* txn ids doomed by an older client *)
  latency_q : float Queue.t;  (* gate-entry times awaiting a force *)
  commit_hist : Metrics.histogram;
  trace : Trace.t option;
  started_us : float;
  conflicts0 : int;  (* lock-table refusals before this run *)
  mutable committed_ops : int;
  mutable wounds : int;
}

type stats = {
  committed_txns : int;
  committed_ops : int;
  aborts : int;
  wounds : int;
  conflicts : int;
  makespan_ms : float;
  throughput_tps : float;
  abort_rate : float;
  commit_p50_us : float;
  commit_p95_us : float;
}

let create ?oracle db spec =
  let engine = Db.engine db in
  let clock = engine.Engine.clock in
  let cfg = Db.config db in
  let n = Stdlib.max 1 cfg.Config.clients in
  (* Content and timing draw from disjoint streams: the content stream is
     consumed in ticket order (client-count independent), while each
     client's timing stream only shapes the interleaving. *)
  let stream = Workload.stream spec (Rng.create ~seed:(spec.Workload.seed + 0x6c1e)) in
  let timing = Rng.create ~seed:(spec.Workload.seed + 0x71e) in
  let now = Clock.now clock in
  let clients =
    Array.init n (fun cid ->
        {
          cid;
          rng = Rng.split timing;
          cursor = Cursor.make ~at:now clock;
          desc = None;
          txn = None;
          next_op = 0;
          committing = false;
          parked = false;
          attempts = 0;
          requested_at = now;
          started_at = now;
          commits = 0;
          aborts = 0;
        })
  in
  let m = Engine.metrics engine in
  let t =
    {
      db;
      oracle;
      spec;
      clock;
      clients;
      stream;
      next_ticket = 0;
      tickets_limit = 0;
      commits_done = 0;
      active = Hashtbl.create 64;
      wounded = Hashtbl.create 16;
      latency_q = Queue.create ();
      commit_hist = Metrics.histogram m "txn.commit_latency_us";
      trace = Engine.trace engine;
      started_us = now;
      conflicts0 = Metrics.read_int m "locks.conflicts";
      committed_ops = 0;
      wounds = 0;
    }
  in
  (* Stagger first arrivals with an initial think, so clients do not all
     fire at the same instant. *)
  Array.iter
    (fun c -> Cursor.advance_to c.cursor (now +. Rng.float c.rng Config.think_us))
    t.clients;
  t

(* ---------- descriptor stream ---------- *)

let draw_desc t =
  let ticket = t.next_ticket in
  t.next_ticket <- ticket + 1;
  (* One table per operation; [Array.init] draws the ops in order. *)
  let draw _ = Workload.draw_op t.stream ~table:(Workload.draw_table t.stream) in
  { ticket; ops = Array.init t.spec.Workload.ops_per_txn draw }

(* ---------- bookkeeping ---------- *)

let trace_instant t c name args =
  match t.trace with
  | Some tr -> Trace.instant tr ~name ~cat:"client" ~track:(Trace.track_client c.cid) ~args ()
  | None -> ()

let trace_txn_span t c ~name ~args =
  match t.trace with
  | Some tr ->
      let now = Clock.now t.clock in
      Trace.span tr ~name ~cat:"client" ~track:(Trace.track_client c.cid) ~ts:c.started_at
        ~dur:(now -. c.started_at) ~args ()
  | None -> ()

(* The engine forced its log: every queued commit became durable. *)
let on_force t =
  let now = Clock.now t.clock in
  while not (Queue.is_empty t.latency_q) do
    let requested = Queue.pop t.latency_q in
    Metrics.observe t.commit_hist (now -. requested)
  done;
  match t.oracle with Some o -> Oracle.force o | None -> ()

let think_us c = (0.5 *. Config.think_us) +. Rng.float c.rng Config.think_us

let backoff_us c =
  let base = Config.retry_backoff_us *. float_of_int (1 lsl Stdlib.min c.attempts 6) in
  base +. Rng.float c.rng base

let ticket_of c = match c.desc with Some d -> d.ticket | None -> max_int

(* Abort the current attempt: roll back, release locks, back off, and
   retry the same descriptor (the ticket is not returned to the stream —
   content never depends on the abort history). *)
let abort_current t c ~wounded =
  match c.txn with
  | None -> ()
  | Some txn ->
      let id = Db.Txn.id txn in
      Hashtbl.remove t.active id;
      Hashtbl.remove t.wounded id;
      Db.abort t.db txn;
      (* [Tc.abort] ends in a log force: queued group commits just became
         durable. *)
      on_force t;
      (match t.oracle with Some o -> Oracle.abort o ~txn:id | None -> ());
      c.txn <- None;
      c.next_op <- 0;
      c.committing <- false;
      c.parked <- false;
      c.aborts <- c.aborts + 1;
      c.attempts <- c.attempts + 1;
      if c.attempts > 2_000 then
        failwith
          (Printf.sprintf "Client_sched: client %d ticket %d aborted %d times — livelock" c.cid
             (ticket_of c) c.attempts);
      trace_txn_span t c ~name:(if wounded then "txn-wounded" else "txn-aborted")
        ~args:[ ("ticket", ticket_of c); ("attempt", c.attempts) ];
      Cursor.advance_to c.cursor (Clock.now t.clock +. backoff_us c)

let handle_conflict t c ~holder =
  trace_instant t c "conflict" [ ("holder", holder) ];
  match Hashtbl.find_opt t.active holder with
  | Some hc when ticket_of hc > ticket_of c ->
      (* Older wounds younger: doom the holder, keep our locks, and poll
         the same op after a short fixed backoff.  The holder aborts at
         its next step; since the oldest outstanding ticket is never
         wounded, it always makes progress — no livelock. *)
      if not (Hashtbl.mem t.wounded holder) then begin
        Hashtbl.replace t.wounded holder ();
        t.wounds <- t.wounds + 1;
        trace_instant t c "wound" [ ("victim", holder); ("victim_client", hc.cid) ]
      end;
      if hc.parked then begin
        hc.parked <- false;
        Cursor.advance_to hc.cursor (Clock.now t.clock)
      end;
      Cursor.advance_to c.cursor (Clock.now t.clock +. Config.retry_backoff_us)
  | _ ->
      (* Younger loses to older: no-wait abort, exponential backoff. *)
      abort_current t c ~wounded:false

let commit_current t c =
  let txn = Option.get c.txn in
  let d = Option.get c.desc in
  let id = Db.Txn.id txn in
  Hashtbl.remove t.active id;
  Hashtbl.remove t.wounded id;
  let durable = Db.commit_durable t.db txn in
  (match t.oracle with Some o -> Oracle.commit_queued o ~txn:id | None -> ());
  Queue.add c.requested_at t.latency_q;
  if durable then on_force t;
  t.commits_done <- d.ticket + 1;
  t.committed_ops <- t.committed_ops + Array.length d.ops;
  c.commits <- c.commits + 1;
  trace_txn_span t c ~name:"txn" ~args:[ ("ticket", d.ticket); ("attempts", c.attempts) ];
  c.txn <- None;
  c.desc <- None;
  c.next_op <- 0;
  c.committing <- false;
  c.attempts <- 0;
  Cursor.advance_to c.cursor (Clock.now t.clock +. think_us c);
  (* Open the gate for the next ticket's holder if it is already waiting. *)
  Array.iter
    (fun c' ->
      if c'.parked then
        match c'.desc with
        | Some d' when d'.ticket = t.commits_done ->
            c'.parked <- false;
            Cursor.advance_to c'.cursor (Clock.now t.clock)
        | _ -> ())
    t.clients

(* One scheduling quantum for a client, on its own timeline. *)
let step t c =
  Cursor.enter c.cursor;
  (match c.txn with
  | Some txn when Hashtbl.mem t.wounded (Db.Txn.id txn) -> abort_current t c ~wounded:true
  | _ ->
      if c.committing then begin
        match c.desc with
        | Some d when d.ticket = t.commits_done -> commit_current t c
        | Some _ -> c.parked <- true (* an earlier ticket is still running *)
        | None -> assert false
      end
      else begin
        match c.txn with
        | None -> (
            if c.desc = None then
              if t.next_ticket < t.tickets_limit then c.desc <- Some (draw_desc t)
              else c.parked <- true (* stream exhausted: nothing left to do *);
            match c.desc with
            | None -> ()
            | Some _ ->
                let txn = Db.begin_txn ~client:c.cid t.db in
                (match t.oracle with
                | Some o -> Oracle.begin_txn o (Db.Txn.id txn)
                | None -> ());
                Hashtbl.replace t.active (Db.Txn.id txn) c;
                c.txn <- Some txn;
                c.next_op <- 0;
                c.started_at <- Clock.now t.clock)
        | Some txn ->
            let d = Option.get c.desc in
            if c.next_op >= Array.length d.ops then begin
              c.committing <- true;
              c.requested_at <- Clock.now t.clock
            end
            else begin
              Clock.advance t.clock Config.cpu_op_us;
              match Workload.exec t.db ?oracle:t.oracle t.spec txn d.ops.(c.next_op) with
              | Workload.Wrote | Workload.Skipped -> c.next_op <- c.next_op + 1
              | Workload.Conflict holder -> handle_conflict t c ~holder
            end
      end);
  Cursor.leave c.cursor

(* Earliest-cursor-first among schedulable clients; ties go to the lowest
   client id (first found). *)
let pick t =
  let best = ref None in
  Array.iter
    (fun c ->
      if not c.parked then
        match !best with
        | Some b when Cursor.time b.cursor <= Cursor.time c.cursor -> ()
        | _ -> best := Some c)
    t.clients;
  !best

let finish_clock t =
  let horizon =
    Array.fold_left (fun acc c -> Stdlib.max acc (Cursor.time c.cursor)) (Clock.now t.clock)
      t.clients
  in
  Clock.advance_to t.clock horizon

let run t ~txns =
  t.tickets_limit <- t.tickets_limit + txns;
  Array.iter (fun c -> if c.parked && c.desc = None && c.txn = None then c.parked <- false) t.clients;
  while t.commits_done < t.tickets_limit do
    match pick t with
    | Some c -> step t c
    | None -> failwith "Client_sched.run: every client parked — scheduler deadlock"
  done;
  finish_clock t

let run_steps t ~steps =
  if t.tickets_limit <> max_int then t.tickets_limit <- max_int;
  Array.iter (fun c -> if c.parked && c.desc = None && c.txn = None then c.parked <- false) t.clients;
  for _ = 1 to steps do
    match pick t with Some c -> step t c | None -> ()
  done;
  finish_clock t

let flush t =
  Db.flush_commits t.db;
  on_force t

let commits_done t = t.commits_done

let stats t =
  let m = Engine.metrics (Db.engine t.db) in
  let commits = Array.fold_left (fun a c -> a + c.commits) 0 t.clients in
  let aborts = Array.fold_left (fun a (c : client) -> a + c.aborts) 0 t.clients in
  let makespan_us = Clock.now t.clock -. t.started_us in
  let attempts = commits + aborts in
  {
    committed_txns = commits;
    committed_ops = t.committed_ops;
    aborts;
    wounds = t.wounds;
    conflicts = Metrics.read_int m "locks.conflicts" - t.conflicts0;
    makespan_ms = makespan_us /. 1000.0;
    throughput_tps =
      (if makespan_us <= 0.0 then 0.0 else float_of_int commits /. (makespan_us /. 1.0e6));
    abort_rate = (if attempts = 0 then 0.0 else float_of_int aborts /. float_of_int attempts);
    commit_p50_us = Metrics.percentile t.commit_hist 50.0;
    commit_p95_us = Metrics.percentile t.commit_hist 95.0;
  }

let logical_digest db =
  let buf = Buffer.create 4096 in
  List.iter
    (fun table ->
      Buffer.add_string buf (Printf.sprintf "table %d\n" table);
      Db.fold_table db ~table ~init:() ~f:(fun () k v ->
          Buffer.add_string buf (string_of_int k);
          Buffer.add_char buf '=';
          Buffer.add_string buf v;
          Buffer.add_char buf '\n'))
    (List.sort compare (Db.tables db));
  Digest.to_hex (Digest.string (Buffer.contents buf))
