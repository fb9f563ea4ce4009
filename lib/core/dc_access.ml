(** The TC↔DC wire protocol: the §4.1 control operations as first-class,
    typed messages.

    The TC never calls into a data component directly — every interaction
    is a {!request} sent through an {!endpoint} and a {!reply} coming
    back.  The requests are exactly the narrow interface the paper
    describes: [Prepare]/[Apply] for data operations, [Read] for lookups,
    [Eosl] (end of stable log) and [Rssp] (redo-scan start point) for the
    two control operations, table management, and the redo entry points
    the recovery drivers drive a remote DC with.  The reverse direction —
    the only call a DC makes against the TC — is [Force_upto], the
    WAL-force a page flush needs on the TC's log.

    Two transports implement an endpoint: the in-process one
    ({!Dc.handle} behind a closure — today's behavior, zero simulated
    overhead) and a networked one ({!networked}) that carries each
    request/reply pair over a {!Deut_net.Link}, charging latency, loss
    and reordering on the virtual clock.  Because the protocol is the
    {e only} channel between the components, the two are observationally
    identical except for time.

    A {!router} is the TC-side map of the sharded key space: [shards]
    endpoints, one per data component, and the pure striping function
    that assigns every [(table, key)] to one of them. *)

module Lr = Deut_wal.Log_record
module Lsn = Deut_wal.Lsn

type request =
  | Prepare of { table : int; key : int; op : Lr.op_kind; value_len : int }
      (** route to the leaf, splitting as needed; returns the
          before-image for the TC's log record *)
  | Apply of {
      table : int;
      pid : int;
      key : int;
      op : Lr.op_kind;
      value : string option;
      lsn : Lsn.t;
      tick : bool;  (** count toward the Δ monitor's update period
                        (normal execution) or not (undo compensation) *)
    }
  | Read of { table : int; key : int }
  | Eosl of Lsn.t  (** end of stable log — after every TC log force *)
  | Rssp of Lsn.t  (** redo-scan start point — checkpoint flush request *)
  | Create_table of int
  | Has_table of int
  | Runtime_dpt  (** the DC's runtime dirty-page table (ARIES fuzzy ckpt) *)
  | Redo_logical of {
      lsn : Lsn.t;
      view : Lr.redo_view;
      use_dpt : bool;
      stats : Recovery_stats.t;
    }
  | Redo_physiological of {
      lsn : Lsn.t;
      view : Lr.redo_view;
      use_dpt : bool;
      stats : Recovery_stats.t;
    }
  | Redo_smo of { lsn : Lsn.t; smo : Lr.smo; dpt_test : bool; stats : Recovery_stats.t }

(* Stable short name per request constructor, used by the causal-tracing
   span names ("req:apply", "dc:apply"), the flight recorder and the
   stall→message attribution in [Analysis] — keep in sync with all
   three. *)
let request_tag = function
  | Prepare _ -> "prepare"
  | Apply _ -> "apply"
  | Read _ -> "read"
  | Eosl _ -> "eosl"
  | Rssp _ -> "rssp"
  | Create_table _ -> "create_table"
  | Has_table _ -> "has_table"
  | Runtime_dpt -> "runtime_dpt"
  | Redo_logical _ -> "redo_logical"
  | Redo_physiological _ -> "redo_physiological"
  | Redo_smo _ -> "redo_smo"

type reply =
  | Prepared of Deut_btree.Btree.write_target
  | Value of string option
  | Known of bool
  | Dpt_entries of (int * Lsn.t * Lsn.t) array
  | Ack

(* The DC→TC direction: WAL-force on the TC log, with the new
   end-of-stable-log in the reply. *)
type tc_request = Force_upto of Lsn.t
type tc_reply = Forced of Lsn.t

type endpoint = { shard : int; call : request -> reply }
type tc_endpoint = { tc_call : tc_request -> tc_reply }

exception Unavailable of int
(** Raised by an endpoint whose data component is crashed and not yet
    recovered.  [Db] maps it to the [Shard_down] error on the data path;
    siblings keep serving. *)

exception Protocol_error of string

let protocol_error what =
  raise (Protocol_error (Printf.sprintf "Dc_access.%s: reply does not match request" what))

(* {2 Typed wrappers} — one per request, collapsing the reply match so
   callers read like the direct calls they replaced. *)

let prepare ep ~table ~key ~op ~value_len =
  match ep.call (Prepare { table; key; op; value_len }) with
  | Prepared wt -> wt
  | _ -> protocol_error "prepare"

let apply ep ~table ~pid ~key ~op ~value ~lsn ~tick =
  match ep.call (Apply { table; pid; key; op; value; lsn; tick }) with
  | Ack -> ()
  | _ -> protocol_error "apply"

let read ep ~table ~key =
  match ep.call (Read { table; key }) with
  | Value v -> v
  | _ -> protocol_error "read"

let eosl ep lsn = match ep.call (Eosl lsn) with Ack -> () | _ -> protocol_error "eosl"
let rssp ep lsn = match ep.call (Rssp lsn) with Ack -> () | _ -> protocol_error "rssp"

let create_table ep ~table =
  match ep.call (Create_table table) with Ack -> () | _ -> protocol_error "create_table"

let has_table ep ~table =
  match ep.call (Has_table table) with Known b -> b | _ -> protocol_error "has_table"

let runtime_dpt ep =
  match ep.call Runtime_dpt with Dpt_entries e -> e | _ -> protocol_error "runtime_dpt"

let redo_logical ep ~lsn ~view ~use_dpt ~stats =
  match ep.call (Redo_logical { lsn; view; use_dpt; stats }) with
  | Ack -> ()
  | _ -> protocol_error "redo_logical"

let redo_physiological ep ~lsn ~view ~use_dpt ~stats =
  match ep.call (Redo_physiological { lsn; view; use_dpt; stats }) with
  | Ack -> ()
  | _ -> protocol_error "redo_physiological"

let redo_smo ep ~lsn ~smo ~dpt_test ~stats =
  match ep.call (Redo_smo { lsn; smo; dpt_test; stats }) with
  | Ack -> ()
  | _ -> protocol_error "redo_smo"

let force_upto tc lsn =
  match tc.tc_call (Force_upto lsn) with Forced stable -> stable

(* {2 Transports} *)

let networked ?flow_id link ep =
  { ep with call = (fun req -> Deut_net.Link.rpc ?flow_id link ep.call req) }

let networked_tc link tc =
  { tc_call = (fun req -> Deut_net.Link.rpc link tc.tc_call req) }

(* {2 Routing} *)

type router = {
  shards : int;
  endpoints : endpoint array;
  route : table:int -> key:int -> int;
}

(* Key striping: shard = key mod shards.  Table-blind so a table spans
   every shard; pure and stable so the TC, the recovery drivers and the
   tests all agree on placement without coordination. *)
let striped ~shards = fun ~table:_ ~key -> if shards = 1 then 0 else key mod shards

let make_router endpoints =
  let shards = Array.length endpoints in
  { shards; endpoints; route = striped ~shards }

let endpoint_for r ~table ~key = r.endpoints.(r.route ~table ~key)

let iter_endpoints r f = Array.iter f r.endpoints

(* Broadcast a control message to every shard that is up: a crashed shard
   misses EOSL notifications while down (it has no activity to stamp with
   them) and is re-seeded with the current stable LSN when it recovers. *)
let broadcast_eosl r lsn =
  iter_endpoints r (fun ep -> try eosl ep lsn with Unavailable _ -> ())
