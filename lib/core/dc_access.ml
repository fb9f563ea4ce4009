(** The TC↔DC wire protocol: the §4.1 control operations as first-class,
    typed messages.

    The TC never calls into a data component directly — every interaction
    is a {!request} sent through an {!endpoint}.  A request's type names
    what it returns, so a reply cannot mismatch its request.  The
    requests are exactly the narrow interface the paper describes:
    [Prepare]/[Apply] for data operations, [Read] for lookups, [Eosl]
    (end of stable log) and [Rssp] (redo-scan start point) for the two
    control operations, table management, and the redo entry points the
    recovery drivers drive a remote DC with.  The reverse direction —
    the only call a DC makes against the TC — is [force_upto], the
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

type _ request =
  | Prepare : { table : int; key : int; op : Lr.op_kind; value_len : int }
      -> Deut_btree.Btree.write_target request
      (** route to the leaf, splitting as needed; returns the
          before-image for the TC's log record *)
  | Apply : {
      table : int;
      pid : int;
      key : int;
      op : Lr.op_kind;
      value : string option;
      lsn : Lsn.t;
      tick : bool;  (** count toward the Δ monitor's update period
                        (normal execution) or not (undo compensation) *)
    }
      -> unit request
  | Read : { table : int; key : int } -> string option request
  | Eosl : Lsn.t -> unit request  (** end of stable log — after every TC log force *)
  | Rssp : Lsn.t -> unit request  (** redo-scan start point — checkpoint flush request *)
  | Create_table : int -> unit request
  | Has_table : int -> bool request
  | Runtime_dpt : (int * Lsn.t * Lsn.t) array request
      (** the DC's runtime dirty-page table (ARIES fuzzy ckpt) *)
  | Redo_logical : {
      lsn : Lsn.t;
      view : Lr.redo_view;
      use_dpt : bool;
      stats : Recovery_stats.t;
    }
      -> unit request
  | Redo_physiological : {
      lsn : Lsn.t;
      view : Lr.redo_view;
      stats : Recovery_stats.t;
    }
      -> unit request
  | Redo_smo : {
      lsn : Lsn.t;
      smo : Lr.smo;
      dpt_test : bool;
      stats : Recovery_stats.t;
    }
      -> unit request

(* Stable short name per request constructor, used by the causal-tracing
   span names ("req:apply", "dc:apply"), the flight recorder and the
   stall→message attribution in [Analysis] — keep in sync with all
   three. *)
let request_tag : type a. a request -> string = function
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

type endpoint = { shard : int; call : 'a. 'a request -> 'a }

(* The DC→TC direction: WAL-force on the TC log, returning the new
   end-of-stable-log. *)
type tc_endpoint = { force_upto : Lsn.t -> Lsn.t }

exception Unavailable of int
(** Raised by an endpoint whose data component is crashed and not yet
    recovered.  [Db] maps it to the [Shard_down] error on the data path;
    siblings keep serving. *)

(* {2 Typed wrappers} — one per request, so callers read like the direct
   calls they replaced. *)

let prepare ep ~table ~key ~op ~value_len = ep.call (Prepare { table; key; op; value_len })

let apply ep ~table ~pid ~key ~op ~value ~lsn ~tick =
  ep.call (Apply { table; pid; key; op; value; lsn; tick })

let read ep ~table ~key = ep.call (Read { table; key })
let eosl ep lsn = ep.call (Eosl lsn)
let rssp ep lsn = ep.call (Rssp lsn)
let create_table ep ~table = ep.call (Create_table table)
let has_table ep ~table = ep.call (Has_table table)
let runtime_dpt ep = ep.call Runtime_dpt

let redo_logical ep ~lsn ~view ~use_dpt ~stats =
  ep.call (Redo_logical { lsn; view; use_dpt; stats })

let redo_physiological ep ~lsn ~view ~stats = ep.call (Redo_physiological { lsn; view; stats })

let redo_smo ep ~lsn ~smo ~dpt_test ~stats = ep.call (Redo_smo { lsn; smo; dpt_test; stats })

(* {2 Transports} *)

let networked ?flow_id link ep =
  let call : type a. a request -> a = fun req -> Deut_net.Link.rpc ?flow_id link ep.call req in
  { ep with call }

let networked_tc link tc = { force_upto = Deut_net.Link.rpc link tc.force_upto }

(* {2 Routing} *)

type router = {
  shards : int;
  endpoints : endpoint array;
  route : table:int -> key:int -> int;
}

(* Key striping: shard = key mod shards.  Table-blind so a table spans
   every shard; pure and stable so the TC, the recovery drivers and the
   tests all agree on placement without coordination. *)
let striped ~shards = fun ~table:_ ~key -> key mod shards

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
