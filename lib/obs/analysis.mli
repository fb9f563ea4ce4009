(** Trace-mining recovery profiler.

    Turns a raw event stream (the [Trace] buffer, or a re-parsed export) into
    a machine-readable profile: a per-phase time budget (compute vs
    IO-overlapped vs stall-blocked), every [stall] span attributed to the
    device span of the request it names (which disk, demand read vs
    prefetch batch), and every prefetched page classified as hit / late /
    wasted.  The inputs are deterministic, the arithmetic is, and the JSON
    and text renders use fixed formatting — so two same-seed runs produce
    byte-identical profiles, which is what makes a committed profile usable
    as an exact gate: [repro_cli analyze --check] diffs every field of
    {!to_json}'s output against a baseline with {!Json.diff}.

    This module sits below [Deut_core] in the dependency order: it knows
    nothing about recovery methods or configs, only about the event schema
    documented in OBSERVABILITY.md. *)

(** One recovery-phase window with its time budget (all simulated µs).
    [ph_stall_us] is the mass of [stall] spans clipped to the window (with
    parallel redo workers this can exceed the wall-clock duration — each
    worker's wait counts).  [ph_io_us] is the union busy time of all device
    lanes clipped to the window; [ph_overlap_us] is the part of that busy
    time not covered by a stall, i.e. IO hidden under compute; and
    [ph_compute_us] is [dur - stall] (clamped at 0). *)
type phase = {
  ph_name : string;
  ph_start_us : float;
  ph_dur_us : float;
  ph_stall_us : float;
  ph_io_us : float;
  ph_overlap_us : float;
  ph_compute_us : float;
}

(** One stall-attribution bucket.  A stall's [dev] and [io] args name the
    request it waited on: a device lane and the request's number on it,
    which the device span carries as its track and [io] arg.  The bucket
    holds the stalls whose request is a span named [src_kind] ("io_read"
    = demand, "io_batch" = prefetch) on lane [src_device] ("data-disk",
    or ["shard-N"] for a sibling shard's data disk). *)
type source = { src_device : string; src_kind : string; src_count : int; src_stall_us : float }

(** One stall→message attribution bucket: cross-shard stalls charged to the
    protocol request they waited on.  Built from the TC-side ["rpc"] spans
    (named [req:<tag>], carrying the message id) joined against the ["net"]
    lane's per-message delivery spans and loss instants — so [ns_wire_us]
    is time physically on the wire and [ns_retransmits] counts dropped
    sends that forced the timeout/retry path for that request kind. *)
type net_source = {
  ns_request : string;  (** protocol request tag, e.g. ["redo_logical"] *)
  ns_calls : int;  (** round trips issued for this request kind *)
  ns_wait_us : float;  (** TC-side wall time spent inside these calls *)
  ns_wire_us : float;  (** wire time of the deliveries carrying them *)
  ns_retransmits : int;  (** net losses on this request's message ids *)
}

type t = {
  meta : (string * string) list;  (** caller-supplied identity, e.g. method/cache *)
  total_us : float;
      (** the outermost phases' time: analysis + redo + undo offline (log_scan
          nests in redo), analysis + log_scan + drain for instant recovery
          (history_build and undo nest in drain) *)
  phases : phase list;
      (** in emission (close) order: analysis, log_scan, redo, undo offline;
          analysis, log_scan, history_build, undo, drain instant *)
  fetch_total : int;  (** page_fetch spans *)
  fetch_data : int;
  fetch_index : int;  (** fetches inside an index traversal ([args.index] = 1) *)
  fetch_prefetched : int;
  fetch_demand : int;
  pf_issued : int;  (** pages submitted by the prefetcher *)
  pf_hit : int;  (** prefetched pages claimed with zero wait *)
  pf_late : int;  (** claimed, but the redo cursor got there first and stalled *)
  pf_wasted : int;  (** fetched but never claimed (evicted unused or still in flight) *)
  stall_count : int;
  stall_total_us : float;
  stall_attributed_us : float;
      (** stall mass whose [dev]/[io] names a device read span; a stall
          whose request left no span in the trace is not counted *)
  sources : source list;  (** attribution buckets, largest stall mass first *)
  net_msgs : int;  (** one-way deliveries observed on the net lane *)
  net_wire_us : float;  (** total wire time across those deliveries *)
  net_retransmits : int;  (** net_loss instants (drops that forced a retry) *)
  net_sources : net_source list;  (** stall→message buckets, largest wait first *)
  redo_ops : int;
}

val of_trace : ?meta:(string * string) list -> Trace.t -> t

(** {1 Render} *)

val render : t -> string
(** Human-readable profile: phase-budget table, fetch/prefetch breakdown,
    stall attribution by (device, kind).  Deterministic. *)

val to_json : t -> string
(** Machine-readable profile, fixed field order and ["%.3f"] floats —
    byte-identical across same-seed runs, committable as a baseline.  It
    carries every field of [t]. *)
