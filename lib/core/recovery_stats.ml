(** Measurements of one recovery run — the quantities behind every figure
    and table in the paper's evaluation (§5.3, Appendices B and C).

    Two representations: {!cells} is the live form the recovery passes
    mutate — metric handles registered in a {!Deut_obs.Metrics.t} registry
    under ["recovery.*"] names, so the CLI and [Engine_stats] read them by
    name — and {!t} is the plain frozen record callers receive from
    [Recovery.recover] (same field names; take a {!snapshot} when the run
    is over). *)

module Metrics = Deut_obs.Metrics

type cells = {
  analysis_us : Metrics.dial;
  redo_us : Metrics.dial;
  undo_us : Metrics.dial;
  ttft_us : Metrics.dial;
  drained_us : Metrics.dial;
  records_scanned : Metrics.counter;
  redo_candidates : Metrics.counter;
  redo_applied : Metrics.counter;
  skipped_dpt : Metrics.counter;
  skipped_rlsn : Metrics.counter;
  skipped_plsn : Metrics.counter;
  tail_records : Metrics.counter;
  data_page_fetches : Metrics.counter;
  index_page_fetches : Metrics.counter;
  data_stall_us : Metrics.dial;
  index_stall_us : Metrics.dial;
  log_pages_read : Metrics.counter;
  dpt_size : Metrics.counter;
  deltas_seen : Metrics.counter;
  bws_seen : Metrics.counter;
  smos_replayed : Metrics.counter;
  losers : Metrics.counter;
  clrs_written : Metrics.counter;
  prefetch_issued : Metrics.counter;
  prefetch_hits : Metrics.counter;
  stalls : Metrics.counter;
  pages_ondemand : Metrics.counter;
  pages_background : Metrics.counter;
}

(* Frozen snapshot.  Field names deliberately mirror [cells]; OCaml's
   type-directed disambiguation keeps uses apart. *)
type t = {
  analysis_us : float;  (** DC-recovery / analysis pass time *)
  redo_us : float;
  undo_us : float;
  ttft_us : float;
      (** instant recovery: clock when the engine opened for transactions
          (0 for the offline modes, where opening = full recovery) *)
  drained_us : float;
      (** instant recovery: clock when the last pending page was replayed *)
  records_scanned : int;  (** redo-range records examined *)
  redo_candidates : int;  (** update/CLR records subjected to a redo test *)
  redo_applied : int;
  skipped_dpt : int;  (** bypassed: page not in DPT (no page fetch) *)
  skipped_rlsn : int;  (** bypassed: LSN below the entry's rLSN (no fetch) *)
  skipped_plsn : int;  (** fetched, then bypassed by the pLSN test *)
  tail_records : int;  (** logical ops past the last Δ record (basic mode) *)
  data_page_fetches : int;
  index_page_fetches : int;
  data_stall_us : float;
  index_stall_us : float;
  log_pages_read : int;
  dpt_size : int;
  deltas_seen : int;  (** Δ-log records seen by the analysis pass (Fig. 2c) *)
  bws_seen : int;  (** BW-log records seen by the analysis pass (Fig. 2c) *)
  smos_replayed : int;
  losers : int;
  clrs_written : int;
  prefetch_issued : int;
  prefetch_hits : int;
  stalls : int;
  pages_ondemand : int;  (** pages replayed from the fault hook *)
  pages_background : int;  (** pages replayed by the background drain *)
}

let create ?metrics () : cells =
  let m = match metrics with Some m -> m | None -> Metrics.create () in
  (* Registering an already-registered name hands back the existing
     instrument, so under a shared registry (the memoized harness reuses
     one engine's metrics across cells) a handle may carry a previous
     run's totals — zero each as it is acquired so every recovery starts
     from scratch. *)
  let c name =
    let h = Metrics.counter m ("recovery." ^ name) in
    Metrics.reset_counter h;
    h
  in
  let d name =
    let h = Metrics.dial m ("recovery." ^ name) in
    Metrics.fset h 0.0;
    h
  in
  (* OCaml evaluates a record literal's fields right to left in the order
     the type declares them, so the names register in reverse [cells]
     order ([pages_background] first, [analysis_us] last).  [repro_cli
     metrics] and the Chrome-trace metric events print in registration
     order, and the golden dumps under test/ pin it: reordering [cells]
     changes both. *)
  {
    analysis_us = d "analysis_us";
    redo_us = d "redo_us";
    undo_us = d "undo_us";
    ttft_us = d "ttft_us";
    drained_us = d "drained_us";
    records_scanned = c "records_scanned";
    redo_candidates = c "redo_candidates";
    redo_applied = c "redo_applied";
    skipped_dpt = c "skipped_dpt";
    skipped_rlsn = c "skipped_rlsn";
    skipped_plsn = c "skipped_plsn";
    tail_records = c "tail_records";
    data_page_fetches = c "data_page_fetches";
    index_page_fetches = c "index_page_fetches";
    data_stall_us = d "data_stall_us";
    index_stall_us = d "index_stall_us";
    log_pages_read = c "log_pages_read";
    dpt_size = c "dpt_size";
    deltas_seen = c "deltas_seen";
    bws_seen = c "bws_seen";
    smos_replayed = c "smos_replayed";
    losers = c "losers";
    clrs_written = c "clrs_written";
    prefetch_issued = c "prefetch_issued";
    prefetch_hits = c "prefetch_hits";
    stalls = c "stalls";
    pages_ondemand = c "pages_ondemand";
    pages_background = c "pages_background";
  }

let snapshot (s : cells) : t =
  {
    analysis_us = Metrics.value s.analysis_us;
    redo_us = Metrics.value s.redo_us;
    undo_us = Metrics.value s.undo_us;
    ttft_us = Metrics.value s.ttft_us;
    drained_us = Metrics.value s.drained_us;
    records_scanned = Metrics.count s.records_scanned;
    redo_candidates = Metrics.count s.redo_candidates;
    redo_applied = Metrics.count s.redo_applied;
    skipped_dpt = Metrics.count s.skipped_dpt;
    skipped_rlsn = Metrics.count s.skipped_rlsn;
    skipped_plsn = Metrics.count s.skipped_plsn;
    tail_records = Metrics.count s.tail_records;
    data_page_fetches = Metrics.count s.data_page_fetches;
    index_page_fetches = Metrics.count s.index_page_fetches;
    data_stall_us = Metrics.value s.data_stall_us;
    index_stall_us = Metrics.value s.index_stall_us;
    log_pages_read = Metrics.count s.log_pages_read;
    dpt_size = Metrics.count s.dpt_size;
    deltas_seen = Metrics.count s.deltas_seen;
    bws_seen = Metrics.count s.bws_seen;
    smos_replayed = Metrics.count s.smos_replayed;
    losers = Metrics.count s.losers;
    clrs_written = Metrics.count s.clrs_written;
    prefetch_issued = Metrics.count s.prefetch_issued;
    prefetch_hits = Metrics.count s.prefetch_hits;
    stalls = Metrics.count s.stalls;
    pages_ondemand = Metrics.count s.pages_ondemand;
    pages_background = Metrics.count s.pages_background;
  }

let redo_ms (t : t) = t.redo_us /. 1000.0
let analysis_ms (t : t) = t.analysis_us /. 1000.0
let undo_ms (t : t) = t.undo_us /. 1000.0
let total_ms (t : t) = (t.analysis_us +. t.redo_us +. t.undo_us) /. 1000.0
let ttft_ms (t : t) = t.ttft_us /. 1000.0
let drained_ms (t : t) = t.drained_us /. 1000.0

let pp fmt (t : t) =
  Format.fprintf fmt
    "@[<v>analysis %.1f ms, redo %.1f ms, undo %.1f ms@,\
     records: scanned %d, candidates %d, applied %d, tail %d@,\
     skips: dpt %d, rlsn %d, plsn %d@,\
     fetches: data %d (stall %.1f ms), index %d (stall %.1f ms), log pages %d@,\
     dpt %d entries; Δ seen %d, BW seen %d, SMO replayed %d@,\
     prefetch: issued %d, hits %d, stalls %d@,\
     undo: losers %d, CLRs %d@]"
    (analysis_ms t) (redo_ms t) (undo_ms t) t.records_scanned t.redo_candidates t.redo_applied
    t.tail_records t.skipped_dpt t.skipped_rlsn t.skipped_plsn t.data_page_fetches
    (t.data_stall_us /. 1000.0)
    t.index_page_fetches
    (t.index_stall_us /. 1000.0)
    t.log_pages_read t.dpt_size t.deltas_seen t.bws_seen t.smos_replayed t.prefetch_issued
    t.prefetch_hits t.stalls t.losers t.clrs_written;
  if t.ttft_us > 0.0 then
    Format.fprintf fmt
      "@\ninstant: open at %.1f ms, drained at %.1f ms; pages on-demand %d, background %d"
      (ttft_ms t) (drained_ms t) t.pages_ondemand t.pages_background

let to_string t = Format.asprintf "%a" pp t
