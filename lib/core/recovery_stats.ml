(** Measurements of one recovery run — the quantities behind every figure
    and table in the paper's evaluation (§5.3, Appendices B and C).

    One record: the recovery passes mutate it in place and callers receive
    it from [Recovery.recover] once the run is over.  [create ~metrics]
    also registers one read-only gauge per field under ["recovery.<field>"],
    so the CLI and [Db.stats_string] read the live values by name.  Every
    restart assembles a fresh engine, hence a fresh registry; a second
    [create ~metrics] on one registry raises [Invalid_argument] (duplicate
    gauge). *)

module Metrics = Deut_obs.Metrics

type t = {
  mutable analysis_us : float;  (** DC-recovery / analysis pass time *)
  mutable redo_us : float;
  mutable undo_us : float;
  mutable ttft_us : float;
      (** instant recovery: clock when the engine opened for transactions
          (0 for the offline modes, where opening = full recovery) *)
  mutable drained_us : float;
      (** instant recovery: clock when the last pending page was replayed *)
  mutable records_scanned : int;  (** redo-range records examined *)
  mutable redo_candidates : int;  (** update/CLR records subjected to a redo test *)
  mutable redo_applied : int;
  mutable skipped_dpt : int;  (** bypassed: page not in DPT (no page fetch) *)
  mutable skipped_rlsn : int;  (** bypassed: LSN below the entry's rLSN (no fetch) *)
  mutable skipped_plsn : int;  (** fetched, then bypassed by the pLSN test *)
  mutable tail_records : int;  (** logical ops past the last Δ record (basic mode) *)
  mutable data_page_fetches : int;
  mutable index_page_fetches : int;
  mutable data_stall_us : float;
  mutable index_stall_us : float;
  mutable log_pages_read : int;
  mutable dpt_size : int;
  mutable deltas_seen : int;  (** Δ-log records seen by the analysis pass (Fig. 2c) *)
  mutable bws_seen : int;  (** BW-log records seen by the analysis pass (Fig. 2c) *)
  mutable smos_replayed : int;
  mutable losers : int;
  mutable clrs_written : int;
  mutable prefetch_issued : int;
  mutable prefetch_refused : int;  (** pids the pool had no room to prefetch *)
  mutable prefetch_hits : int;
  mutable stalls : int;
  mutable pages_ondemand : int;  (** pages replayed from the fault hook *)
  mutable pages_background : int;  (** pages replayed by the background drain *)
}

let create ?metrics () =
  let s =
    {
      analysis_us = 0.0;
      redo_us = 0.0;
      undo_us = 0.0;
      ttft_us = 0.0;
      drained_us = 0.0;
      records_scanned = 0;
      redo_candidates = 0;
      redo_applied = 0;
      skipped_dpt = 0;
      skipped_rlsn = 0;
      skipped_plsn = 0;
      tail_records = 0;
      data_page_fetches = 0;
      index_page_fetches = 0;
      data_stall_us = 0.0;
      index_stall_us = 0.0;
      log_pages_read = 0;
      dpt_size = 0;
      deltas_seen = 0;
      bws_seen = 0;
      smos_replayed = 0;
      losers = 0;
      clrs_written = 0;
      prefetch_issued = 0;
      prefetch_refused = 0;
      prefetch_hits = 0;
      stalls = 0;
      pages_ondemand = 0;
      pages_background = 0;
    }
  in
  (* Registration order is the order [Metrics.names], [repro_cli metrics]
     and the Chrome-trace metric events print in; the golden dumps under
     test/ pin it. *)
  Option.iter
    (fun m ->
      let fi name f = Metrics.gauge m ("recovery." ^ name) (fun () -> float_of_int (f ())) in
      let ff name f = Metrics.gauge m ("recovery." ^ name) f in
      fi "pages_background" (fun () -> s.pages_background);
      fi "pages_ondemand" (fun () -> s.pages_ondemand);
      fi "stalls" (fun () -> s.stalls);
      fi "prefetch_hits" (fun () -> s.prefetch_hits);
      fi "prefetch_issued" (fun () -> s.prefetch_issued);
      fi "prefetch_refused" (fun () -> s.prefetch_refused);
      fi "clrs_written" (fun () -> s.clrs_written);
      fi "losers" (fun () -> s.losers);
      fi "smos_replayed" (fun () -> s.smos_replayed);
      fi "bws_seen" (fun () -> s.bws_seen);
      fi "deltas_seen" (fun () -> s.deltas_seen);
      fi "dpt_size" (fun () -> s.dpt_size);
      fi "log_pages_read" (fun () -> s.log_pages_read);
      ff "index_stall_us" (fun () -> s.index_stall_us);
      ff "data_stall_us" (fun () -> s.data_stall_us);
      fi "index_page_fetches" (fun () -> s.index_page_fetches);
      fi "data_page_fetches" (fun () -> s.data_page_fetches);
      fi "tail_records" (fun () -> s.tail_records);
      fi "skipped_plsn" (fun () -> s.skipped_plsn);
      fi "skipped_rlsn" (fun () -> s.skipped_rlsn);
      fi "skipped_dpt" (fun () -> s.skipped_dpt);
      fi "redo_applied" (fun () -> s.redo_applied);
      fi "redo_candidates" (fun () -> s.redo_candidates);
      fi "records_scanned" (fun () -> s.records_scanned);
      ff "drained_us" (fun () -> s.drained_us);
      ff "ttft_us" (fun () -> s.ttft_us);
      ff "undo_us" (fun () -> s.undo_us);
      ff "redo_us" (fun () -> s.redo_us);
      ff "analysis_us" (fun () -> s.analysis_us))
    metrics;
  s

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
     prefetch: issued %d, hits %d, stalls %d%s@,\
     undo: losers %d, CLRs %d@]"
    (analysis_ms t) (redo_ms t) (undo_ms t) t.records_scanned t.redo_candidates t.redo_applied
    t.tail_records t.skipped_dpt t.skipped_rlsn t.skipped_plsn t.data_page_fetches
    (t.data_stall_us /. 1000.0)
    t.index_page_fetches
    (t.index_stall_us /. 1000.0)
    t.log_pages_read t.dpt_size t.deltas_seen t.bws_seen t.smos_replayed t.prefetch_issued
    t.prefetch_hits t.stalls
    (if t.prefetch_refused > 0 then Printf.sprintf ", refused %d" t.prefetch_refused else "")
    t.losers t.clrs_written;
  if t.ttft_us > 0.0 then
    Format.fprintf fmt
      "@\ninstant: open at %.1f ms, drained at %.1f ms; pages on-demand %d, background %d"
      (ttft_ms t) (drained_ms t) t.pages_ondemand t.pages_background

let to_string t = Format.asprintf "%a" pp t
