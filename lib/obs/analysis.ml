(* Trace-mining profiler.  See analysis.mli for the contract. *)

type phase = {
  ph_name : string;
  ph_start_us : float;
  ph_dur_us : float;
  ph_stall_us : float;
  ph_io_us : float;
  ph_overlap_us : float;
  ph_compute_us : float;
}

type source = { src_device : string; src_kind : string; src_count : int; src_stall_us : float }

type net_source = {
  ns_request : string;
  ns_calls : int;
  ns_wait_us : float;
  ns_wire_us : float;
  ns_retransmits : int;
}

type t = {
  meta : (string * string) list;
  total_us : float;
  phases : phase list;
  fetch_total : int;
  fetch_data : int;
  fetch_index : int;
  fetch_prefetched : int;
  fetch_demand : int;
  pf_issued : int;
  pf_hit : int;
  pf_late : int;
  pf_wasted : int;
  stall_count : int;
  stall_total_us : float;
  stall_attributed_us : float;
  sources : source list;
  net_msgs : int;
  net_wire_us : float;
  net_retransmits : int;
  net_sources : net_source list;
  redo_ops : int;
}

let arg ev key = match List.assoc_opt key ev.Trace.args with Some v -> v | None -> 0
let span_end ev = ev.Trace.ts +. ev.Trace.dur

(* ---------- interval arithmetic ---------- *)

(* Clip [(s, e)] intervals to [lo, hi] and return the length of their union.
   Sums within a window must not double-count two devices busy at once. *)
let union_clipped intervals ~lo ~hi =
  let clipped =
    List.filter_map
      (fun (s, e) ->
        let s = max s lo and e = min e hi in
        if e > s then Some (s, e) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let rec go acc cur = function
    | [] -> ( match cur with None -> acc | Some (s, e) -> acc +. (e -. s))
    | (s, e) :: rest -> (
        match cur with
        | None -> go acc (Some (s, e)) rest
        | Some (cs, ce) ->
            if s <= ce then go acc (Some (cs, max ce e)) rest
            else go (acc +. (ce -. cs)) (Some (s, e)) rest)
  in
  go 0.0 None sorted

let sum_clipped intervals ~lo ~hi =
  List.fold_left
    (fun acc (s, e) ->
      let s = max s lo and e = min e hi in
      if e > s then acc +. (e -. s) else acc)
    0.0 intervals

(* ---------- stall attribution ---------- *)

(* A stall span ends exactly when the awaited IO completes
   ([Buffer_pool.stall_until] advances the clock to the request's
   completion), so the device span whose end matches the stall's end — both
   deterministic doubles — is the cause.  [eps] absorbs float summation
   noise only; distinct completions differ by whole transfer times. *)
let end_eps = 0.5

let attribute_stalls ~stalls ~ios =
  let ios = Array.of_list ios in
  (* Total order so the scan (and any tie-break) is deterministic. *)
  Array.sort
    (fun a b ->
      compare
        (span_end a, a.Trace.ts, a.Trace.track, a.Trace.name)
        (span_end b, b.Trace.ts, b.Trace.track, b.Trace.name))
    ios;
  let n = Array.length ios in
  let ends = Array.map span_end ios in
  let max_dur = Array.fold_left (fun m io -> max m io.Trace.dur) 0.0 ios in
  (* First io (in end order) whose end is >= x. *)
  let lower_bound x =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if ends.(mid) < x then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  let buckets : (string * string, int ref * float ref) Hashtbl.t = Hashtbl.create 16 in
  let attributed = ref 0.0 in
  List.iter
    (fun st ->
      let st_end = span_end st in
      let best = ref None in
      let i = ref (lower_bound st.Trace.ts) in
      (* Any io overlapping the stall has end >= stall start (hence >= !i)
         and start <= stall end; once end - max_dur > stall end no later io
         can reach back into the window. *)
      let continue = ref true in
      while !continue && !i < n do
        let io = ios.(!i) in
        let io_end = ends.(!i) in
        if io_end -. max_dur > st_end then continue := false
        else begin
          let overlap = min st_end io_end -. max st.Trace.ts io.Trace.ts in
          if overlap > 0.0 then begin
            let end_delta = Float.abs (io_end -. st_end) in
            let better =
              match !best with
              | None -> true
              | Some (bd, bo, _) ->
                  if end_delta <= end_eps && bd > end_eps then true
                  else if bd <= end_eps then end_delta < bd
                  else overlap > bo
            in
            if better then best := Some (end_delta, overlap, io)
          end;
          incr i
        end
      done;
      match !best with
      | None -> ()
      | Some (_, _, io) ->
          let key = (Trace.track_name io.Trace.track, io.Trace.name) in
          let cnt, us =
            match Hashtbl.find_opt buckets key with
            | Some cell -> cell
            | None ->
                let cell = (ref 0, ref 0.0) in
                Hashtbl.add buckets key cell;
                cell
          in
          incr cnt;
          us := !us +. st.Trace.dur;
          attributed := !attributed +. st.Trace.dur)
    stalls;
  let sources =
    Hashtbl.fold
      (fun (dev, kind) (cnt, us) acc ->
        { src_device = dev; src_kind = kind; src_count = !cnt; src_stall_us = !us } :: acc)
      buckets []
  in
  let sources =
    List.sort
      (fun a b ->
        compare
          (-.a.src_stall_us, a.src_device, a.src_kind)
          (-.b.src_stall_us, b.src_device, b.src_kind))
      sources
  in
  (!attributed, sources)

(* ---------- stall → message attribution ---------- *)

(* The causal-tracing layer stamps every protocol exchange with a message
   id: the TC-side [req:<tag>] span is the synchronous wait the exchange
   cost, the [net_send]/[net_reply] spans are its wire legs, and each
   [net_loss] instant is a retransmit — all carrying the same ["mid"].
   Grouping the three by the request tag the mid resolves to turns the
   device-style stall budget into a per-message one: which protocol
   operations the TC waited on, for how long, how much of that was wire,
   and which retransmits made it worse. *)
let attribute_net ~rpcs ~nets ~losses =
  let mid_of ev = List.assoc_opt "mid" ev.Trace.args in
  let tag_of_rpc ev =
    let name = ev.Trace.name in
    let plen = String.length "req:" in
    if String.length name > plen && String.sub name 0 plen = "req:" then
      Some (String.sub name plen (String.length name - plen))
    else None
  in
  let mid_to_req = Hashtbl.create 64 in
  List.iter
    (fun ev ->
      match (tag_of_rpc ev, mid_of ev) with
      | Some tag, Some mid -> Hashtbl.replace mid_to_req mid tag
      | _ -> ())
    rpcs;
  let resolve ev =
    match mid_of ev with
    | Some mid -> (
        match Hashtbl.find_opt mid_to_req mid with Some tag -> tag | None -> "(unknown)")
    | None -> "(unknown)"
  in
  let buckets : (string, int ref * float ref * float ref * int ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let bucket tag =
    match Hashtbl.find_opt buckets tag with
    | Some cell -> cell
    | None ->
        let cell = (ref 0, ref 0.0, ref 0.0, ref 0) in
        Hashtbl.add buckets tag cell;
        cell
  in
  List.iter
    (fun ev ->
      match tag_of_rpc ev with
      | Some tag ->
          let calls, wait, _, _ = bucket tag in
          incr calls;
          wait := !wait +. ev.Trace.dur
      | None -> ())
    rpcs;
  List.iter
    (fun ev ->
      let _, _, wire, _ = bucket (resolve ev) in
      wire := !wire +. ev.Trace.dur)
    nets;
  List.iter
    (fun ev ->
      let _, _, _, retx = bucket (resolve ev) in
      incr retx)
    losses;
  Hashtbl.fold
    (fun tag (calls, wait, wire, retx) acc ->
      {
        ns_request = tag;
        ns_calls = !calls;
        ns_wait_us = !wait;
        ns_wire_us = !wire;
        ns_retransmits = !retx;
      }
      :: acc)
    buckets []
  |> List.sort (fun a b ->
         compare (-.a.ns_wait_us, a.ns_request) (-.b.ns_wait_us, b.ns_request))

(* ---------- profile construction ---------- *)

let of_events ?(meta = []) events =
  let stalls = ref [] and ios = ref [] and phases_raw = ref [] in
  let rpcs = ref [] and nets = ref [] and losses = ref [] in
  let fetch_total = ref 0
  and fetch_index = ref 0
  and fetch_prefetched = ref 0
  and pf_hit = ref 0
  and pf_late = ref 0
  and pf_pages = ref 0
  and pf_issue_count = ref 0
  and redo_ops = ref 0 in
  List.iter
    (fun ev ->
      match (ev.Trace.kind, ev.Trace.name) with
      | Trace.Span, "stall" -> stalls := ev :: !stalls
      | Trace.Span, _ when ev.Trace.cat = "io" -> ios := ev :: !ios
      | Trace.Span, _ when ev.Trace.cat = "phase" -> phases_raw := ev :: !phases_raw
      | Trace.Span, _ when ev.Trace.cat = "rpc" -> rpcs := ev :: !rpcs
      | Trace.Span, _ when ev.Trace.cat = "net" -> nets := ev :: !nets
      | Trace.Instant, "net_loss" -> losses := ev :: !losses
      | Trace.Span, "page_fetch" ->
          incr fetch_total;
          if arg ev "index" = 1 then incr fetch_index;
          if arg ev "prefetched" = 1 then begin
            incr fetch_prefetched;
            if ev.Trace.dur > 0.0 then incr pf_late else incr pf_hit
          end
      | Trace.Span, "redo_op" -> incr redo_ops
      | Trace.Instant, "prefetch_page" -> incr pf_pages
      | Trace.Instant, "prefetch_issue" -> pf_issue_count := !pf_issue_count + arg ev "count"
      | _ -> ())
    events;
  let stalls = List.rev !stalls and ios = List.rev !ios in
  let phases_raw = List.rev !phases_raw in
  let rpcs = List.rev !rpcs and nets = List.rev !nets and losses = List.rev !losses in
  (* Older traces predate per-page prefetch instants; the batch counts
     carry the same total. *)
  let pf_issued = if !pf_pages > 0 then !pf_pages else !pf_issue_count in
  let pf_wasted = max 0 (pf_issued - !pf_hit - !pf_late) in
  let stall_ivals = List.map (fun ev -> (ev.Trace.ts, span_end ev)) stalls in
  let io_ivals = List.map (fun ev -> (ev.Trace.ts, span_end ev)) ios in
  let phases =
    List.map
      (fun ev ->
        let lo = ev.Trace.ts and hi = span_end ev in
        let stall = sum_clipped stall_ivals ~lo ~hi in
        let stall_union = union_clipped stall_ivals ~lo ~hi in
        let io = union_clipped io_ivals ~lo ~hi in
        {
          ph_name = ev.Trace.name;
          ph_start_us = ev.Trace.ts;
          ph_dur_us = ev.Trace.dur;
          ph_stall_us = stall;
          ph_io_us = io;
          (* Stall intervals sit inside device-busy intervals (the waiter
             follows an in-flight request), so busy-minus-stalled is the IO
             the phase hid under compute. *)
          ph_overlap_us = max 0.0 (io -. stall_union);
          ph_compute_us = max 0.0 (ev.Trace.dur -. stall);
        })
      phases_raw
  in
  (* The redo phase span covers the log-scan, so the wall-clock total is
     analysis + redo + undo. *)
  let total_us =
    List.fold_left
      (fun acc ph -> if ph.ph_name = "log_scan" then acc else acc +. ph.ph_dur_us)
      0.0 phases
  in
  let stall_total_us = List.fold_left (fun acc ev -> acc +. ev.Trace.dur) 0.0 stalls in
  let stall_attributed_us, sources = attribute_stalls ~stalls ~ios in
  {
    meta;
    total_us;
    phases;
    fetch_total = !fetch_total;
    fetch_data = !fetch_total - !fetch_index;
    fetch_index = !fetch_index;
    fetch_prefetched = !fetch_prefetched;
    fetch_demand = !fetch_total - !fetch_prefetched;
    pf_issued;
    pf_hit = !pf_hit;
    pf_late = !pf_late;
    pf_wasted;
    stall_count = List.length stalls;
    stall_total_us;
    stall_attributed_us;
    sources;
    net_msgs = List.length nets;
    net_wire_us = List.fold_left (fun acc ev -> acc +. ev.Trace.dur) 0.0 nets;
    net_retransmits = List.length losses;
    net_sources = attribute_net ~rpcs ~nets ~losses;
    redo_ops = !redo_ops;
  }

let of_trace ?meta tr = of_events ?meta (Trace.events tr)

let ratio num den = if den <= 0.0 then 0.0 else num /. den
let late_fraction t = ratio (float_of_int t.pf_late) (float_of_int (t.pf_hit + t.pf_late))
let wasted_fraction t = ratio (float_of_int t.pf_wasted) (float_of_int t.pf_issued)

let attributed_fraction t =
  if t.stall_total_us <= 0.0 then 1.0 else t.stall_attributed_us /. t.stall_total_us

(* ---------- render ---------- *)

let ms us = Printf.sprintf "%.3f" (us /. 1000.0)
let pct x = Printf.sprintf "%.1f%%" (100.0 *. x)

let render t =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  (match t.meta with
  | [] -> ()
  | meta -> line "profile: %s" (String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) meta)));
  line "total (analysis+redo+undo): %s ms" (ms t.total_us);
  line "";
  line "phase budget (simulated ms):";
  line "  %-10s %10s %10s %10s %10s %10s %10s" "phase" "start" "dur" "stall" "io-busy"
    "overlap" "compute";
  List.iter
    (fun ph ->
      line "  %-10s %10s %10s %10s %10s %10s %10s" ph.ph_name (ms ph.ph_start_us)
        (ms ph.ph_dur_us) (ms ph.ph_stall_us) (ms ph.ph_io_us) (ms ph.ph_overlap_us)
        (ms ph.ph_compute_us))
    t.phases;
  line "";
  line "fetches: %d page_fetch = %d data + %d index; %d prefetched, %d demand" t.fetch_total
    t.fetch_data t.fetch_index t.fetch_prefetched t.fetch_demand;
  line "prefetch: %d issued -> %d hit, %d late (%s of claims), %d wasted (%s of issued)"
    t.pf_issued t.pf_hit t.pf_late
    (pct (late_fraction t))
    t.pf_wasted
    (pct (wasted_fraction t));
  line "stalls: %d spans, %s ms; attributed %s ms (%s)" t.stall_count (ms t.stall_total_us)
    (ms t.stall_attributed_us)
    (pct (attributed_fraction t));
  if t.sources <> [] then begin
    line "  %-12s %-10s %8s %12s" "device" "kind" "stalls" "stall ms";
    List.iter
      (fun s -> line "  %-12s %-10s %8d %12s" s.src_device s.src_kind s.src_count (ms s.src_stall_us))
      t.sources
  end;
  if t.net_msgs > 0 || t.net_retransmits > 0 then begin
    line "net: %d messages, %s ms on the wire, %d retransmits" t.net_msgs (ms t.net_wire_us)
      t.net_retransmits;
    line "  %-20s %8s %12s %12s %8s" "request" "calls" "wait ms" "wire ms" "retx";
    List.iter
      (fun s ->
        line "  %-20s %8d %12s %12s %8d" s.ns_request s.ns_calls (ms s.ns_wait_us)
          (ms s.ns_wire_us) s.ns_retransmits)
      t.net_sources
  end;
  line "redo ops: %d" t.redo_ops;
  Buffer.contents buf

(* ---------- JSON ---------- *)

let to_json t =
  let us x = Json.fixed ~decimals:3 x and int = Json.int and str s = Json.Str s in
  let objs f items = Json.Arr (List.map (fun x -> Json.Obj (f x)) items) in
  Json.to_string
    (Json.Obj
       [
         ("schema", int 1);
         ("meta", Json.Obj (List.map (fun (k, v) -> (k, str v)) t.meta));
         ("total_us", us t.total_us);
         ( "phases",
           objs
             (fun ph ->
               [ ("name", str ph.ph_name); ("start_us", us ph.ph_start_us);
                 ("dur_us", us ph.ph_dur_us); ("stall_us", us ph.ph_stall_us);
                 ("io_us", us ph.ph_io_us); ("overlap_us", us ph.ph_overlap_us);
                 ("compute_us", us ph.ph_compute_us) ])
             t.phases );
         ( "fetches",
           Json.Obj
             [ ("total", int t.fetch_total); ("data", int t.fetch_data);
               ("index", int t.fetch_index); ("prefetched", int t.fetch_prefetched);
               ("demand", int t.fetch_demand) ] );
         ( "prefetch",
           Json.Obj
             [ ("issued", int t.pf_issued); ("hit", int t.pf_hit); ("late", int t.pf_late);
               ("wasted", int t.pf_wasted) ] );
         ( "stalls",
           Json.Obj
             [ ("count", int t.stall_count); ("total_us", us t.stall_total_us);
               ("attributed_us", us t.stall_attributed_us) ] );
         ( "sources",
           objs
             (fun s ->
               [ ("device", str s.src_device); ("kind", str s.src_kind);
                 ("count", int s.src_count); ("stall_us", us s.src_stall_us) ])
             t.sources );
         ( "net",
           Json.Obj
             [ ("msgs", int t.net_msgs); ("wire_us", us t.net_wire_us);
               ("retransmits", int t.net_retransmits);
               ( "sources",
                 objs
                   (fun s ->
                     [ ("request", str s.ns_request); ("calls", int s.ns_calls);
                       ("wait_us", us s.ns_wait_us); ("wire_us", us s.ns_wire_us);
                       ("retransmits", int s.ns_retransmits) ])
                   t.net_sources ) ] );
         ("redo_ops", int t.redo_ops);
       ])
