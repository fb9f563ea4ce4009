exception Corrupt_record of int

(* XXH64 (low 32 bits) over the payload. *)
let checksum_sub buf off len = Deut_storage.Checksum.sub buf ~off ~len

let frame_header = 8

type archive_step =
  | Archive_segment_partial
  | Archive_segment_sealed
  | Archive_truncate_torn
  | Archive_truncated

type t = {
  page_size : int;
  mutable base : int;  (* absolute offset of data.(0): bytes before it were archived *)
  mutable data : Bytes.t;
  mutable len : int;  (* absolute end offset *)
  mutable stable : int;  (* absolute: bytes in [base, stable) are durable *)
  mutable records : int;
  mutable forces : int;
  mutable read_disk : Deut_sim.Disk.t option;
  mutable trace : Deut_obs.Trace.t option;
  mutable flight : (Deut_obs.Flight.t * int) option;
      (* the engine's flight recorder and the component this log belongs
         to, so forces land in that component's black box *)
  mutable on_append : (int -> unit) option;
  mutable archive : Archive.t option;
      (* sealed segments holding bytes below [base]; reads span the two
         stores transparently *)
  mutable on_archive : (archive_step -> unit) option;
  scratch : Codec.writer;  (* reused across appends: no per-record buffer *)
  mutable verified_upto : int;
      (* Frames ending at or below this absolute offset have passed their
         checksum check once.  Log bytes are immutable after append (only
         [corrupt_for_test] edits them, and it pulls the watermark back),
         so one verification per frame is sound: appends extend the
         watermark when they land on it, [crash]/[crash_at] inherit it, and
         [read_at] skips the payload hash below it — the redo scan of every
         method after the first re-reads a frame it (or the appender)
         already checked. *)
}

(* Offset 0 is reserved: the first record lands at [genesis] so that 0 —
   the pLSN a zero-initialised page header reports — unambiguously means
   "before every record".  Without the reservation, a log whose first
   record carries no preceding system records (the split layout's TC log,
   a fresh DC log) puts that record at offset 0, and the redo pLSN test
   [lsn <= plsn] cannot tell a fresh page from one that already holds it. *)
let genesis = 1

let create ~page_size =
  if page_size <= 0 then invalid_arg "Log_manager.create: page_size must be positive";
  {
    page_size;
    base = genesis;
    data = Bytes.create 65536;
    len = genesis;
    stable = genesis;
    records = 0;
    forces = 0;
    read_disk = None;
    trace = None;
    flight = None;
    on_append = None;
    archive = None;
    on_archive = None;
    scratch = Codec.writer ();
    verified_upto = genesis;
  }

let set_append_hook t hook = t.on_append <- hook
let set_archive_hook t hook = t.on_archive <- hook
let attach_archive t a = t.archive <- Some a
let archive t = t.archive

let instrument t ?trace ?flight () =
  t.trace <- trace;
  t.flight <- flight

let note_force t ~from =
  (match t.flight with
  | Some (f, comp) ->
      Deut_obs.Flight.record f ~comp Deut_obs.Flight.Force "log_force" ~lsn:t.stable ()
  | None -> ());
  match t.trace with
  | Some tr ->
      Deut_obs.Trace.instant tr ~name:"log_force" ~cat:"wal" ~track:Deut_obs.Trace.track_wal
        ~args:[ ("stable", t.stable); ("bytes", t.stable - from) ]
        ()
  | None -> ()

let end_lsn t = t.len
let stable_lsn t = t.stable
let base_lsn t = t.base
let record_count t = t.records
let force_count t = t.forces

let ensure_capacity t extra =
  let needed = t.len - t.base + extra in
  if needed > Bytes.length t.data then begin
    let grown = Bytes.create (Stdlib.max needed (2 * Bytes.length t.data)) in
    Bytes.blit t.data 0 grown 0 (t.len - t.base);
    t.data <- grown
  end

let append t record =
  Codec.clear t.scratch;
  Log_record.encode_into t.scratch record;
  let payload_len = Codec.length t.scratch in
  let frame = frame_header + payload_len in
  ensure_capacity t frame;
  let lsn = t.len in
  let off = lsn - t.base in
  Bytes.set_int32_be t.data off (Int32.of_int payload_len);
  Codec.blit t.scratch ~src_off:0 t.data ~dst_off:(off + frame_header) ~len:payload_len;
  let crc = checksum_sub t.data (off + frame_header) payload_len in
  Bytes.set_int32_be t.data (off + 4) (Int32.of_int crc);
  if t.verified_upto = lsn then t.verified_upto <- lsn + frame;
  t.len <- t.len + frame;
  t.records <- t.records + 1;
  (match t.on_append with Some f -> f lsn | None -> ());
  lsn

let force t =
  if t.len > t.stable then begin
    let from = t.stable in
    t.stable <- t.len;
    t.forces <- t.forces + 1;
    note_force t ~from
  end

let force_upto t lsn =
  if lsn >= t.stable then begin
    (* Stabilise through the end of the record starting at [lsn]. *)
    if lsn >= t.len then force t
    else begin
      let from = t.stable in
      let payload_len = Int32.to_int (Bytes.get_int32_be t.data (lsn - t.base)) in
      t.stable <- Stdlib.max t.stable (lsn + frame_header + payload_len);
      t.forces <- t.forces + 1;
      note_force t ~from
    end
  end

(* Serve an offset below [base] from the archive.  Sealed-segment checksums
   cover every frame at once (verified on the incarnation's first access),
   so the per-frame checksum is skipped here.  Segments begin and end on
   record boundaries, hence a frame never straddles two of them. *)
let read_archived t lsn =
  match t.archive with
  | Some a when Archive.contains a lsn ->
      let buf, off = Archive.locate a lsn in
      let payload_len = Int32.to_int (Bytes.get_int32_be buf off) in
      ( Log_record.decode_sub buf ~pos:(off + frame_header) ~len:payload_len,
        lsn + frame_header + payload_len )
  | _ ->
      invalid_arg
        (Printf.sprintf "Log_manager.read_at: offset %d out of range [%d,%d)" lsn t.base t.len)

let read_at t lsn =
  if lsn < t.base then read_archived t lsn
  else if lsn + frame_header > t.len then
    invalid_arg (Printf.sprintf "Log_manager.read_at: offset %d out of range [%d,%d)" lsn t.base t.len)
  else begin
  let off = lsn - t.base in
  let payload_len = Int32.to_int (Bytes.get_int32_be t.data off) in
  let next = lsn + frame_header + payload_len in
  if next > t.len then invalid_arg "Log_manager.read_at: truncated frame";
  if next > t.verified_upto then begin
    let stored = Int32.to_int (Bytes.get_int32_be t.data (off + 4)) land 0xFFFFFFFF in
    if stored <> checksum_sub t.data (off + frame_header) payload_len then
      raise (Corrupt_record lsn);
    if lsn <= t.verified_upto then t.verified_upto <- next
  end;
  (Log_record.decode_sub t.data ~pos:(off + frame_header) ~len:payload_len, next)
  end

let corrupt_for_test ?bit t lsn =
  let byte, mask = match bit with Some b -> (b / 8, 1 lsl (b land 7)) | None -> (0, 0xFF) in
  let off = lsn - t.base + frame_header + byte in
  Bytes.set t.data off (Char.chr (Char.code (Bytes.get t.data off) lxor mask));
  t.verified_upto <- Stdlib.min t.verified_upto lsn

let attach_read_disk t disk = t.read_disk <- Some disk

(* Log pids live in their own namespace on the dedicated log disk, so plain
   page indexes give correct sequential-run detection. *)
let charge_page t page_index =
  match t.read_disk with
  | None -> ()
  | Some disk -> Deut_sim.Disk.read_sequential_sync disk ~first_pid:page_index ~count:1

(* The lowest offset a scan can start from: the first archived byte when
   segments exist, otherwise the live base. *)
let scan_floor t =
  match t.archive with
  | Some a -> ( match Archive.start_lsn a with Some s -> s | None -> t.base)
  | None -> t.base

let iter t ~from ?upto f =
  let upto = match upto with Some u -> Stdlib.min u t.len | None -> t.stable in
  let floor = scan_floor t in
  let start = if Lsn.is_nil from then floor else from in
  if start < floor then
    invalid_arg
      (Printf.sprintf "Log_manager.iter: scan start %d precedes archived boundary %d" start floor);
  let last_page = ref (-1) in
  (* Pages holding archived bytes are charged to the archive device, the
     rest to the live log disk — same per-page accounting, separate lanes. *)
  let charge lsn p =
    if lsn < t.base then (match t.archive with Some a -> Archive.charge_page a p | None -> ())
    else charge_page t p
  in
  let rec loop lsn =
    if lsn < upto then begin
      let page = lsn / t.page_size in
      if page <> !last_page then begin
        (* Charge every log page from the last one read through this one so
           large records spanning pages are accounted in full. *)
        let first = if !last_page < 0 then page else !last_page + 1 in
        for p = first to page do
          charge lsn p
        done;
        last_page := page
      end;
      let record, next = read_at t lsn in
      f lsn record;
      loop next
    end
  in
  loop start

let crash_at t lsn =
  if lsn < t.base || lsn > t.len then
    invalid_arg
      (Printf.sprintf "Log_manager.crash_at: boundary %d outside [%d,%d]" lsn t.base t.len);
  {
    page_size = t.page_size;
    base = t.base;
    data = Bytes.sub t.data 0 (lsn - t.base);
    len = lsn;
    stable = lsn;
    records = 0;
    forces = 0;
    read_disk = None;
    trace = None;
    flight = None;
    on_append = None;
    archive = Option.map Archive.crash t.archive;
    on_archive = None;
    scratch = Codec.writer ();
    verified_upto = Stdlib.min t.verified_upto lsn;
  }

let crash t = crash_at t t.stable

let compact t ~keep_from =
  if keep_from > t.stable then
    invalid_arg "Log_manager.compact: cannot archive past the stable prefix";
  if keep_from > t.base then begin
    let retained = t.len - keep_from in
    let fresh = Bytes.create (Stdlib.max retained 65536) in
    Bytes.blit t.data (keep_from - t.base) fresh 0 retained;
    t.data <- fresh;
    t.base <- keep_from
  end

(* The record boundary closest to the midpoint of [lo, upto), found by
   hopping frames.  Gives the torn-truncation crash point a legal [compact]
   target strictly inside the range (when one exists). *)
let mid_boundary t ~lo ~upto =
  let target = lo + ((upto - lo) / 2) in
  let rec hop lsn =
    if lsn >= target || lsn + frame_header > upto then lsn
    else
      let payload_len = Int32.to_int (Bytes.get_int32_be t.data (lsn - t.base)) in
      let next = lsn + frame_header + payload_len in
      if next > upto then lsn else hop next
  in
  hop lo

let fire t step = match t.on_archive with Some f -> f step | None -> ()

let archive_to t ~upto =
  match t.archive with
  | None -> false
  | Some a ->
      if upto > t.stable then
        invalid_arg "Log_manager.archive_to: cannot archive past the stable prefix";
      (* After a crash between seal and truncate the archive already covers
         bytes the live log still holds; the next segment resumes where the
         sealed run ends, never re-copying. *)
      let lo = if Archive.segment_count a > 0 then Archive.covered_upto a else t.base in
      if upto <= lo then false
      else begin
        let len = upto - lo in
        (* Pick the torn-truncation point before any bytes move: it must be
           a frame boundary read from the still-intact live data. *)
        let mid = mid_boundary t ~lo ~upto in
        Archive.begin_segment a ~lo ~len;
        let half = len / 2 in
        Archive.append_bytes a ~src:t.data ~src_off:(lo - t.base) ~len:half;
        fire t Archive_segment_partial;
        Archive.append_bytes a ~src:t.data ~src_off:(lo - t.base + half) ~len:(len - half);
        Archive.seal a;
        fire t Archive_segment_sealed;
        if mid > t.base && mid < upto then begin
          compact t ~keep_from:mid;
          fire t Archive_truncate_torn
        end;
        compact t ~keep_from:upto;
        (match t.trace with
        | Some tr ->
            Deut_obs.Trace.instant tr ~name:"archive_truncate" ~cat:"archive"
              ~track:Deut_obs.Trace.track_archive_disk
              ~args:[ ("lo", lo); ("upto", upto) ]
              ()
        | None -> ());
        fire t Archive_truncated;
        true
      end
