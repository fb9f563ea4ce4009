(* Archived-segment store.  See archive.mli for the contract. *)

exception Corrupt_segment of { lo : Lsn.t; hi : Lsn.t }

type segment = {
  lo : Lsn.t;
  hi : Lsn.t;  (* lo + Bytes.length bytes *)
  bytes : Bytes.t;
  mutable fill : int;  (* bytes written so far; = length when complete *)
  mutable checksum : int;  (* whole-payload XXH64 (low 32 bits), valid once sealed *)
  mutable sealed : bool;
  mutable verified : bool;  (* checksum checked this incarnation *)
}

type t = {
  page_size : int;
  mutable segments : segment list;
      (* ascending by lo; a contiguous sealed run plus at most one
         unsealed tail (an interrupted copy) *)
  mutable disk : Deut_sim.Disk.t option;
  mutable trace : Deut_obs.Trace.t option;
  mutable seals : int;
  mutable pages_written : int;
}

let create ~page_size =
  if page_size <= 0 then invalid_arg "Archive.create: page_size must be positive";
  { page_size; segments = []; disk = None; trace = None; seals = 0; pages_written = 0 }

let page_size t = t.page_size
let attach_disk t disk = t.disk <- Some disk
let instrument t ?trace () = t.trace <- trace

let sealed_segments t = List.filter (fun s -> s.sealed) t.segments
let segment_count t = List.length (sealed_segments t)

let sealed_bytes t =
  List.fold_left (fun acc s -> acc + Bytes.length s.bytes) 0 (sealed_segments t)

let seal_count t = t.seals
let pages_written t = t.pages_written

let start_lsn t = match sealed_segments t with [] -> None | s :: _ -> Some s.lo
let covered_upto t = List.fold_left (fun acc s -> if s.sealed then s.hi else acc) 0 t.segments
let segments t = List.map (fun s -> (s.lo, s.hi, s.sealed)) t.segments

let open_segment t =
  match List.rev t.segments with
  | last :: _ when not last.sealed -> last
  | _ -> invalid_arg "Archive: no open segment"

let begin_segment t ~lo ~len =
  if len <= 0 then invalid_arg "Archive.begin_segment: segment must be non-empty";
  (* Drop the residue of a copy a crash interrupted: its bytes are still in
     the live log (truncation follows sealing), so nothing is lost. *)
  t.segments <- List.filter (fun s -> s.sealed) t.segments;
  let covered = covered_upto t in
  if t.segments <> [] && lo <> covered then
    invalid_arg
      (Printf.sprintf "Archive.begin_segment: segment at %d would leave a gap (covered to %d)"
         lo covered);
  t.segments <-
    t.segments
    @ [
        {
          lo;
          hi = lo + len;
          bytes = Bytes.create len;
          fill = 0;
          checksum = 0;
          sealed = false;
          verified = false;
        };
      ]

let append_bytes t ~src ~src_off ~len =
  if len = 0 then ()
  else begin
    let s = open_segment t in
    if s.fill + len > Bytes.length s.bytes then
      invalid_arg "Archive.append_bytes: write past the open segment's end";
    Bytes.blit src src_off s.bytes s.fill len;
    (* One sequential device write spanning the log pages this chunk
       touches; fire-and-forget, like a cache flush — the archiver is a
       background task and never advances the caller's clock. *)
    let first_page = (s.lo + s.fill) / t.page_size in
    let last_page = (s.lo + s.fill + len - 1) / t.page_size in
    let count = last_page - first_page + 1 in
    (match t.disk with
    | Some disk -> ignore (Deut_sim.Disk.submit_sequential_write disk ~first_pid:first_page ~count)
    | None -> ());
    t.pages_written <- t.pages_written + count;
    s.fill <- s.fill + len
  end

let seal t =
  let s = open_segment t in
  if s.fill <> Bytes.length s.bytes then
    invalid_arg
      (Printf.sprintf "Archive.seal: segment [%d,%d) only %d of %d bytes written" s.lo s.hi
         s.fill (Bytes.length s.bytes));
  s.checksum <- Deut_storage.Checksum.sub s.bytes ~off:0 ~len:(Bytes.length s.bytes);
  s.sealed <- true;
  s.verified <- true;  (* the writer just produced the bytes it hashed *)
  t.seals <- t.seals + 1;
  match t.trace with
  | Some tr ->
      Deut_obs.Trace.instant tr ~name:"archive_seal" ~cat:"archive"
        ~track:Deut_obs.Trace.track_archive_disk
        ~args:[ ("lo", s.lo); ("hi", s.hi); ("bytes", Bytes.length s.bytes) ]
        ()
  | None -> ()

let find_sealed t lsn =
  List.find_opt (fun s -> s.sealed && s.lo <= lsn && lsn < s.hi) t.segments

let contains t lsn = find_sealed t lsn <> None

let verify s =
  if not s.verified then begin
    if Deut_storage.Checksum.sub s.bytes ~off:0 ~len:(Bytes.length s.bytes) <> s.checksum then
      raise (Corrupt_segment { lo = s.lo; hi = s.hi });
    s.verified <- true
  end

let locate t lsn =
  match find_sealed t lsn with
  | Some s ->
      verify s;
      (s.bytes, lsn - s.lo)
  | None ->
      invalid_arg (Printf.sprintf "Archive.locate: offset %d is not in any sealed segment" lsn)

let charge_page t page =
  match t.disk with
  | None -> ()
  | Some disk -> Deut_sim.Disk.read_sequential_sync disk ~first_pid:page ~count:1

let corrupt_for_test t ~lsn =
  match find_sealed t lsn with
  | Some s ->
      let off = lsn - s.lo in
      Bytes.set s.bytes off (Char.chr (Char.code (Bytes.get s.bytes off) lxor 0xFF));
      s.verified <- false
  | None -> invalid_arg "Archive.corrupt_for_test: offset is not in any sealed segment"

let crash t =
  {
    page_size = t.page_size;
    segments =
      List.map
        (fun s ->
          {
            s with
            bytes = Bytes.sub s.bytes 0 (Bytes.length s.bytes);
            verified = false;
          })
        t.segments;
    disk = None;
    trace = None;
    seals = 0;
    pages_written = 0;
  }
