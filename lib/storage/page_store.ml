exception Missing_page of int
exception Corrupt_page of int

(* A stable image is immutable once installed (the store replaces whole
   images, never edits them), so one successful checksum verification holds
   for the image's lifetime: [verified] caches it and repeat fetches skip
   the full-page hash.  Images installed by [write] are valid by
   construction (the stamp was just computed); only images of unknown
   provenance — a corrupted one, or a clone of one — start unverified. *)
type image = { bytes : Bytes.t; mutable verified : bool }

type t = {
  page_size : int;
  mutable images : image option array;  (* indexed by pid *)
  mutable next_pid : int;
  mutable stable : int;  (* number of Some slots in [images] *)
}

let create ~page_size = { page_size; images = Array.make 1024 None; next_pid = 0; stable = 0 }
let page_size t = t.page_size

let ensure_capacity t pid =
  let n = Array.length t.images in
  if pid >= n then begin
    let grown = Array.make (Stdlib.max (pid + 1) (2 * n)) None in
    Array.blit t.images 0 grown 0 n;
    t.images <- grown
  end

let allocate t _kind =
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  ensure_capacity t pid;
  pid

let allocated_count t = t.next_pid
let stable_count t = t.stable
let exists t pid = pid >= 0 && pid < t.next_pid && t.images.(pid) <> None

(* Zero-copy: the checksum is verified against the stable buffer itself and
   the caller gets a borrowed (copy-on-write) view of it — no per-fetch
   [Bytes.copy].  The stable image stays isolated because [Page] mutators
   unshare before writing and this store only ever replaces whole images. *)
let read t pid =
  if pid < 0 || pid >= t.next_pid then raise (Missing_page pid);
  match t.images.(pid) with
  | None -> raise (Missing_page pid)
  | Some img ->
      let page = Page.borrow ~pid img.bytes in
      if not img.verified then
        if Page.checksum_ok page then img.verified <- true
        else raise (Corrupt_page pid);
      page

let install_image t pid image =
  if t.images.(pid) = None then t.stable <- t.stable + 1;
  t.images.(pid) <- Some image

let install_bytes t pid bytes ~verified = install_image t pid { bytes; verified }

let write t (page : Page.t) =
  if Bytes.length page.buf <> t.page_size then invalid_arg "Page_store.write: size mismatch";
  ensure_capacity t page.pid;
  if page.pid >= t.next_pid then t.next_pid <- page.pid + 1;
  install_bytes t page.pid (Page.stable_image page) ~verified:true

let corrupt_for_test t pid =
  match t.images.(pid) with
  | Some img ->
      (* Replace rather than edit in place: outstanding borrows of the old
         image must keep reading the bytes they were lent. *)
      let corrupt = Bytes.copy img.bytes in
      let i = Page.header_size + 1 in
      Bytes.set corrupt i (Char.chr (Char.code (Bytes.get corrupt i) lxor 0xFF));
      t.images.(pid) <- Some { bytes = corrupt; verified = false }
  | None -> raise (Missing_page pid)

(* Zero-copy: stable images are immutable, so the clone shares every
   image's bytes and copies only the per-store [verified] flag.  Either
   store replacing an image ([write], [corrupt_for_test]) swaps its own
   array slot and leaves the other's untouched. *)
let clone t =
  {
    page_size = t.page_size;
    images =
      Array.map (Option.map (fun img -> { bytes = img.bytes; verified = img.verified })) t.images;
    next_pid = t.next_pid;
    stable = t.stable;
  }

let iter_stable t f =
  for pid = 0 to t.next_pid - 1 do
    match t.images.(pid) with
    | Some img -> f (Page.borrow ~pid img.bytes)
    | None -> ()
  done

let note_allocated t pid =
  ensure_capacity t pid;
  if pid >= t.next_pid then t.next_pid <- pid + 1
