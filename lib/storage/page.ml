type kind = Free | Meta | Btree_leaf | Btree_internal

(* [shared] marks a page whose [buf] aliases bytes owned by someone else
   (the page store's stable image).  Reads go straight through; the first
   mutation copies the buffer and drops the flag, so stable images can be
   lent out without a defensive copy per fetch. *)
type t = { pid : int; mutable buf : Bytes.t; mutable shared : bool }

let header_size = 24

let kind_to_tag = function Free -> 0 | Meta -> 1 | Btree_leaf -> 2 | Btree_internal -> 3

let kind_of_tag = function
  | 0 -> Free
  | 1 -> Meta
  | 2 -> Btree_leaf
  | 3 -> Btree_internal
  | n -> invalid_arg (Printf.sprintf "Page.kind_of_tag: corrupt kind tag %d" n)

let[@inline] unshare t =
  if t.shared then begin
    t.buf <- Bytes.copy t.buf;
    t.shared <- false
  end

let size t = Bytes.length t.buf
let get_u8 t off = Char.code (Bytes.get t.buf off)

let set_u8 t off v =
  unshare t;
  Bytes.set t.buf off (Char.chr (v land 0xff))

let get_u16 t off = Bytes.get_uint16_be t.buf off

let set_u16 t off v =
  unshare t;
  Bytes.set_uint16_be t.buf off v

let get_u32 t off = Int32.to_int (Bytes.get_int32_be t.buf off) land 0xffffffff

let set_u32 t off v =
  unshare t;
  Bytes.set_int32_be t.buf off (Int32.of_int v)

let get_u64 t off = Int64.to_int (Bytes.get_int64_be t.buf off)

let set_u64 t off v =
  unshare t;
  Bytes.set_int64_be t.buf off (Int64.of_int v)

let kind t = kind_of_tag (get_u8 t 0)
let set_kind t k = set_u8 t 0 (kind_to_tag k)
let plsn t = get_u64 t 8
let set_plsn t lsn = set_u64 t 8 lsn
let dc_plsn t = get_u64 t 16
let set_dc_plsn t lsn = set_u64 t 16 lsn

(* XXH64 over everything except the checksum field itself (bytes 4-7).
   A computed 0 is stamped as 1, so no stamp is ever 0 and a checksum field
   a stray write zeroed fails [checksum_ok] like any other mismatch. *)
let checksum_of_bytes buf =
  let h = Checksum.fold buf ~off:0 ~len:4 ~init:Checksum.seed in
  let h = Checksum.fold buf ~off:8 ~len:(Bytes.length buf - 8) ~init:h in
  if h = 0 then 1 else h

let compute_checksum t = checksum_of_bytes t.buf
let checksum_ok t = get_u32 t 4 = compute_checksum t

let create ~page_size ~pid k =
  if page_size < header_size then invalid_arg "Page.create: page_size below header";
  let t = { pid; buf = Bytes.make page_size '\000'; shared = false } in
  set_kind t k;
  t

let borrow ~pid buf = { pid; buf; shared = true }
let of_image ~pid image = { pid; buf = Bytes.of_string image; shared = false }

let stable_image t =
  let buf = Bytes.copy t.buf in
  let h = checksum_of_bytes buf in
  Bytes.set_int32_be buf 4 (Int32.of_int h);
  buf

let get_bytes t ~off ~len = Bytes.sub_string t.buf off len

external get16u : Bytes.t -> int -> int = "%caml_bytes_get16u"
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external string_get64u : string -> int -> int64 = "%caml_string_get64u"
external bswap16 : int -> int = "%bswap16"
external bswap64 : int64 -> int64 = "%bswap_int64"

(* Native-order loads swapped to the page's big-endian on little-endian
   hosts, as [Checksum] does for its little-endian words. *)
let[@inline always] unsafe_get_u16 t off =
  let v = get16u t.buf off in
  if Sys.big_endian then v else bswap16 v

let[@inline always] unsafe_get_u64 t off =
  let v = get64u t.buf off in
  Int64.to_int (if Sys.big_endian then v else bswap64 v)

(* Eight bytes per compare, then byte by byte.  Both sides are read in the
   same (native) order, so no swap is needed. *)
let rec equal_from buf off s i len =
  if i + 8 <= len then
    (get64u buf (off + i) : int64) = string_get64u s i && equal_from buf off s (i + 8) len
  else
    i >= len
    || (Bytes.unsafe_get buf (off + i) = String.unsafe_get s i && equal_from buf off s (i + 1) len)

let equal_sub t ~off s =
  let len = String.length s in
  if off < 0 || off > Bytes.length t.buf - len then invalid_arg "Page.equal_sub: range out of bounds";
  equal_from t.buf off s 0 len

let set_bytes t ~off s =
  unshare t;
  Bytes.blit_string s 0 t.buf off (String.length s)

let blit_within t ~src ~dst ~len =
  unshare t;
  Bytes.blit t.buf src t.buf dst len

let zero_range t ~off ~len =
  unshare t;
  Bytes.fill t.buf off len '\000'
