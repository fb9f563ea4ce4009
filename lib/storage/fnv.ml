let seed = 0x811C9DC5

let[@inline always] mix h byte = (h lxor byte) * 0x01000193 land 0xFFFFFFFF

let fold_ref buf ~off ~len ~init =
  if off < 0 || len < 0 || off + len > Bytes.length buf then
    invalid_arg "Fnv.fold_ref: range out of bounds";
  let h = ref init in
  for i = off to off + len - 1 do
    h := mix !h (Char.code (Bytes.get buf i))
  done;
  !h

(* [mix] without the mask, on an unboxed [Int64]. *)
let[@inline always] mix64 h byte = Int64.mul (Int64.logxor h byte) 0x01000193L

(* FNV-1a is byte-sequential, so "word-wide" here means one bounds-checked
   64-bit load per 8 bytes with the bytes then mixed in address order — the
   hash value is identical to the byte-at-a-time reference, only the memory
   traffic changes.  The running hash lives in an unboxed [Int64] local, so
   each byte costs one xor and one multiply: no int tag to strip and
   re-add, and no per-byte mask.  It is masked to 32 bits once, at the end,
   which is exact because the low 32 bits of a product (and of an xor)
   depend only on the low 32 bits of the operands.  [get_int64_le] fixes
   byte order regardless of host endianness.  An empty range returns
   [init] untouched, as [fold_ref] does. *)
let fold buf ~off ~len ~init =
  if off < 0 || len < 0 || off + len > Bytes.length buf then
    invalid_arg "Fnv.fold: range out of bounds";
  if len = 0 then init
  else begin
    let h = ref (Int64.of_int init) in
    let i = ref off in
    let stop = off + len - 7 in
    while !i < stop do
      let w = Bytes.get_int64_le buf !i in
      h := mix64 !h (Int64.logand w 0xFFL);
      h := mix64 !h (Int64.logand (Int64.shift_right_logical w 8) 0xFFL);
      h := mix64 !h (Int64.logand (Int64.shift_right_logical w 16) 0xFFL);
      h := mix64 !h (Int64.logand (Int64.shift_right_logical w 24) 0xFFL);
      h := mix64 !h (Int64.logand (Int64.shift_right_logical w 32) 0xFFL);
      h := mix64 !h (Int64.logand (Int64.shift_right_logical w 40) 0xFFL);
      h := mix64 !h (Int64.logand (Int64.shift_right_logical w 48) 0xFFL);
      h := mix64 !h (Int64.shift_right_logical w 56);
      i := !i + 8
    done;
    let last = off + len - 1 in
    while !i <= last do
      h := mix64 !h (Int64.of_int (Char.code (Bytes.unsafe_get buf !i)));
      incr i
    done;
    Int64.to_int (Int64.logand !h 0xFFFFFFFFL)
  end

let sub buf ~off ~len = fold buf ~off ~len ~init:seed
