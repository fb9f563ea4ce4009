let seed = 0

let p1 = 0x9E3779B185EBCA87L
let p2 = 0xC2B2AE3D27D4EB4FL
let p3 = 0x165667B19E3779F9L
let p4 = 0x85EBCA77C2B2AE63L
let p5 = 0x27D4EB2F165667C5L

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external bswap64 : int64 -> int64 = "%bswap_int64"
external bswap32 : int32 -> int32 = "%bswap_int32"

(* Unchecked native-order loads, read as little-endian on every host.
   [fold] checks the whole range once before the first load. *)
let[@inline always] load64 buf i = if Sys.big_endian then bswap64 (get64u buf i) else get64u buf i

let[@inline always] load32 buf i =
  let w = if Sys.big_endian then bswap32 (get32u buf i) else get32u buf i in
  Int64.logand (Int64.of_int32 w) 0xFFFFFFFFL

let[@inline always] rotl x r =
  Int64.logor (Int64.shift_left x r) (Int64.shift_right_logical x (64 - r))

let[@inline always] round acc input = Int64.mul (rotl (Int64.add acc (Int64.mul input p2)) 31) p1
let[@inline always] merge acc v = Int64.add (Int64.mul (Int64.logxor acc (round 0L v)) p1) p4

(* The four lane accumulators and the running hash are [Int64] locals that
   never escape, so the native compiler keeps them unboxed and the stripe
   loop runs four independent multiply chains. *)
let fold buf ~off ~len ~init =
  if off < 0 || len < 0 || off > Bytes.length buf - len then
    invalid_arg "Checksum.fold: range out of bounds";
  let seed = Int64.of_int init in
  let stop = off + len in
  let i = ref off in
  let h = ref (Int64.add seed p5) in
  if len >= 32 then begin
    let v1 = ref (Int64.add seed (Int64.add p1 p2)) in
    let v2 = ref (Int64.add seed p2) in
    let v3 = ref seed in
    let v4 = ref (Int64.sub seed p1) in
    let last_stripe = stop - 32 in
    while !i <= last_stripe do
      v1 := round !v1 (load64 buf !i);
      v2 := round !v2 (load64 buf (!i + 8));
      v3 := round !v3 (load64 buf (!i + 16));
      v4 := round !v4 (load64 buf (!i + 24));
      i := !i + 32
    done;
    h := Int64.add (Int64.add (rotl !v1 1) (rotl !v2 7)) (Int64.add (rotl !v3 12) (rotl !v4 18));
    h := merge !h !v1;
    h := merge !h !v2;
    h := merge !h !v3;
    h := merge !h !v4
  end;
  h := Int64.add !h (Int64.of_int len);
  while !i <= stop - 8 do
    h := Int64.add (Int64.mul (rotl (Int64.logxor !h (round 0L (load64 buf !i))) 27) p1) p4;
    i := !i + 8
  done;
  if !i <= stop - 4 then begin
    h := Int64.add (Int64.mul (rotl (Int64.logxor !h (Int64.mul (load32 buf !i) p1)) 23) p2) p3;
    i := !i + 4
  end;
  while !i < stop do
    let byte = Int64.of_int (Char.code (Bytes.unsafe_get buf !i)) in
    h := Int64.mul (rotl (Int64.logxor !h (Int64.mul byte p5)) 11) p1;
    incr i
  done;
  let h = !h in
  let h = Int64.mul (Int64.logxor h (Int64.shift_right_logical h 33)) p2 in
  let h = Int64.mul (Int64.logxor h (Int64.shift_right_logical h 29)) p3 in
  let h = Int64.logxor h (Int64.shift_right_logical h 32) in
  Int64.to_int h land 0xFFFFFFFF

let sub buf ~off ~len = fold buf ~off ~len ~init:seed
