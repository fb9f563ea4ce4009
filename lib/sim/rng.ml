(* The 64-bit state sits unboxed in an 8-byte buffer.  A [mutable int64]
   field would hold a boxed [Int64], so every draw would allocate one and
   pay a write barrier to store it. *)
type t = Bytes.t

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let of_state state =
  let t = Bytes.create 8 in
  set64u t 0 state;
  t

let create ~seed = of_state (Int64.of_int seed)

(* splitmix64 step: the golden-gamma increment followed by two xor-shift
   multiplications gives 64 well-mixed bits per call. *)
let[@inline] int64 t =
  let z = Int64.add (get64u t 0) 0x9E3779B97F4A7C15L in
  set64u t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t = of_state (int64 t)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let mask = Int64.shift_right_logical (int64 t) 1 in
  Int64.to_int (Int64.rem mask (Int64.of_int bound))

let float t bound =
  let mantissa = Int64.shift_right_logical (int64 t) 11 in
  Int64.to_float mantissa /. 9007199254740992.0 *. bound

let bool t = Int64.logand (int64 t) 1L = 1L

module Zipf = struct
  type dist = { cdf : float array }

  let create ~n ~theta =
    if n <= 0 then invalid_arg "Zipf.create: n must be positive";
    let weights = Array.init n (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) theta) in
    let total = Array.fold_left ( +. ) 0.0 weights in
    let cdf = Array.make n 0.0 in
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      acc := !acc +. (weights.(i) /. total);
      cdf.(i) <- !acc
    done;
    cdf.(n - 1) <- 1.0;
    { cdf }

  let sample t { cdf } =
    let u = float t 1.0 in
    (* Smallest index whose cumulative probability covers [u]. *)
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cdf.(mid) < u then search (mid + 1) hi else search lo mid
    in
    search 0 (Array.length cdf - 1)
end
