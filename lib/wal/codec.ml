exception Truncated of string

type writer = Buffer.t

let writer () = Buffer.create 128
let contents = Buffer.contents
let clear = Buffer.clear
let length = Buffer.length
let blit w ~src_off dst ~dst_off ~len = Buffer.blit w src_off dst dst_off len
let w_u8 b v = Buffer.add_char b (Char.chr (v land 0xff))
let w_u32 b v = Buffer.add_int32_be b (Int32.of_int v)
let w_i64 b v = Buffer.add_int64_be b (Int64.of_int v)

let w_string b s =
  w_u32 b (String.length s);
  Buffer.add_string b s

let w_opt_string b = function
  | None -> w_u8 b 0
  | Some s ->
      w_u8 b 1;
      w_string b s

let w_u32_array b a =
  w_u32 b (Array.length a);
  Array.iter (w_u32 b) a

let w_i64_array b a =
  w_u32 b (Array.length a);
  Array.iter (w_i64 b) a

(* Readers decode in place over [Bytes.t] between [pos] and [limit] — the
   recovery scan hands the log buffer straight in, with no per-record
   [Bytes.sub_string].  Only [r_string] allocates (its value escapes). *)
type reader = { data : Bytes.t; limit : int; mutable pos : int }

let reader data =
  (* The string is never written through: readers only read. *)
  { data = Bytes.unsafe_of_string data; limit = String.length data; pos = 0 }

let reader_sub data ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length data then
    invalid_arg "Codec.reader_sub: range out of bounds";
  { data; limit = pos + len; pos }

let need r n what = if r.pos + n > r.limit then raise (Truncated what)

let r_u8 r =
  need r 1 "u8";
  let v = Char.code (Bytes.get r.data r.pos) in
  r.pos <- r.pos + 1;
  v

let r_u32 r =
  need r 4 "u32";
  let v = Int32.to_int (Bytes.get_int32_be r.data r.pos) land 0xffffffff in
  r.pos <- r.pos + 4;
  v

let r_i64 r =
  need r 8 "i64";
  let v = Int64.to_int (Bytes.get_int64_be r.data r.pos) in
  r.pos <- r.pos + 8;
  v

let r_string r =
  let len = r_u32 r in
  need r len "string";
  let s = Bytes.sub_string r.data r.pos len in
  r.pos <- r.pos + len;
  s

let r_opt_string r = match r_u8 r with 0 -> None | _ -> Some (r_string r)

let r_u32_array r =
  let n = r_u32 r in
  Array.init n (fun _ -> r_u32 r)

let r_i64_array r =
  let n = r_u32 r in
  Array.init n (fun _ -> r_i64 r)
