type t = { mutable data : int array; mutable len : int }

let create ?(capacity = 16) () = { data = Array.make (Stdlib.max capacity 1) 0; len = 0 }
let length t = t.len

let push t v =
  if t.len = Array.length t.data then begin
    let grown = Array.make (2 * t.len) 0 in
    Array.blit t.data 0 grown 0 t.len;
    t.data <- grown
  end;
  t.data.(t.len) <- v;
  t.len <- t.len + 1

let to_array t = Array.sub t.data 0 t.len
let clear t = t.len <- 0

let is_empty t = t.len = 0
