type t = int

let nil = -1
let is_nil t = t < 0
let compare = Int.compare
let max = Stdlib.max
let min = Stdlib.min
let to_string t = if is_nil t then "nil" else string_of_int t
