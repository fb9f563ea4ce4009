(* The benchmark's result line: named metrics with units, serialised as one
   JSON object.  run.py parses it back and checks it against BENCHMARK.json. *)

type metric = { name : string; unit_ : string; value : float }

type result = { correct : bool; attempted : int; failed : int; metrics : metric list }

let is_name_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_' || c = '.'
  || c = '-'

let is_alnum c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

(* Metric and workload names: a letter or digit first, then at most 63
   more of letters, digits, '_', '.' and '-'. *)
let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64 && is_alnum s.[0] && String.for_all is_name_char s

(* Units: 1 to 16 of letters, digits, '_', '/', '%', '.' and '-'. *)
let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16 && String.for_all (fun c -> is_name_char c || c = '/' || c = '%') s

(* Every digit the value has: the shortest %g form that reads back to the
   same float. *)
let number v =
  if not (Float.is_finite v) then invalid_arg "Report.number: not finite";
  let rec go prec =
    let s = Printf.sprintf "%.*g" prec v in
    if prec >= 17 || float_of_string s = v then s else go (prec + 1)
  in
  go 15

let to_json r =
  List.iter
    (fun m ->
      if not (valid_name m.name) then invalid_arg ("Report: bad metric name " ^ m.name);
      if not (valid_unit m.unit_) then invalid_arg ("Report: bad unit " ^ m.unit_))
    r.metrics;
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {" r.correct
    r.attempted r.failed;
  List.iteri
    (fun i m ->
      Printf.bprintf b "%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}"
        (if i = 0 then "" else ", ")
        m.name (number m.value) m.unit_)
    r.metrics;
  Buffer.add_string b "}}";
  Buffer.contents b
