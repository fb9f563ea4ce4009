(* Profile-driven prefetch tuner.  See tuner.mli for the contract. *)

type candidate = { window : int; chunk : int; lookahead : int; source : string }

let candidate_to_string c =
  Printf.sprintf "w=%d c=%d la=%d src=%s" c.window c.chunk c.lookahead c.source

type outcome = { cand : candidate; profile : Analysis.t; redo_ms : float }

(* A wasted prefetch spent a page transfer fetching nothing the pass read;
   a late one still saved most of the fetch but lost the race.  The
   penalties are in µs so the score stays commensurate with the
   stall-attributed time it mostly consists of. *)
let wasted_penalty_us = 50.0
let late_penalty_us = 12.5

let score (p : Analysis.t) =
  p.Analysis.stall_attributed_us
  +. (wasted_penalty_us *. float_of_int p.Analysis.pf_wasted)
  +. (late_penalty_us *. float_of_int p.Analysis.pf_late)

let order_key o = (o.cand.window, o.cand.chunk, o.cand.lookahead, o.cand.source)

let best outcomes =
  List.fold_left
    (fun acc o ->
      match acc with
      | None -> Some o
      | Some b ->
          let so = score o.profile and sb = score b.profile in
          if so < sb || (so = sb && order_key o < order_key b) then Some o else Some b)
    None outcomes
