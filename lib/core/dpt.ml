module Lsn = Deut_wal.Lsn
module Trace = Deut_obs.Trace

type entry = { mutable rlsn : Lsn.t; mutable last_lsn : Lsn.t }
type t = (int, entry) Hashtbl.t

let create () : t = Hashtbl.create 256
let size = Hashtbl.length
let mem = Hashtbl.mem

let find t pid =
  Option.map (fun e -> (e.rlsn, e.last_lsn)) (Hashtbl.find_opt t pid)

let add t ~pid ~lsn =
  match Hashtbl.find_opt t pid with
  | Some e ->
      if lsn > e.last_lsn then e.last_lsn <- lsn;
      false
  | None ->
      Hashtbl.replace t pid { rlsn = lsn; last_lsn = lsn };
      true

let add_exact t ~pid ~rlsn ~last_lsn = Hashtbl.replace t pid { rlsn; last_lsn }

let prune ?trace t pid =
  Hashtbl.remove t pid;
  match trace with
  | Some tr ->
      Trace.instant tr ~name:"dpt_prune" ~cat:"recovery" ~track:Trace.track_recovery
        ~args:[ ("pid", pid) ] ()
  | None -> ()

(* The paper's Algorithm 3 removes on lastLSN ≤ FW-LSN, with
   record-numbered LSNs.  Our LSNs are byte offsets, so FW-LSN (an
   end-of-stable-log) is EXCLUSIVE: a record starting exactly at FW-LSN was
   appended after the first write and is not covered by the flush — the
   test must be strict.  (Algorithm 4 is already written with a strict <.) *)
let apply_flush ?trace t ~pid ~fw_lsn =
  match Hashtbl.find_opt t pid with
  | Some e when e.last_lsn < fw_lsn -> prune ?trace t pid
  | Some e when e.rlsn < fw_lsn -> e.rlsn <- fw_lsn
  | Some _ | None -> ()

let min_rlsn t =
  Hashtbl.fold (fun _ e acc -> if Lsn.is_nil acc then e.rlsn else Lsn.min acc e.rlsn) t Lsn.nil

let entries_by_rlsn t =
  Hashtbl.fold (fun pid e acc -> (pid, e.rlsn) :: acc) t []
  |> List.sort (fun (_, a) (_, b) -> Lsn.compare a b)
  |> List.map fst
