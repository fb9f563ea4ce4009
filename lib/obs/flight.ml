(* Always-on bounded flight recorder.  See flight.mli for the contract. *)

type kind = Send | Recv | Handle | Force | Ckpt | Phase | Crash

let kind_to_string = function
  | Send -> "send"
  | Recv -> "recv"
  | Handle -> "handle"
  | Force -> "force"
  | Ckpt -> "ckpt"
  | Phase -> "phase"
  | Crash -> "crash"

type entry = {
  e_seq : int;
  e_ts : float;
  e_comp : int;
  e_kind : kind;
  e_what : string;
  e_mid : int;
  e_lsn : int;
}

type t = {
  now : unit -> float;
  capacity : int;
  rings : entry array array;  (* indexed by component + 1; slot 0 is the TC *)
  totals : int array;
  mutable seq : int;
  owner : Domain.id;  (* instrumentation is single-domain; see flight.mli *)
}

let tc = -1

let dummy =
  { e_seq = 0; e_ts = 0.0; e_comp = 0; e_kind = Phase; e_what = ""; e_mid = -1; e_lsn = -1 }

let create ~now ~components ?(capacity = 128) () =
  if components < 1 then invalid_arg "Flight.create: need at least one component";
  if capacity < 1 then invalid_arg "Flight.create: capacity must be positive";
  {
    now;
    capacity;
    rings = Array.init (components + 1) (fun _ -> Array.make capacity dummy);
    totals = Array.make (components + 1) 0;
    seq = 0;
    owner = Domain.self ();
  }

(* O(1), allocates one record, never reads or advances the simulated
   clock beyond sampling it — recording cannot perturb the run.  The
   ownership guard keeps a cross-domain recording a loud error rather
   than a torn [seq] (two domains racing it would interleave rings). *)
let record t ~comp kind what ?(mid = -1) ?(lsn = -1) () =
  if Domain.self () <> t.owner then
    invalid_arg
      ("Flight.record: '" ^ what
     ^ "' recorded from a domain that does not own this recorder \
        (instrumentation is single-domain: give each domain its own engine)");
  let slot = comp + 1 in
  if slot < 0 || slot >= Array.length t.rings then
    invalid_arg (Printf.sprintf "Flight.record: unknown component %d" comp);
  let n = t.totals.(slot) in
  t.rings.(slot).(n mod t.capacity) <-
    { e_seq = t.seq; e_ts = t.now (); e_comp = comp; e_kind = kind; e_what = what; e_mid = mid;
      e_lsn = lsn };
  t.totals.(slot) <- n + 1;
  t.seq <- t.seq + 1

(* ---------- snapshots ---------- *)

(* A snapshot is an immutable deep copy: it rides inside a crash image, so
   later activity on the live recorder must not show through. *)
type snapshot = {
  s_capacity : int;
  s_recorded : int;
  s_entries : entry list array;  (* per slot, oldest first *)
  s_totals : int array;
}

let snapshot t =
  let entries_of slot =
    let total = t.totals.(slot) in
    let n = min total t.capacity in
    let first = total - n in
    List.init n (fun i -> t.rings.(slot).((first + i) mod t.capacity))
  in
  {
    s_capacity = t.capacity;
    s_recorded = t.seq;
    s_entries = Array.init (Array.length t.rings) entries_of;
    s_totals = Array.copy t.totals;
  }

let snapshot_components s = Array.length s.s_entries - 1

let comp_label = function -1 -> "tc" | c -> Printf.sprintf "shard %d" c

let entry_line e =
  let tail =
    (if e.e_mid >= 0 then Printf.sprintf " mid=%d" e.e_mid else "")
    ^ if e.e_lsn >= 0 then Printf.sprintf " lsn=%d" e.e_lsn else ""
  in
  Printf.sprintf "  #%06d %12.3f  %-6s %s%s" e.e_seq e.e_ts (kind_to_string e.e_kind)
    e.e_what tail

(* Deterministic text dump: per-component recent history, then every
   causal id stitched across components.  Same seed, same bytes. *)
let render s =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "flight recorder: %d component(s) + tc, capacity %d/component, %d event(s) recorded\n"
       (snapshot_components s) s.s_capacity s.s_recorded);
  Array.iteri
    (fun slot entries ->
      let comp = slot - 1 in
      let total = s.s_totals.(slot) in
      Buffer.add_string buf
        (Printf.sprintf "\n[%s] last %d of %d event(s)\n" (comp_label comp)
           (List.length entries) total);
      List.iter (fun e -> Buffer.add_string buf (entry_line e ^ "\n")) entries)
    s.s_entries;
  (* Causal resolution: group the retained events by message id and print
     each chain in sequence order, so a send on the TC lines up with the
     handle on its shard and the reply's receipt. *)
  let by_mid = Hashtbl.create 64 in
  Array.iter
    (List.iter (fun e ->
         if e.e_mid >= 0 then
           Hashtbl.replace by_mid e.e_mid
             (e :: Option.value (Hashtbl.find_opt by_mid e.e_mid) ~default:[])))
    s.s_entries;
  let mids = List.sort compare (Hashtbl.fold (fun mid _ acc -> mid :: acc) by_mid []) in
  if mids <> [] then begin
    Buffer.add_string buf "\ncausal chains (message id -> hops, sequence order):\n";
    List.iter
      (fun mid ->
        let chain =
          List.sort
            (fun a b -> compare a.e_seq b.e_seq)
            (Hashtbl.find by_mid mid)
        in
        Buffer.add_string buf
          (Printf.sprintf "  mid %d: %s\n" mid
             (String.concat " -> "
                (List.map
                   (fun e ->
                     Printf.sprintf "%s %s [%s] @%.3f" (kind_to_string e.e_kind) e.e_what
                       (comp_label e.e_comp) e.e_ts)
                   chain))))
      mids
  end;
  Buffer.contents buf
