(* Wall-clock measurement for the benchmark: a monotonic clock, sample
   statistics, the span recorder behind the traced run, and the GC policy
   every timed sample starts from. *)

let now_ns () = Monotonic_clock.now ()
let ms_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6

(* Run [f], returning its result and its wall time in ms. *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, ms_between t0 (now_ns ()))

(* ---------- sample statistics ---------- *)

(* Nearest-rank percentile of an unsorted sample ([p] in (0, 100]). *)
let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Wall.percentile: empty sample";
  let s = Array.copy xs in
  Array.sort Float.compare s;
  let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  s.(Stdlib.max 0 (Stdlib.min (n - 1) (rank - 1)))

let median xs = percentile xs 50.0

(* The highest percentile of the ladder that still has at least ten samples
   beyond it — the tail a sample of [n] can support.  [None] when even the
   median has fewer than ten above it. *)
let supported_tail n =
  List.find_opt
    (fun p -> float_of_int n *. (100.0 -. p) /. 100.0 >= 10.0 -. 1e-9)
    [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]

(* ---------- spans ---------- *)

(* A span is one call into a layer, recorded from the benchmark's side of
   the API.  Spans nest by call structure: each records the span that was
   open when it started.  A disabled recorder runs [f] untouched — no
   clock reads — so the untraced run pays nothing for it. *)
type span = { id : int; parent : int; name : string; t0 : int64; mutable t1 : int64 }

type spans = {
  enabled : bool;
  mutable recorded : span list;  (* newest first *)
  mutable open_ : int list;  (* ids of the open spans, innermost first *)
  mutable next : int;
}

let recorder ~enabled = { enabled; recorded = []; open_ = []; next = 0 }

let span t name f =
  if not t.enabled then f ()
  else begin
    let s =
      {
        id = t.next;
        parent = (match t.open_ with p :: _ -> p | [] -> -1);
        name;
        t0 = now_ns ();
        t1 = 0L;
      }
    in
    t.next <- t.next + 1;
    t.recorded <- s :: t.recorded;
    t.open_ <- s.id :: t.open_;
    let close () =
      s.t1 <- now_ns ();
      t.open_ <- List.tl t.open_
    in
    match f () with
    | r ->
        close ();
        r
    | exception e ->
        close ();
        raise e
  end

(* Self time: the span's duration minus the part of its interval that its
   children cover.  Overlapping children count once; a child that outlives
   the parent counts only inside it. *)
let self_ns ~t0 ~t1 children =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Stdlib.max a t0 and b = Stdlib.min b t1 in
        if Int64.compare b a > 0 then Some (a, b) else None)
      children
    |> List.sort compare
  in
  let covered, last =
    List.fold_left
      (fun (acc, cur) (a, b) ->
        match cur with
        | Some (ca, cb) when Int64.compare a cb <= 0 -> (acc, Some (ca, Stdlib.max cb b))
        | Some (ca, cb) -> (Int64.add acc (Int64.sub cb ca), Some (a, b))
        | None -> (acc, Some (a, b)))
      (0L, None) clipped
  in
  let covered = match last with Some (a, b) -> Int64.add covered (Int64.sub b a) | None -> covered in
  Int64.sub (Int64.sub t1 t0) covered

(* Per-name self times in ms, one entry per recorded span, oldest first. *)
let self_times t =
  let spans = List.rev t.recorded in
  let children = Hashtbl.create 64 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent (s.t0, s.t1))
    spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self = self_ns ~t0:s.t0 ~t1:s.t1 (Hashtbl.find_all children s.id) in
      let prev = Option.value (Hashtbl.find_opt by_name s.name) ~default:[] in
      Hashtbl.replace by_name s.name (Int64.to_float self /. 1e6 :: prev))
    spans;
  fun name -> Array.of_list (List.rev (Option.value (Hashtbl.find_opt by_name name) ~default:[]))

(* Whole durations in ms per recorded span of [name], oldest first. *)
let durations t name =
  List.rev t.recorded
  |> List.filter (fun s -> s.name = name)
  |> List.map (fun s -> ms_between s.t0 s.t1)
  |> Array.of_list

(* ---------- GC policy ---------- *)

(* Pinned GC parameters, set before anything is built so every run starts
   from the same runtime configuration whatever OCAMLRUNPARAM says.  A 32 MB
   minor heap makes minor collections (and the major slices they trigger)
   rare enough that they do not decide a batch's p99. *)
let minor_heap_words = 4_194_304
let space_overhead = 120

let pin_gc () =
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = minor_heap_words; space_overhead }

(* Heap policy: every timed sample starts from a collected heap, so it
   never pays for the garbage the previous sample (or the verifier) left
   behind.  Garbage found by one major cycle is swept during the next, so
   two cycles leave nothing pending at about half the cost of a full
   major.  The collection is outside the timed region. *)
let settle () =
  Gc.major ();
  Gc.major ()

type gc_mark = { words : float; majors : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  { words = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words; majors = s.Gc.major_collections }

let word_mb = float_of_int (Sys.word_size / 8) /. 1_048_576.0

(* Allocation (MB) and major collections since [m]. *)
let gc_since m =
  let n = gc_mark () in
  ((n.words -. m.words) *. word_mb, n.majors - m.majors)

let peak_heap_mb () = float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. word_mb
