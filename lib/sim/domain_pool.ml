type t = { domains : int }

let create ~domains =
  if domains < 1 then invalid_arg "Domain_pool.create: domains must be >= 1";
  { domains }

let size t = t.domains

(* Spawn-per-batch rather than a persistent worker queue: a [map] spawns at
   most [min size (List.length items)] domains, each pulling item indices
   from a mutex-guarded counter, and joins them all before returning.  Two
   reasons over a long-lived pool: (1) no nested-submission deadlock — a
   task may itself create a pool and [map] without reserving workers;
   (2) spawn cost (~tens of µs) is noise at the granularity we fan out
   (multi-second bench cells). *)
let map t f items =
  let arr = Array.of_list items in
  let n = Array.length arr in
  if t.domains <= 1 || n <= 1 then List.map f items
  else begin
    let results = Array.make n None in
    let errors = Array.make n None in
    let next = ref 0 in
    let m = Mutex.create () in
    let take () =
      Mutex.lock m;
      let i = !next in
      if i < n then incr next;
      Mutex.unlock m;
      if i < n then Some i else None
    in
    let worker () =
      let rec loop () =
        match take () with
        | None -> ()
        | Some i ->
            (match f arr.(i) with
            | r -> results.(i) <- Some r
            | exception e ->
                errors.(i) <- Some (e, Printexc.get_raw_backtrace ()));
            loop ()
      in
      loop ()
    in
    let spawned = Stdlib.min t.domains n in
    let handles = Array.init spawned (fun _ -> Domain.spawn worker) in
    Array.iter Domain.join handles;
    (* Re-raise the first failure in input order, so error behaviour is
       independent of domain scheduling. *)
    Array.iter
      (function
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt | None -> ())
      errors;
    Array.to_list (Array.map (function Some r -> r | None -> assert false) results)
  end
