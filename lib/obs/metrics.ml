(* Named metrics registry.  See metrics.mli for the contract. *)

type gauge = { g_name : string; g_read : unit -> float }

type histogram = {
  h_name : string;
  bounds : float array; (* ascending upper bounds; one extra overflow bucket *)
  counts : int array; (* length = Array.length bounds + 1 *)
  mutable h_n : int;
  mutable h_sum : float;
}

type entry = Gauge of gauge | Histogram of histogram

type t = {
  by_name : (string, entry) Hashtbl.t;
  mutable order : string list; (* reverse registration order *)
  owner : Domain.id;  (* instrumentation is single-domain; see metrics.mli *)
}

let create () = { by_name = Hashtbl.create 64; order = []; owner = Domain.self () }

(* Registration is loud: a second registration under the same name is a
   naming bug (e.g. two shards both claiming "disk.data.io_us"), and
   silently shadowing the first instrument would make one of them
   disappear from every reader.  [histogram] is get-or-create and never
   reaches here for an existing name, so this fires only on genuine
   collisions.

   It is also the domain-ownership checkpoint: every instrument reaches
   its engine's registry through here first, so a cell or worker engine
   leaking into another domain trips this guard on its first new
   instrument instead of corrupting the table.  [observe] stays
   guard-free — it is the hot path, and it only ever touches handles this
   registration already vetted. *)
let register t name entry =
  if Domain.self () <> t.owner then
    invalid_arg
      ("Metrics: registration of " ^ name
     ^ " from a domain that does not own this registry (instrumentation is \
        single-domain: give each domain its own engine)");
  if Hashtbl.mem t.by_name name then
    invalid_arg ("Metrics: duplicate registration of " ^ name);
  Hashtbl.add t.by_name name entry;
  t.order <- name :: t.order

let kind_mismatch name = invalid_arg ("Metrics: kind mismatch for " ^ name)

(* Unlike a histogram there is no handle to share, so a second gauge
   under the same name can only mean two writers fighting over it —
   keeping the old closure would silently ignore the new one. *)
let gauge t name read =
  match Hashtbl.find_opt t.by_name name with
  | Some (Gauge _) -> invalid_arg ("Metrics: duplicate registration of " ^ name)
  | Some (Histogram _) -> kind_mismatch name
  | None -> register t name (Gauge { g_name = name; g_read = read })

let histogram t ?(base = 2.0) ?(lo = 1.0) ?(buckets = 24) name =
  match Hashtbl.find_opt t.by_name name with
  | Some (Histogram h) -> h
  | Some _ -> kind_mismatch name
  | None ->
      if base <= 1.0 || lo <= 0.0 || buckets < 1 then
        invalid_arg "Metrics.histogram: need base > 1, lo > 0, buckets >= 1";
      let bounds = Array.init buckets (fun i -> lo *. (base ** float_of_int i)) in
      let h =
        { h_name = name; bounds; counts = Array.make (buckets + 1) 0; h_n = 0; h_sum = 0.0 }
      in
      register t name (Histogram h);
      h

let bucket_of h x =
  (* First bucket whose upper bound admits [x]; binary search not worth it
     for two dozen buckets. *)
  let n = Array.length h.bounds in
  let rec go i = if i >= n || x <= h.bounds.(i) then i else go (i + 1) in
  go 0

let observe h x =
  let i = bucket_of h x in
  h.counts.(i) <- h.counts.(i) + 1;
  h.h_n <- h.h_n + 1;
  h.h_sum <- h.h_sum +. x

let percentile h p =
  if h.h_n = 0 then 0.0
  else begin
    let p = if p < 0.0 then 0.0 else if p > 100.0 then 100.0 else p in
    let target = p /. 100.0 *. float_of_int h.h_n in
    let nb = Array.length h.bounds in
    let rec go i cum =
      if i > nb then h.bounds.(nb - 1)
      else
        let cum = cum + h.counts.(i) in
        if float_of_int cum >= target && h.counts.(i) > 0 then
          (* Overflow bucket has no finite upper bound; report the largest
             finite one — a known-conservative floor. *)
          if i < nb then h.bounds.(i) else h.bounds.(nb - 1)
        else go (i + 1) cum
    in
    go 0 0
  end

let observations h = h.h_n

let read t name =
  match Hashtbl.find_opt t.by_name name with
  | Some (Gauge g) -> g.g_read ()
  | Some (Histogram h) -> h.h_sum
  | None -> raise Not_found

let read_int t name = truncate (read t name)

let find_histogram t name =
  match Hashtbl.find_opt t.by_name name with
  | Some (Histogram h) -> Some h
  | _ -> None
let names t = List.rev t.order

let render t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun name ->
      match Hashtbl.find_opt t.by_name name with
      | None -> ()
      | Some (Gauge g) ->
          Buffer.add_string buf (Printf.sprintf "%-32s %.3f\n" g.g_name (g.g_read ()))
      | Some (Histogram h) ->
          let mean = if h.h_n = 0 then 0.0 else h.h_sum /. float_of_int h.h_n in
          Buffer.add_string buf
            (Printf.sprintf "%-32s n=%d sum=%.1f mean=%.2f\n" h.h_name h.h_n h.h_sum mean);
          Array.iteri
            (fun i n ->
              if n > 0 then
                let label =
                  if i < Array.length h.bounds then
                    Printf.sprintf "<=%.0f" h.bounds.(i)
                  else Printf.sprintf ">%.0f" h.bounds.(Array.length h.bounds - 1)
                in
                Buffer.add_string buf (Printf.sprintf "  %-12s %d\n" label n))
            h.counts)
    (names t);
  Buffer.contents buf
