type change = Put of string | Remove

type t = {
  committed : (int * int, string) Hashtbl.t;  (* (table, key) -> value *)
  pending : (int, ((int * int) * change) list ref) Hashtbl.t;  (* txn -> buffered writes *)
  mutable queued : ((int * int) * change) list list;
      (* group-commit tail: committed but not yet durable, newest first *)
  mutable version : int;  (* bumped on every [committed] mutation *)
  entries_cache : (int, int * (int * string) list) Hashtbl.t;
      (* table -> (version, sorted entries); [verify] runs once per recovery
         method against the same oracle state, so the fold+sort over the
         whole committed table is paid once, not five times *)
}

let create () =
  {
    committed = Hashtbl.create 4096;
    pending = Hashtbl.create 16;
    queued = [];
    version = 0;
    entries_cache = Hashtbl.create 8;
  }
let begin_txn t txn = Hashtbl.replace t.pending txn (ref [])

let buffer t ~txn entry =
  match Hashtbl.find_opt t.pending txn with
  | Some changes -> changes := entry :: !changes
  | None -> invalid_arg "Oracle: transaction not begun"

let buffer_put t ~txn ~table ~key ~value = buffer t ~txn ((table, key), Put value)
let buffer_delete t ~txn ~table ~key = buffer t ~txn ((table, key), Remove)

let commit t ~txn =
  match Hashtbl.find_opt t.pending txn with
  | None -> invalid_arg "Oracle.commit: transaction not begun"
  | Some changes ->
      t.version <- t.version + 1;
      List.iter
        (fun (addr, change) ->
          match change with
          | Put v -> Hashtbl.replace t.committed addr v
          | Remove -> Hashtbl.remove t.committed addr)
        (List.rev !changes);
      Hashtbl.remove t.pending txn

let abort t ~txn = Hashtbl.remove t.pending txn

let commit_queued t ~txn =
  match Hashtbl.find_opt t.pending txn with
  | None -> invalid_arg "Oracle.commit_queued: transaction not begun"
  | Some changes ->
      t.queued <- List.rev !changes :: t.queued;
      Hashtbl.remove t.pending txn

let force t =
  if t.queued <> [] then t.version <- t.version + 1;
  List.iter
    (fun changes ->
      List.iter
        (fun (addr, change) ->
          match change with
          | Put v -> Hashtbl.replace t.committed addr v
          | Remove -> Hashtbl.remove t.committed addr)
        changes)
    (List.rev t.queued);
  t.queued <- []

let queued_commits t = List.length t.queued

let committed_value t ~table ~key = Hashtbl.find_opt t.committed (table, key)

let committed_entries t ~table =
  match Hashtbl.find_opt t.entries_cache table with
  | Some (v, entries) when v = t.version -> entries
  | _ ->
      let entries =
        Hashtbl.fold
          (fun (tbl, key) v acc -> if tbl = table then (key, v) :: acc else acc)
          t.committed []
        |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
      in
      Hashtbl.replace t.entries_cache table (t.version, entries);
      entries

(* Pre-compute the sorted-entry cache for every table with committed data.
   After sealing, [committed_entries] (and so [verify]) is a pure read as
   long as the committed state stays untouched — the invariant that lets
   several domains verify recoveries against one shared oracle
   concurrently.  Sealing is not a lock: any later mutation (another
   commit, a [force]) bumps [version] and the next lookup recomputes. *)
let seal t =
  let tables = Hashtbl.create 8 in
  Hashtbl.iter (fun (table, _) _ -> Hashtbl.replace tables table ()) t.committed;
  Hashtbl.iter (fun table () -> ignore (committed_entries t ~table)) tables

let entry_count t ~table =
  Hashtbl.fold (fun (tbl, _) _ n -> if tbl = table then n + 1 else n) t.committed 0

(* Streamed: the recovered rows are folded against the sealed, sorted
   committed list as a cursor, so no recovered-side list is built.  The
   fold walks the same leaves as [Db.dump_table], so the check makes the
   same pool traffic.  A count mismatch is reported before the first
   differing pair. *)
let verify t db ~tables =
  let check_table table =
    let expected = committed_entries t ~table in
    let n_act = ref 0 and n_paired = ref 0 and first_diff = ref None in
    let unmatched =
      Deut_core.Db.fold_table db ~table ~init:expected ~f:(fun cursor k v ->
          incr n_act;
          match cursor with
          | [] -> []
          | ((k', v') as committed) :: rest ->
              incr n_paired;
              if Option.is_none !first_diff && not (Int.equal k k' && String.equal v v') then
                first_diff := Some ((k, v), committed);
              rest)
    in
    let n_exp = !n_paired + List.length unmatched in
    if n_exp <> !n_act then
      Error (Printf.sprintf "table %d: %d entries recovered, %d committed" table !n_act n_exp)
    else
      match !first_diff with
      | Some ((k1, v1), (k2, v2)) ->
          Error
            (Printf.sprintf "table %d: recovered (%d,%S) but committed (%d,%S)" table k1 v1 k2 v2)
      | None -> Ok ()
  in
  let rec go = function
    | [] -> Ok ()
    | table :: rest -> ( match check_table table with Ok () -> go rest | Error _ as e -> e)
  in
  go tables
