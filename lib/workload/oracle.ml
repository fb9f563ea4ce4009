(* Keys and table ids are plain ints: hashing one is a mask, not a C
   [caml_hash] over a boxed [(table, key)] tuple, and a committed row keeps
   no tuple alive. *)
module Int_tbl = Deut_sim.Int_tbl

type change = Put of string | Remove
type write = { table : int; key : int; change : change }

type t = {
  committed : string Int_tbl.t Int_tbl.t;  (* table -> key -> value *)
  pending : write list ref Int_tbl.t;  (* txn -> buffered writes, newest first *)
  mutable queued : write list list;
      (* group-commit tail: committed but not yet durable, newest first *)
  mutable version : int;  (* bumped on every [committed] mutation *)
  entries_cache : (int * (int * string) list) Int_tbl.t;
      (* table -> (version, sorted entries); [verify] runs once per recovery
         method against the same oracle state, so the sort over the whole
         committed table is paid once, not five times *)
}

let create () =
  {
    committed = Int_tbl.create 8;
    pending = Int_tbl.create 16;
    queued = [];
    version = 0;
    entries_cache = Int_tbl.create 8;
  }

let begin_txn t txn = Int_tbl.replace t.pending txn (ref [])

let buffer t ~txn w =
  match Int_tbl.find_opt t.pending txn with
  | Some changes -> changes := w :: !changes
  | None -> invalid_arg "Oracle: transaction not begun"

let buffer_put t ~txn ~table ~key ~value = buffer t ~txn { table; key; change = Put value }
let buffer_delete t ~txn ~table ~key = buffer t ~txn { table; key; change = Remove }

let apply t { table; key; change } =
  let rows =
    match Int_tbl.find_opt t.committed table with
    | Some rows -> rows
    | None ->
        let rows = Int_tbl.create 4096 in
        Int_tbl.replace t.committed table rows;
        rows
  in
  match change with Put v -> Int_tbl.replace rows key v | Remove -> Int_tbl.remove rows key

let take_pending t ~txn what =
  match Int_tbl.find_opt t.pending txn with
  | None -> invalid_arg (what ^ ": transaction not begun")
  | Some changes ->
      Int_tbl.remove t.pending txn;
      List.rev !changes

let commit t ~txn =
  let changes = take_pending t ~txn "Oracle.commit" in
  t.version <- t.version + 1;
  List.iter (apply t) changes

let abort t ~txn = Int_tbl.remove t.pending txn

let commit_queued t ~txn =
  t.queued <- take_pending t ~txn "Oracle.commit_queued" :: t.queued

let force t =
  if t.queued <> [] then t.version <- t.version + 1;
  List.iter (List.iter (apply t)) (List.rev t.queued);
  t.queued <- []

let queued_commits t = List.length t.queued

let committed_value t ~table ~key =
  match Int_tbl.find_opt t.committed table with
  | Some rows -> Int_tbl.find_opt rows key
  | None -> None

let committed_entries t ~table =
  match Int_tbl.find_opt t.entries_cache table with
  | Some (v, entries) when v = t.version -> entries
  | _ ->
      let entries =
        match Int_tbl.find_opt t.committed table with
        | None -> []
        | Some rows ->
            let arr = Array.make (Int_tbl.length rows) (0, "") in
            let i = ref 0 in
            Int_tbl.iter
              (fun k v ->
                arr.(!i) <- (k, v);
                incr i)
              rows;
            Array.stable_sort (fun (a, _) (b, _) -> Int.compare a b) arr;
            Array.to_list arr
      in
      Int_tbl.replace t.entries_cache table (t.version, entries);
      entries

(* Pre-compute the sorted-entry cache for every table with committed data.
   After sealing, [committed_entries] (and so [verify]) is a pure read as
   long as the committed state stays untouched — the invariant that lets
   several domains verify recoveries against one shared oracle
   concurrently.  Sealing is not a lock: any later mutation (another
   commit, a [force]) bumps [version] and the next lookup recomputes. *)
let seal t = Int_tbl.iter (fun table _ -> ignore (committed_entries t ~table)) t.committed

let entry_count t ~table =
  match Int_tbl.find_opt t.committed table with Some rows -> Int_tbl.length rows | None -> 0

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
