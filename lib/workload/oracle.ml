(* Keys and table ids are plain ints: hashing one is a mask, not a C
   [caml_hash] over a boxed [(table, key)] tuple, and a committed row keeps
   no tuple alive. *)
module Int_tbl = Deut_sim.Int_tbl
module Db = Deut_core.Db
module Node = Deut_btree.Node

type change = Put of string | Remove
type write = { table : int; key : int; change : change }

(* A table's committed rows in key order, as two flat arrays: the verifier
   reads them by index, and the whole table costs two words per row. *)
type sealed = { keys : int array; values : string array }

type t = {
  committed : string Int_tbl.t Int_tbl.t;  (* table -> key -> value *)
  pending : write list ref Int_tbl.t;  (* txn -> buffered writes, newest first *)
  mutable queued : write list list;
      (* group-commit tail: committed but not yet durable, newest first *)
  mutable version : int;  (* bumped on every [committed] mutation *)
  sealed : (int * sealed) Int_tbl.t;
      (* table -> (version, sorted rows); [verify] runs once per recovery
         method against the same oracle state, so the sort over the whole
         committed table is paid once, not five times *)
}

let create () =
  {
    committed = Int_tbl.create 8;
    pending = Int_tbl.create 16;
    queued = [];
    version = 0;
    sealed = Int_tbl.create 8;
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

let committed_value t ~table ~key =
  match Int_tbl.find_opt t.committed table with
  | Some rows -> Int_tbl.find_opt rows key
  | None -> None

(* The keys are sorted alone, then each value is looked up once.  A merge
   sort: [Array.sort]'s heap sort took over twice as long on a 770k-key
   table. *)
let sealed t ~table =
  match Int_tbl.find_opt t.sealed table with
  | Some (v, s) when v = t.version -> s
  | _ ->
      let s =
        match Int_tbl.find_opt t.committed table with
        | None -> { keys = [||]; values = [||] }
        | Some rows ->
            let keys = Array.make (Int_tbl.length rows) 0 in
            let i = ref 0 in
            Int_tbl.iter
              (fun k _ ->
                keys.(!i) <- k;
                incr i)
              rows;
            Array.stable_sort Int.compare keys;
            { keys; values = Array.map (Int_tbl.find rows) keys }
      in
      Int_tbl.replace t.sealed table (t.version, s);
      s

(* After sealing, [sealed] (and so [verify]) is a pure read as long as the
   committed state stays untouched — the invariant that lets several
   domains verify recoveries against one shared oracle concurrently.
   Sealing is not a lock: any later mutation (another commit, a [force])
   bumps [version] and the next lookup sorts again. *)
let seal t = Int_tbl.iter (fun table _ -> ignore (sealed t ~table)) t.committed

(* The rows [shard] owns under the router's striping, in key order: on a
   single shard, the sealed arrays themselves. *)
let stripe ~shards ~table ~shard ({ keys; values } as rows) =
  if shards = 1 then rows
  else
    let route = Deut_core.Dc_access.striped ~shards in
    let owned =
      List.filter
        (fun j -> route ~table ~key:keys.(j) = shard)
        (List.init (Array.length keys) Fun.id)
      |> Array.of_list
    in
    { keys = Array.map (Array.get keys) owned; values = Array.map (Array.get values) owned }

(* Shard by shard, the leaves are compared in place against that shard's
   stripe of the sealed rows, in step with its leaf chain, so the check
   fetches the same leaves in the same order as a table scan.  No row is
   copied out except the first differing one, to print it.  A cell outside
   its page is reported first, then a count mismatch, then the first
   differing pair. *)
let verify t db ~tables =
  let check_table table =
    let rows = sealed t ~table in
    let recovered = ref 0 and first_diff = ref None and fault = ref None in
    let shards = Db.shard_count db in
    for shard = 0 to shards - 1 do
      let { keys; values } = stripe ~shards ~table ~shard rows in
      let pos = ref 0 in
      Db.iter_leaves db ~table ~shard (fun page ->
          if Option.is_none !fault then begin
            (match Node.match_leaf page ~keys ~values ~pos:!pos with
            | Node.Cell_outside slot -> fault := Some (page.Deut_storage.Page.pid, slot)
            | Node.Differs slot when Option.is_none !first_diff ->
                let j = !pos + slot in
                let committed =
                  if j < Array.length keys then Some (keys.(j), values.(j)) else None
                in
                first_diff :=
                  Some (shard, Node.slot_key page slot, Node.leaf_value page slot, committed)
            | Node.Same | Node.Differs _ -> ());
            pos := !pos + Node.nslots page
          end);
      recovered := !recovered + !pos
    done;
    let n = Array.length rows.keys in
    match (!fault, !first_diff) with
    | Some (pid, slot), _ ->
        Error (Printf.sprintf "table %d: leaf %d slot %d lies outside its page" table pid slot)
    | None, _ when !recovered <> n ->
        Error (Printf.sprintf "table %d: %d entries recovered, %d committed" table !recovered n)
    | None, Some (_, k, v, Some (k', v')) ->
        Error (Printf.sprintf "table %d: recovered (%d,%S) but committed (%d,%S)" table k v k' v')
    | None, Some (shard, k, v, None) ->
        Error
          (Printf.sprintf "table %d: recovered (%d,%S) past the end of shard %d's committed keys"
             table k v shard)
    | None, None -> Ok ()
  in
  let rec go = function
    | [] -> Ok ()
    | table :: rest -> ( match check_table table with Ok () -> go rest | Error _ as e -> e)
  in
  go tables
