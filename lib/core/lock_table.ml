type mode = Shared | Exclusive

(* Per-key state: either any number of sharers, or one exclusive owner. *)
type entry = { mutable owners : (int * mode) list }

type t = {
  locks : (int * int, entry) Hashtbl.t;  (* (table, key) -> holders *)
  by_txn : (int, (int * int) list ref) Hashtbl.t;  (* txn -> keys it holds *)
  mutable conflicts : int;  (* acquisitions refused under no-wait *)
}

let create () = { locks = Hashtbl.create 1024; by_txn = Hashtbl.create 32; conflicts = 0 }

let note_held t ~txn addr =
  match Hashtbl.find_opt t.by_txn txn with
  | Some keys -> keys := addr :: !keys
  | None -> Hashtbl.replace t.by_txn txn (ref [ addr ])

let acquire t ~txn ~table ~key mode =
  let addr = (table, key) in
  match Hashtbl.find_opt t.locks addr with
  | None ->
      Hashtbl.replace t.locks addr { owners = [ (txn, mode) ] };
      note_held t ~txn addr;
      Ok ()
  | Some entry -> (
      let mine = List.assoc_opt txn entry.owners in
      let others = List.filter (fun (owner, _) -> owner <> txn) entry.owners in
      match (mode, mine, others) with
      | _, Some Exclusive, _ ->
          (* Already exclusive: covers both requests. *)
          Ok ()
      | Shared, Some Shared, _ -> Ok ()
      | Shared, None, _ when List.for_all (fun (_, m) -> m = Shared) others ->
          entry.owners <- (txn, Shared) :: entry.owners;
          note_held t ~txn addr;
          Ok ()
      | Exclusive, Some Shared, [] ->
          (* Sole sharer: upgrade in place. *)
          entry.owners <- [ (txn, Exclusive) ];
          Ok ()
      | Exclusive, None, [] ->
          entry.owners <- [ (txn, Exclusive) ];
          note_held t ~txn addr;
          Ok ()
      | _, _, (holder, _) :: _ ->
          t.conflicts <- t.conflicts + 1;
          Error holder
      | _, _, [] -> Error txn (* unreachable: no others yet not grantable *))

let release_all t ~txn =
  match Hashtbl.find_opt t.by_txn txn with
  | None -> ()
  | Some keys ->
      List.iter
        (fun addr ->
          match Hashtbl.find_opt t.locks addr with
          | None -> ()
          | Some entry ->
              entry.owners <- List.filter (fun (owner, _) -> owner <> txn) entry.owners;
              if entry.owners = [] then Hashtbl.remove t.locks addr)
        !keys;
      Hashtbl.remove t.by_txn txn

let locked_keys t = Hashtbl.length t.locks
let conflicts t = t.conflicts
