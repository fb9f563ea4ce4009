module Page = Deut_storage.Page
module Pool = Deut_buffer.Buffer_pool
module Lr = Deut_wal.Log_record
module Lsn = Deut_wal.Lsn

type t = {
  pool : Pool.t;
  table : int;
  log_smo : Lr.smo -> Lsn.t;
  merge_allowed : bool ref;
      (* Opportunistic merging is maintenance, not recovery work: redo
         passes disable it so opportunistic reorganisation cannot
         interleave with the replay of logged SMOs. *)
}

let catalog_pid = 0
let pool_of t = t.pool

let capture_image (page : Page.t) =
  (page.Page.pid, Page.get_bytes page ~off:0 ~len:(Page.size page))

(* Log an SMO as one atomic batch of after-images.  The [log_smo] callback
   owns appending AND stamping/dirtying the touched pages in the DC pLSN
   domain (see [Dc.log_smo]); images therefore capture the final TC pLSNs,
   which is what the transactional redo test needs when an image is
   reinstalled. *)
let log_smo_and_stamp ~pool:_ ~log_smo kind pages =
  let images = Array.of_list (List.map capture_image pages) in
  ignore (log_smo { Lr.kind; pages = images })

(* What a [log_smo] callback must do after appending: used by [Dc] and by
   test harnesses that drive the B-tree without a data component. *)
let stamp_smo pool (smo : Lr.smo) ~lsn =
  Array.iter
    (fun (pid, _) -> Pool.mark_dirty_dc pool ~pid ~dc_lsn:lsn ~event_lsn:lsn)
    smo.Lr.pages

let format_store ~pool ~log_smo =
  let catalog = Pool.new_page pool Page.Meta in
  if catalog.Page.pid <> catalog_pid then
    invalid_arg "Btree.format_store: store is not fresh (catalog pid taken)";
  Catalog.init catalog;
  log_smo_and_stamp ~pool ~log_smo Lr.Catalog [ catalog ]

let create ?(merge_allowed = ref true) ~pool ~table ~log_smo () =
  let catalog = Pool.get pool catalog_pid in
  (match Catalog.find_root catalog ~table with
  | Some _ -> invalid_arg (Printf.sprintf "Btree.create: table %d already exists" table)
  | None -> ());
  let root = Pool.new_page pool Page.Btree_leaf in
  Node.init root ~level:0;
  Catalog.set_root catalog ~table ~root:root.Page.pid;
  log_smo_and_stamp ~pool ~log_smo Lr.Catalog [ root; catalog ];
  { pool; table; log_smo; merge_allowed }

let open_existing ?(merge_allowed = ref true) ~pool ~table ~log_smo () =
  let catalog = Pool.get pool catalog_pid in
  match Catalog.find_root catalog ~table with
  | Some _ -> { pool; table; log_smo; merge_allowed }
  | None -> raise Not_found

let root_pid t =
  let catalog = Pool.get t.pool catalog_pid in
  match Catalog.find_root catalog ~table:t.table with
  | Some root -> root
  | None -> failwith (Printf.sprintf "Btree: table %d missing from catalog" t.table)

let height t =
  let rec go pid acc =
    let page = Pool.get t.pool pid in
    if Node.is_leaf page then acc else go (Node.leftmost_child page) (acc + 1)
  in
  go (root_pid t) 1

(* Root-to-leaf descent; returns the internal pids on the path (root first)
   and the leaf pid.  Only internal pages are fetched: a level-1 node's
   children are known to be leaves, so the leaf itself is never touched —
   the caller decides whether (and when) to fetch it, which is what lets
   the DPT test of Algorithm 5 skip the leaf IO entirely. *)
let path_to_leaf t key =
  let rec go pid acc =
    let page = Pool.get t.pool pid in
    if Node.is_leaf page then (List.rev acc, pid)
    else
      let child = Node.route page key in
      if Node.level page = 1 then (List.rev (pid :: acc), child) else go child (pid :: acc)
  in
  go (root_pid t) []

let locate_leaf t ~key = snd (path_to_leaf t key)

let lookup t ~key =
  let leaf = Pool.get t.pool (locate_leaf t ~key) in
  match Node.search leaf key with
  | `Found slot -> Some (Node.leaf_value leaf slot)
  | `Not_found _ -> None

(* Split machinery.  All pages touched by one SMO are pinned for its
   duration, then logged as a single record and unpinned. *)

type smo_ctx = { mutable pinned : int list; mutable touched : Page.t list }

let get_pinned ctx pool pid =
  let page = Pool.get pool ~pin:true pid in
  ctx.pinned <- pid :: ctx.pinned;
  page

let fresh_pinned ctx pool kind ~level =
  let page = Pool.new_page pool kind in
  Node.init page ~level;
  Pool.pin pool page.Page.pid;
  ctx.pinned <- page.Page.pid :: ctx.pinned;
  page

let touch ctx page = if not (List.memq page ctx.touched) then ctx.touched <- page :: ctx.touched

(* Insert separator [sep] pointing at [child] into the parent chain
   [up_path] (nearest parent first); [below] is the left node of the split
   one level down.  Recursion propagates promoted keys upward; an empty
   path means [below] was the root and a new root is made. *)
let rec insert_sep t ctx up_path ~below ~sep ~child =
  match up_path with
  | [] ->
      let below_page = get_pinned ctx t.pool below in
      let new_root =
        fresh_pinned ctx t.pool Page.Btree_internal ~level:(Node.level below_page + 1)
      in
      Node.set_leftmost_child new_root below;
      let ok = Node.internal_insert new_root ~key:sep ~child in
      assert ok;
      let catalog = get_pinned ctx t.pool catalog_pid in
      Catalog.set_root catalog ~table:t.table ~root:new_root.Page.pid;
      touch ctx new_root;
      touch ctx catalog
  | parent_pid :: up ->
      let parent = get_pinned ctx t.pool parent_pid in
      if Node.internal_insert parent ~key:sep ~child then touch ctx parent
      else begin
        let right = fresh_pinned ctx t.pool Page.Btree_internal ~level:(Node.level parent) in
        let promoted = Node.split_internal parent right in
        let target = if sep < promoted then parent else right in
        let ok = Node.internal_insert target ~key:sep ~child in
        assert ok;
        touch ctx parent;
        touch ctx right;
        insert_sep t ctx up ~below:parent_pid ~sep:promoted ~child:right.Page.pid
      end

let split_leaf_for t key =
  let internals, leaf_pid = path_to_leaf t key in
  let ctx = { pinned = []; touched = [] } in
  let leaf = get_pinned ctx t.pool leaf_pid in
  let right = fresh_pinned ctx t.pool Page.Btree_leaf ~level:0 in
  let sep = Node.split_leaf leaf right in
  (* The right page inherits the left's TC pLSN: every transactional
     operation whose effect moved into it has an LSN at or below that, so
     the redo idempotence test stays exact under relocation. *)
  Page.set_plsn right (Page.plsn leaf);
  Node.set_right_sibling leaf right.Page.pid;
  touch ctx leaf;
  touch ctx right;
  insert_sep t ctx (List.rev internals) ~below:leaf_pid ~sep ~child:right.Page.pid;
  let kind = if internals = [] && Node.level leaf = 0 then Lr.Root_split else Lr.Leaf_split in
  log_smo_and_stamp ~pool:t.pool ~log_smo:t.log_smo kind (List.rev ctx.touched);
  List.iter (Pool.unpin t.pool) ctx.pinned

(* Lazy leaf merging: when a delete leaves a leaf under a quarter full,
   absorb its right sibling — provided both hang off the same parent and
   the combined payload fits one page.  Internal-node rebalancing is
   deliberately lazy (a merge is skipped rather than underflow a non-root
   parent); the root is collapsed onto its single child when it loses its
   last separator.  All of it is one atomic SMO, like splits. *)
let try_merge_after_delete t key =
  if not !(t.merge_allowed) then ()
  else
  let internals, lpid = path_to_leaf t key in
  match List.rev internals with
  | [] -> () (* the root is a leaf: nothing to merge into *)
  | parent_pid :: _ ->
      let ctx = { pinned = []; touched = [] } in
      let finish () = List.iter (Pool.unpin t.pool) ctx.pinned in
      let leaf = get_pinned ctx t.pool lpid in
      let cap = Node.payload_capacity leaf in
      if Node.live_bytes leaf * 4 >= cap then finish ()
      else begin
        let parent = get_pinned ctx t.pool parent_pid in
        let rpid = Node.right_sibling leaf in
        (* The right sibling must be reachable through a separator of the
           same parent — both so the merge is local and so the separator
           removal below is well-defined. *)
        let has_separator_to_sibling =
          rpid <> Node.no_sibling
          &&
          let n = Node.nslots parent in
          let rec find i = i < n && (Node.child_at parent i = rpid || find (i + 1)) in
          find 0
        in
        (* Removing a separator must not underflow a non-root parent. *)
        let parent_ok = Node.nslots parent >= 2 || parent_pid = root_pid t in
        if not (has_separator_to_sibling && parent_ok) then finish ()
        else begin
          let right = get_pinned ctx t.pool rpid in
          if Node.live_bytes leaf + Node.live_bytes right > cap then finish ()
          else begin
            Node.merge_leaves leaf right;
            Node.set_right_sibling leaf (Node.right_sibling right);
            (* Absorbed records keep their redo-test exactness: the
               surviving page's TC pLSN covers both sources. *)
            Page.set_plsn leaf (Lsn.max (Page.plsn leaf) (Page.plsn right));
            let removed = Node.internal_remove_child parent ~child:rpid in
            assert removed;
            Page.set_kind right Page.Free;
            touch ctx leaf;
            touch ctx right;
            touch ctx parent;
            if Node.nslots parent = 0 then begin
              (* Only reachable when the parent is the root (see
                 [parent_ok]): its single child becomes the root. *)
              let catalog = get_pinned ctx t.pool catalog_pid in
              Catalog.set_root catalog ~table:t.table ~root:lpid;
              Page.set_kind parent Page.Free;
              touch ctx catalog;
              log_smo_and_stamp ~pool:t.pool ~log_smo:t.log_smo Lr.Root_collapse
                (List.rev ctx.touched)
            end
            else
              log_smo_and_stamp ~pool:t.pool ~log_smo:t.log_smo Lr.Leaf_merge
                (List.rev ctx.touched);
            finish ()
          end
        end
      end

type write_target =
  | Leaf of { pid : int; before : string option }
  | Duplicate_key
  | Missing_key

let max_cell_size t =
  let page_size = Page.size (Pool.get t.pool catalog_pid) in
  (page_size - Node.node_header_end) / 4

let rec prepare_write ?(depth = 0) t ~key ~op ~value_len =
  if depth > 8 then failwith "Btree.prepare_write: split did not make room";
  if Node.leaf_cell_size ~value_len > max_cell_size t then
    invalid_arg "Btree.prepare_write: value too large for page";
  let pid = locate_leaf t ~key in
  let leaf = Pool.get t.pool pid in
  let split_and_retry () =
    split_leaf_for t key;
    prepare_write ~depth:(depth + 1) t ~key ~op ~value_len
  in
  match (op, Node.search leaf key) with
  | Lr.Insert, `Found _ -> Duplicate_key
  | Lr.Insert, `Not_found _ ->
      let needed = Node.leaf_cell_size ~value_len + 2 in
      if Node.free_space leaf >= needed then Leaf { pid; before = None }
      else if Node.reclaimable_space leaf >= needed then begin
        (* Compaction is content-preserving and needs no log record. *)
        Node.compact leaf;
        Leaf { pid; before = None }
      end
      else split_and_retry ()
  | Lr.Update, `Found slot ->
      let before = Node.leaf_value leaf slot in
      if Node.leaf_can_replace leaf ~slot ~value_len then Leaf { pid; before = Some before }
      else split_and_retry ()
  | Lr.Update, `Not_found _ -> Missing_key
  | Lr.Delete, `Found slot -> Leaf { pid; before = Some (Node.leaf_value leaf slot) }
  | Lr.Delete, `Not_found _ -> Missing_key

let prepare_write t ~key ~op ~value_len = prepare_write t ~key ~op ~value_len

let apply_insert t ~pid ~key ~value ~lsn =
  let page = Pool.get t.pool pid in
  (match Node.search page key with
  | `Found slot ->
      let ok = Node.leaf_replace page ~slot ~value in
      assert ok
  | `Not_found slot ->
      let ok =
        Node.leaf_insert page ~slot ~key ~value
        ||
        (Node.compact page;
         Node.leaf_insert page ~slot ~key ~value)
      in
      assert ok);
  Pool.mark_dirty t.pool ~pid ~lsn

let apply_update t ~pid ~key ~value ~lsn =
  let page = Pool.get t.pool pid in
  (match Node.search page key with
  | `Found slot ->
      let ok = Node.leaf_replace page ~slot ~value in
      assert ok
  | `Not_found slot ->
      let ok =
        Node.leaf_insert page ~slot ~key ~value
        ||
        (Node.compact page;
         Node.leaf_insert page ~slot ~key ~value)
      in
      assert ok);
  Pool.mark_dirty t.pool ~pid ~lsn

let apply_delete t ~pid ~key ~lsn =
  let page = Pool.get t.pool pid in
  (match Node.search page key with
  | `Found slot -> Node.leaf_delete page ~slot
  | `Not_found _ -> ());
  Pool.mark_dirty t.pool ~pid ~lsn;
  try_merge_after_delete t key

let preload_index t =
  let root = root_pid t in
  let root_page = Pool.get t.pool root in
  if not (Node.is_leaf root_page) then begin
    let rec load_level pids =
      match pids with
      | [] -> ()
      | _ ->
          ignore (Pool.prefetch t.pool pids);
          let next =
            List.concat_map
              (fun pid ->
                let page = Pool.get t.pool pid in
                if Node.level page > 1 then begin
                  let children = ref [] in
                  Node.iter_children page (fun c -> children := c :: !children);
                  List.rev !children
                end
                else [])
              pids
          in
          load_level next
    in
    let first_children = ref [] in
    if Node.level root_page > 1 then
      Node.iter_children root_page (fun c -> first_children := c :: !first_children);
    load_level (List.rev !first_children)
  end

let leftmost_leaf t =
  let rec go pid =
    let page = Pool.get t.pool pid in
    if Node.is_leaf page then pid else go (Node.leftmost_child page)
  in
  go (root_pid t)

(* The one leaf-chain walk: entries, counts and the post-recovery
   verifier all fetch the same leaves in the same order; [fold_range]
   walks a stretch of it. *)
let fold_leaves t ~init ~f =
  let rec walk pid acc =
    let page = Pool.get t.pool pid in
    let acc = f acc page in
    let next = Node.right_sibling page in
    if next = Node.no_sibling then acc else walk next acc
  in
  walk (leftmost_leaf t) init

let fold_entries t ~init ~f =
  fold_leaves t ~init ~f:(fun acc page -> Node.fold_leaf page ~init:acc ~f)

(* The same chain, entered at [lo]'s leaf and left at the first key
   [>= hi], so a short range reads its own leaves and not the rest. *)
let fold_range t ~lo ~hi ~init ~f =
  let rec walk pid acc =
    let page = Pool.get t.pool pid in
    let n = Node.nslots page in
    let rec slots i acc =
      if i = n then
        let next = Node.right_sibling page in
        if next = Node.no_sibling then acc else walk next acc
      else
        let key = Node.slot_key page i in
        if key >= hi then acc
        else slots (i + 1) (if key < lo then acc else f acc key (Node.leaf_value page i))
    in
    slots 0 acc
  in
  walk (locate_leaf t ~key:lo) init

(* One in-order walk.  Each page passes [Node.check] against the
   separator bounds its parent gives it (lo inclusive, hi exclusive;
   min_int/max_int act as infinities), and sits one level below its
   parent.  The walk descends only through a page that passed, so levels
   strictly fall and it ends on any tree, however corrupt; the first fault
   ends it.  The leaves arrive in key order, so the sibling chain is checked
   on the way: each leaf must be the one its predecessor's [right_sibling]
   names, and the last leaf's must be [no_sibling].  A broken chain is
   reported only when no page is at fault. *)
let check_tree t =
  let exception Fault of string in
  let fault pid msg = raise (Fault (Printf.sprintf "page %d: %s" pid msg)) in
  let fetch ~parent pid =
    let unreadable why =
      raise
        (Fault
           (if parent < 0 then Printf.sprintf "root page %d %s" pid why
            else Printf.sprintf "page %d: child %d %s" parent pid why))
    in
    match Pool.get t.pool pid with
    | page -> page
    | exception Deut_storage.Page_store.Missing_page _ -> unreadable "is missing from the store"
    | exception Deut_storage.Page_store.Corrupt_page _ -> unreadable "fails its checksum"
  in
  let next_leaf = ref (-1) (* the previous leaf's right_sibling; -1 before the first *) in
  let chain_ok = ref true in
  let rec walk ~parent pid ~level ~lo ~hi =
    let page = fetch ~parent pid in
    let actual = Node.level page in
    if level >= 0 && actual <> level then
      fault pid (Printf.sprintf "level %d, expected %d" actual level);
    (match Node.check ~lo ~hi page with Ok () -> () | Error msg -> fault pid msg);
    if actual = 0 then begin
      if !next_leaf >= 0 && !next_leaf <> pid then chain_ok := false;
      next_leaf := Node.right_sibling page
    end
    else begin
      let n = Node.nslots page in
      if n = 0 then fault pid "internal node with no separators";
      let level = actual - 1 in
      walk ~parent:pid (Node.leftmost_child page) ~level ~lo ~hi:(Node.slot_key page 0);
      for i = 0 to n - 1 do
        let hi = if i = n - 1 then hi else Node.slot_key page (i + 1) in
        walk ~parent:pid (Node.child_at page i) ~level ~lo:(Node.slot_key page i) ~hi
      done
    end
  in
  match walk ~parent:(-1) (root_pid t) ~level:(-1) ~lo:min_int ~hi:max_int with
  | exception Fault msg -> Error msg
  | () ->
      if !chain_ok && !next_leaf = Node.no_sibling then Ok ()
      else Error "leaf sibling chain disagrees with in-order traversal"
