module Page = Deut_storage.Page

(* Node header layout (offsets relative to the page header):
     +0   u16  level (0 = leaf)
     +2   u16  nslots
     +4   u16  cell_start — lowest byte of the cell area
     +6   u16  reserved
     +8   u32  right_sibling
     +12  u32  leftmost_child (internal nodes only)
   The slot directory of u16 cell offsets starts at +16. *)

let off_level = Page.header_size
let off_nslots = Page.header_size + 2
let off_cell_start = Page.header_size + 4
let off_right_sibling = Page.header_size + 8
let off_leftmost = Page.header_size + 12
let node_header_end = Page.header_size + 16
let no_sibling = 0xFFFFFFFF

let level p = Page.get_u16 p off_level
let is_leaf p = level p = 0
let nslots p = Page.get_u16 p off_nslots
let set_nslots p n = Page.set_u16 p off_nslots n
let cell_start p = Page.get_u16 p off_cell_start
let set_cell_start p v = Page.set_u16 p off_cell_start v
let right_sibling p = Page.get_u32 p off_right_sibling
let set_right_sibling p v = Page.set_u32 p off_right_sibling v
let leftmost_child p = Page.get_u32 p off_leftmost
let set_leftmost_child p v = Page.set_u32 p off_leftmost v

let init p ~level =
  Page.zero_range p ~off:Page.header_size ~len:(Page.size p - Page.header_size);
  Page.set_kind p (if level = 0 then Page.Btree_leaf else Page.Btree_internal);
  Page.set_u16 p off_level level;
  set_nslots p 0;
  set_cell_start p (Page.size p);
  set_right_sibling p no_sibling;
  set_leftmost_child p no_sibling

let slot_offset p i = Page.get_u16 p (node_header_end + (2 * i))
let set_slot_offset p i v = Page.set_u16 p (node_header_end + (2 * i)) v
let slot_key p i = Page.get_u64 p (slot_offset p i)
let free_space p = cell_start p - (node_header_end + (2 * nslots p))

let leaf_cell_size ~value_len = 8 + 2 + value_len
let internal_cell_size = 8 + 4

let cell_size_at p i =
  let off = slot_offset p i in
  if is_leaf p then leaf_cell_size ~value_len:(Page.get_u16 p (off + 8)) else internal_cell_size

let reclaimable_space p =
  let used = ref 0 in
  for i = 0 to nslots p - 1 do
    used := !used + cell_size_at p i
  done;
  Page.size p - node_header_end - (2 * nslots p) - !used

let search p key =
  let n = nslots p in
  (* Invariant: keys at slots < lo are < key; keys at slots >= hi are > key. *)
  let rec go lo hi =
    if lo >= hi then `Not_found lo
    else
      let mid = (lo + hi) / 2 in
      let k = slot_key p mid in
      if k = key then `Found mid else if k < key then go (mid + 1) hi else go lo mid
  in
  go 0 n

let leaf_value p i =
  let off = slot_offset p i in
  let vlen = Page.get_u16 p (off + 8) in
  Page.get_bytes p ~off:(off + 10) ~len:vlen

(* Copy each live cell out and rewrite the cell area tightly packed. *)
let compact p =
  let n = nslots p in
  let cells =
    Array.init n (fun i ->
        let off = slot_offset p i in
        Page.get_bytes p ~off ~len:(cell_size_at p i))
  in
  let watermark = ref (Page.size p) in
  Array.iteri
    (fun i cell ->
      watermark := !watermark - String.length cell;
      Page.set_bytes p ~off:!watermark cell;
      set_slot_offset p i !watermark)
    cells;
  set_cell_start p !watermark

let insert_slot p slot off =
  let n = nslots p in
  (* Shift slots [slot, n) up one position. *)
  if n > slot then
    Page.blit_within p
      ~src:(node_header_end + (2 * slot))
      ~dst:(node_header_end + (2 * (slot + 1)))
      ~len:(2 * (n - slot));
  set_slot_offset p slot off;
  set_nslots p (n + 1)

let remove_slot p slot =
  let n = nslots p in
  if n > slot + 1 then
    Page.blit_within p
      ~src:(node_header_end + (2 * (slot + 1)))
      ~dst:(node_header_end + (2 * slot))
      ~len:(2 * (n - slot - 1));
  set_nslots p (n - 1)

let leaf_insert p ~slot ~key ~value =
  let size = leaf_cell_size ~value_len:(String.length value) in
  if free_space p < size + 2 then false
  else begin
    let off = cell_start p - size in
    Page.set_u64 p off key;
    Page.set_u16 p (off + 8) (String.length value);
    Page.set_bytes p ~off:(off + 10) value;
    set_cell_start p off;
    insert_slot p slot off;
    true
  end

let leaf_delete p ~slot = remove_slot p slot

let leaf_can_replace p ~slot ~value_len =
  let old_off = slot_offset p slot in
  let old_vlen = Page.get_u16 p (old_off + 8) in
  value_len <= old_vlen
  || free_space p >= leaf_cell_size ~value_len
  || reclaimable_space p + leaf_cell_size ~value_len:old_vlen >= leaf_cell_size ~value_len

let leaf_replace p ~slot ~value =
  let key = slot_key p slot in
  let old_off = slot_offset p slot in
  let old_vlen = Page.get_u16 p (old_off + 8) in
  if String.length value <= old_vlen then begin
    (* Shrinking or same-size: overwrite in place. *)
    Page.set_u16 p (old_off + 8) (String.length value);
    Page.set_bytes p ~off:(old_off + 10) value;
    true
  end
  else begin
    (* Growing: decide feasibility before mutating anything, so a [false]
       return leaves the page intact for the caller to split. *)
    let needed = leaf_cell_size ~value_len:(String.length value) in
    if free_space p >= needed then begin
      (* Append the new cell; dropping then re-adding the slot is net zero
         directory space, so success is guaranteed. *)
      remove_slot p slot;
      let ok = leaf_insert p ~slot ~key ~value in
      assert ok;
      true
    end
    else begin
      let old_cell = leaf_cell_size ~value_len:old_vlen in
      if reclaimable_space p + old_cell >= needed then begin
        remove_slot p slot;
        compact p;
        let ok = leaf_insert p ~slot ~key ~value in
        assert ok;
        true
      end
      else false
    end
  end

(* The accumulator rides on the recursion, not in a ref: a polymorphic ref
   pays a [caml_modify] per entry, and a whole-table scan folds every row. *)
let fold_leaf p ~init ~f =
  let n = nslots p in
  let rec go i acc =
    if i >= n then acc
    else
      let off = slot_offset p i in
      let value = Page.get_bytes p ~off:(off + 10) ~len:(Page.get_u16 p (off + 8)) in
      go (i + 1) (f acc (Page.get_u64 p off) value)
  in
  go 0 init

let child_at p i = Page.get_u32 p (slot_offset p i + 8)

let route p key =
  match search p key with
  | `Found i -> child_at p i
  | `Not_found 0 -> leftmost_child p
  | `Not_found i -> child_at p (i - 1)

let internal_insert p ~key ~child =
  if free_space p < internal_cell_size + 2 then false
  else begin
    let slot = match search p key with `Found i -> i | `Not_found i -> i in
    let off = cell_start p - internal_cell_size in
    Page.set_u64 p off key;
    Page.set_u32 p (off + 8) child;
    set_cell_start p off;
    insert_slot p slot off;
    true
  end

let iter_children p f =
  f (leftmost_child p);
  for i = 0 to nslots p - 1 do
    f (child_at p i)
  done

let move_cells ~src ~dst ~from_slot =
  let n = nslots src in
  for i = from_slot to n - 1 do
    let off = slot_offset src i in
    let size = cell_size_at src i in
    let cell = Page.get_bytes src ~off ~len:size in
    let doff = cell_start dst - size in
    Page.set_bytes dst ~off:doff cell;
    set_cell_start dst doff;
    set_slot_offset dst (nslots dst) doff;
    set_nslots dst (nslots dst + 1)
  done;
  set_nslots src from_slot

let live_bytes p =
  let cells = ref 0 in
  for i = 0 to nslots p - 1 do
    cells := !cells + cell_size_at p i
  done;
  !cells + (2 * nslots p)

let payload_capacity p = Page.size p - node_header_end

let internal_remove_child p ~child =
  let n = nslots p in
  let rec find i = if i >= n then None else if child_at p i = child then Some i else find (i + 1) in
  match find 0 with
  | Some slot ->
      remove_slot p slot;
      true
  | None -> false

let merge_leaves dst src =
  compact dst;
  move_cells ~src ~dst:(dst) ~from_slot:0

let split_leaf src dst =
  let n = nslots src in
  assert (n >= 2);
  let mid = n / 2 in
  move_cells ~src ~dst ~from_slot:mid;
  set_right_sibling dst (right_sibling src);
  (* Caller links src -> dst using dst's pid; we cannot see pids here. *)
  compact src;
  slot_key dst 0

let split_internal src dst =
  let n = nslots src in
  assert (n >= 3);
  let mid = n / 2 in
  let promoted = slot_key src mid in
  set_leftmost_child dst (child_at src mid);
  move_cells ~src ~dst ~from_slot:(mid + 1);
  (* Drop the promoted cell from src: it was not moved and is now garbage. *)
  set_nslots src mid;
  compact src;
  promoted

(* A leaf cell at [off] lies inside the page: its fixed head, then the
   value length that head gives.  Every unchecked read of a leaf cell
   comes after this check. *)
let[@inline] leaf_cell_fits p ~size off =
  off + leaf_cell_size ~value_len:0 <= size
  && off + leaf_cell_size ~value_len:(Page.unsafe_get_u16 p (off + 8)) <= size

(* One pass over the slot directory: each slot's offset, cell size and key
   are read once, and only after the header has bounded the directory and
   the offset has bounded the cell, so the loads past the header can skip
   their bounds checks and still never leave the page. *)
let check ?(lo = min_int) ?(hi = max_int) p =
  let n = nslots p in
  let size = Page.size p in
  let cs = cell_start p in
  let leaf = is_leaf p in
  let fixed = if leaf then leaf_cell_size ~value_len:0 else internal_cell_size in
  let rec slots i prev =
    if i >= n then Ok ()
    else
      let off = Page.unsafe_get_u16 p (node_header_end + (2 * i)) in
      if off < cs || off + fixed > size || (leaf && not (leaf_cell_fits p ~size off)) then
        Error (Printf.sprintf "slot %d offset %d out of cell area" i off)
      else
        let k = Page.unsafe_get_u64 p off in
        if i > 0 && prev >= k then Error (Printf.sprintf "keys not strictly ascending at slot %d" i)
        else if k < lo || k >= hi then
          Error (Printf.sprintf "key %d outside separator bounds [%d,%d)" k lo hi)
        else slots (i + 1) k
  in
  if cs > size || cs < node_header_end + (2 * n) then Error "cell watermark out of range"
  else if (not leaf) && n > 0 && leftmost_child p = no_sibling then
    Error "internal node without leftmost child"
  else slots 0 0

type leaf_match = Same | Differs of int | Cell_outside of int

(* The post-recovery comparison, one tight loop per leaf.  It trusts no
   header field: each slot's directory entry and cell are bounded before
   their unchecked loads, so a corrupt leaf stops the walk at that slot.
   After the first difference the rest of the leaf is only bounded. *)
let match_leaf p ~keys ~values ~pos =
  let n = nslots p in
  let size = Page.size p in
  let expected = Array.length keys in
  let rec go i diff =
    if i >= n then if diff < 0 then Same else Differs diff
    else
      let d = node_header_end + (2 * i) in
      if d + 2 > size then Cell_outside i
      else
        let off = Page.unsafe_get_u16 p d in
        if not (leaf_cell_fits p ~size off) then Cell_outside i
        else
          let j = pos + i in
          if
            diff >= 0
            || j < expected
               && Page.unsafe_get_u64 p off = keys.(j)
               &&
               let v = values.(j) in
               Page.unsafe_get_u16 p (off + 8) = String.length v
               && Page.equal_sub p ~off:(off + 10) v
          then go (i + 1) diff
          else go (i + 1) i
  in
  go 0 (-1)
