type op_kind = Insert | Update | Delete

let op_kind_to_string = function Insert -> "insert" | Update -> "update" | Delete -> "delete"

type update = {
  txn : int;
  table : int;
  key : int;
  op : op_kind;
  before : string option;
  after : string option;
  pid_hint : int;
  prev_lsn : Lsn.t;
}

type clr = {
  txn : int;
  table : int;
  key : int;
  op : op_kind;
  value : string option;
  pid_hint : int;
  undo_next : Lsn.t;
}

type bw = { written : int array; fw_lsn : Lsn.t }

type delta = {
  dirty : int array;
  written : int array;
  fw_lsn : Lsn.t;
  first_dirty : int;
  tc_lsn : Lsn.t;
  dirty_lsns : int array;
}

type smo_kind =
  | Format_page
  | Leaf_split
  | Internal_split
  | Root_split
  | Leaf_merge
  | Root_collapse
  | Catalog

let smo_kind_to_string = function
  | Format_page -> "format-page"
  | Leaf_split -> "leaf-split"
  | Internal_split -> "internal-split"
  | Root_split -> "root-split"
  | Leaf_merge -> "leaf-merge"
  | Root_collapse -> "root-collapse"
  | Catalog -> "catalog"

type smo = { kind : smo_kind; pages : (int * string) array }
type aries_dpt = { entries : (int * Lsn.t * Lsn.t) array }

type t =
  | Update_rec of update
  | Commit of { txn : int }
  | Abort of { txn : int }
  | Clr of clr
  | Begin_ckpt
  | End_ckpt of { bckpt : Lsn.t; active : (int * Lsn.t) array }
  | Aries_ckpt_dpt of aries_dpt
  | Bw of bw
  | Delta of delta
  | Smo of smo

let op_kind_to_tag = function Insert -> 0 | Update -> 1 | Delete -> 2

let op_kind_of_tag = function
  | 0 -> Insert
  | 1 -> Update
  | 2 -> Delete
  | n -> invalid_arg (Printf.sprintf "Log_record: corrupt op kind %d" n)

let smo_kind_to_tag = function
  | Format_page -> 0
  | Leaf_split -> 1
  | Internal_split -> 2
  | Root_split -> 3
  | Catalog -> 4
  | Leaf_merge -> 5
  | Root_collapse -> 6

let smo_kind_of_tag = function
  | 0 -> Format_page
  | 1 -> Leaf_split
  | 2 -> Internal_split
  | 3 -> Root_split
  | 4 -> Catalog
  | 5 -> Leaf_merge
  | 6 -> Root_collapse
  | n -> invalid_arg (Printf.sprintf "Log_record: corrupt smo kind %d" n)

let encode_into w t =
  match t with
  | Update_rec u ->
      Codec.w_u8 w 1;
      Codec.w_i64 w u.txn;
      Codec.w_u32 w u.table;
      Codec.w_i64 w u.key;
      Codec.w_u8 w (op_kind_to_tag u.op);
      Codec.w_opt_string w u.before;
      Codec.w_opt_string w u.after;
      Codec.w_u32 w u.pid_hint;
      Codec.w_i64 w u.prev_lsn
  | Commit { txn } ->
      Codec.w_u8 w 2;
      Codec.w_i64 w txn
  | Abort { txn } ->
      Codec.w_u8 w 3;
      Codec.w_i64 w txn
  | Clr c ->
      Codec.w_u8 w 4;
      Codec.w_i64 w c.txn;
      Codec.w_u32 w c.table;
      Codec.w_i64 w c.key;
      Codec.w_u8 w (op_kind_to_tag c.op);
      Codec.w_opt_string w c.value;
      Codec.w_u32 w c.pid_hint;
      Codec.w_i64 w c.undo_next
  | Begin_ckpt -> Codec.w_u8 w 5
  | End_ckpt { bckpt; active } ->
      Codec.w_u8 w 6;
      Codec.w_i64 w bckpt;
      Codec.w_u32 w (Array.length active);
      Array.iter
        (fun (txn, last) ->
          Codec.w_i64 w txn;
          Codec.w_i64 w last)
        active
  | Aries_ckpt_dpt { entries } ->
      Codec.w_u8 w 7;
      Codec.w_u32 w (Array.length entries);
      Array.iter
        (fun (pid, rlsn, last) ->
          Codec.w_u32 w pid;
          Codec.w_i64 w rlsn;
          Codec.w_i64 w last)
        entries
  | Bw b ->
      Codec.w_u8 w 8;
      Codec.w_u32_array w b.written;
      Codec.w_i64 w b.fw_lsn
  | Delta d ->
      Codec.w_u8 w 9;
      Codec.w_u32_array w d.dirty;
      Codec.w_u32_array w d.written;
      Codec.w_i64 w d.fw_lsn;
      Codec.w_u32 w d.first_dirty;
      Codec.w_i64 w d.tc_lsn;
      Codec.w_i64_array w d.dirty_lsns
  | Smo s ->
      Codec.w_u8 w 10;
      Codec.w_u8 w (smo_kind_to_tag s.kind);
      Codec.w_u32 w (Array.length s.pages);
      Array.iter
        (fun (pid, image) ->
          Codec.w_u32 w pid;
          Codec.w_string w image)
        s.pages

let encode t =
  let w = Codec.writer () in
  encode_into w t;
  Codec.contents w

let decode_from r =
  match Codec.r_u8 r with
  | 1 ->
      let txn = Codec.r_i64 r in
      let table = Codec.r_u32 r in
      let key = Codec.r_i64 r in
      let op = op_kind_of_tag (Codec.r_u8 r) in
      let before = Codec.r_opt_string r in
      let after = Codec.r_opt_string r in
      let pid_hint = Codec.r_u32 r in
      let prev_lsn = Codec.r_i64 r in
      Update_rec { txn; table; key; op; before; after; pid_hint; prev_lsn }
  | 2 -> Commit { txn = Codec.r_i64 r }
  | 3 -> Abort { txn = Codec.r_i64 r }
  | 4 ->
      let txn = Codec.r_i64 r in
      let table = Codec.r_u32 r in
      let key = Codec.r_i64 r in
      let op = op_kind_of_tag (Codec.r_u8 r) in
      let value = Codec.r_opt_string r in
      let pid_hint = Codec.r_u32 r in
      let undo_next = Codec.r_i64 r in
      Clr { txn; table; key; op; value; pid_hint; undo_next }
  | 5 -> Begin_ckpt
  | 6 ->
      let bckpt = Codec.r_i64 r in
      let n = Codec.r_u32 r in
      let active =
        Array.init n (fun _ ->
            let txn = Codec.r_i64 r in
            let last = Codec.r_i64 r in
            (txn, last))
      in
      End_ckpt { bckpt; active }
  | 7 ->
      let n = Codec.r_u32 r in
      let entries =
        Array.init n (fun _ ->
            let pid = Codec.r_u32 r in
            let rlsn = Codec.r_i64 r in
            let last = Codec.r_i64 r in
            (pid, rlsn, last))
      in
      Aries_ckpt_dpt { entries }
  | 8 ->
      let written = Codec.r_u32_array r in
      let fw_lsn = Codec.r_i64 r in
      Bw { written; fw_lsn }
  | 9 ->
      let dirty = Codec.r_u32_array r in
      let written = Codec.r_u32_array r in
      let fw_lsn = Codec.r_i64 r in
      let first_dirty = Codec.r_u32 r in
      let tc_lsn = Codec.r_i64 r in
      let dirty_lsns = Codec.r_i64_array r in
      Delta { dirty; written; fw_lsn; first_dirty; tc_lsn; dirty_lsns }
  | 10 ->
      let kind = smo_kind_of_tag (Codec.r_u8 r) in
      let n = Codec.r_u32 r in
      let pages =
        Array.init n (fun _ ->
            let pid = Codec.r_u32 r in
            let image = Codec.r_string r in
            (pid, image))
      in
      Smo { kind; pages }
  | n -> invalid_arg (Printf.sprintf "Log_record.decode: corrupt record tag %d" n)

let decode s = decode_from (Codec.reader s)
let decode_sub data ~pos ~len = decode_from (Codec.reader_sub data ~pos ~len)

let describe = function
  | Update_rec u ->
      Printf.sprintf "update txn=%d table=%d key=%d op=%s pid=%d prev=%s" u.txn u.table u.key
        (op_kind_to_string u.op) u.pid_hint (Lsn.to_string u.prev_lsn)
  | Commit { txn } -> Printf.sprintf "commit txn=%d" txn
  | Abort { txn } -> Printf.sprintf "abort txn=%d" txn
  | Clr c ->
      Printf.sprintf "clr txn=%d table=%d key=%d op=%s undo_next=%s" c.txn c.table c.key
        (op_kind_to_string c.op) (Lsn.to_string c.undo_next)
  | Begin_ckpt -> "begin-checkpoint"
  | End_ckpt { bckpt; active } ->
      Printf.sprintf "end-checkpoint bckpt=%s active=%d" (Lsn.to_string bckpt)
        (Array.length active)
  | Aries_ckpt_dpt { entries } -> Printf.sprintf "aries-ckpt-dpt entries=%d" (Array.length entries)
  | Bw b ->
      Printf.sprintf "bw written=%d fw_lsn=%s" (Array.length b.written) (Lsn.to_string b.fw_lsn)
  | Delta d ->
      Printf.sprintf "delta dirty=%d written=%d fw_lsn=%s first_dirty=%d tc_lsn=%s"
        (Array.length d.dirty) (Array.length d.written) (Lsn.to_string d.fw_lsn) d.first_dirty
        (Lsn.to_string d.tc_lsn)
  | Smo s -> Printf.sprintf "smo %s pages=%d" (smo_kind_to_string s.kind) (Array.length s.pages)

type redo_view = {
  rv_table : int;
  rv_key : int;
  rv_op : op_kind;
  rv_value : string option;
  rv_pid : int;
}

let redo_view = function
  | Update_rec u ->
      Some { rv_table = u.table; rv_key = u.key; rv_op = u.op; rv_value = u.after; rv_pid = u.pid_hint }
  | Clr c ->
      Some { rv_table = c.table; rv_key = c.key; rv_op = c.op; rv_value = c.value; rv_pid = c.pid_hint }
  | Commit _ | Abort _ | Begin_ckpt | End_ckpt _ | Aries_ckpt_dpt _ | Bw _ | Delta _ | Smo _ ->
      None
