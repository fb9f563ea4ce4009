module Db = Deut_core.Db
module Rng = Deut_sim.Rng

type key_dist = Uniform | Zipf of float | Sequential

type op_mix =
  | Update_only
  | Mixed of { update : float; insert : float; delete : float; read : float }

type spec = {
  tables : int;
  rows : int;
  value_size : int;
  ops_per_txn : int;
  key_dist : key_dist;
  op_mix : op_mix;
  seed : int;
}

let default =
  {
    tables = 1;
    rows = 100_000;
    value_size = 24;
    ops_per_txn = 10;
    key_dist = Uniform;
    op_mix = Update_only;
    seed = 1;
  }

let hex = "0123456789abcdef"

let value_of rng ~size =
  let b = Bytes.create size in
  for i = 0 to size - 1 do
    Bytes.set b i hex.[Rng.int rng 16]
  done;
  Bytes.unsafe_to_string b

(* ---------- the operation stream ---------- *)

type action = Upd of string | Ins of string | Del | Read
type op = { table : int; key : int; action : action }

type stream = {
  spec : spec;
  rng : Rng.t;
  zipf : Rng.Zipf.dist option;
  mutable seq_cursor : int;
  mutable next_fresh_key : int;  (* inserts take keys past the loaded rows *)
}

let stream spec rng =
  let zipf =
    match spec.key_dist with
    | Zipf theta -> Some (Rng.Zipf.create ~n:spec.rows ~theta)
    | Uniform | Sequential -> None
  in
  { spec; rng; zipf; seq_cursor = 0; next_fresh_key = spec.rows }

let draw_table s = if s.spec.tables = 1 then 1 else 1 + Rng.int s.rng s.spec.tables

let draw_key s =
  match s.spec.key_dist with
  | Uniform -> Rng.int s.rng s.spec.rows
  | Zipf _ -> Rng.Zipf.sample s.rng (Option.get s.zipf)
  | Sequential ->
      let k = s.seq_cursor in
      s.seq_cursor <- (k + 1) mod s.spec.rows;
      k

(* The rng is consumed in one fixed order: key, the mix's float, then the
   value (an insert's fresh key draws nothing). *)
let draw_op s ~table =
  let key = draw_key s in
  let value () = value_of s.rng ~size:s.spec.value_size in
  match s.spec.op_mix with
  | Update_only -> { table; key; action = Upd (value ()) }
  | Mixed { update; insert; delete; read } ->
      let x = Rng.float s.rng (update +. insert +. delete +. read) in
      if x < update then { table; key; action = Upd (value ()) }
      else if x < update +. insert then begin
        let key = s.next_fresh_key in
        s.next_fresh_key <- key + 1;
        { table; key; action = Ins (value ()) }
      end
      else if x < update +. insert +. delete then { table; key; action = Del }
      else { table; key; action = Read }

(* ---------- applying an operation ---------- *)

type outcome = Wrote | Skipped | Conflict of int

let can_delete spec =
  match spec.op_mix with Mixed { delete; _ } -> delete > 0.0 | Update_only -> false

(* Only an update or a delete can miss its key. *)
let exec db ?oracle spec txn { table; key; action } =
  let result =
    match action with
    | Upd value -> Db.update db txn ~table ~key ~value
    | Ins value -> Db.insert db txn ~table ~key ~value
    | Del -> Db.delete db txn ~table ~key
    | Read -> Result.map ignore (Db.read_locked db txn ~table ~key)
  in
  match result with
  | Ok () -> (
      match (action, oracle) with
      | Read, _ -> Skipped
      | _, None -> Wrote
      | (Upd value | Ins value), Some o ->
          Oracle.buffer_put o ~txn:(Db.Txn.id txn) ~table ~key ~value;
          Wrote
      | Del, Some o ->
          Oracle.buffer_delete o ~txn:(Db.Txn.id txn) ~table ~key;
          Wrote)
  | Error (Db.Lock_conflict { holder }) -> Conflict holder
  | Error (Db.Missing_key _) when can_delete spec -> Skipped
  | Error e -> failwith ("Workload.exec: " ^ Db.error_to_string e)
