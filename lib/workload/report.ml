(* Display width in code points: every byte of a UTF-8 string except the
   continuation bytes of a multi-byte character. *)
let width s =
  let n = ref 0 in
  String.iter (fun c -> if Char.code c land 0xC0 <> 0x80 then incr n) s;
  !n

let fill w s = String.make (Stdlib.max 0 (w - width s)) ' '
let pad w s = s ^ fill w s

let table ?title ~header ~rows () =
  let all = header :: rows in
  let ncols = List.fold_left (fun m r -> Stdlib.max m (List.length r)) 0 all in
  let col_width col =
    List.fold_left
      (fun m row -> match List.nth_opt row col with Some cell -> Stdlib.max m (width cell) | None -> m)
      0 all
  in
  let widths = List.init ncols col_width in
  let render_row row =
    String.concat "  "
      (List.mapi
         (fun col w ->
           let cell = match List.nth_opt row col with Some c -> c | None -> "" in
           (* Right-align numbers, left-align text; the last column is
              not padded on the right. *)
           let is_num = cell <> "" && String.for_all (fun c -> (c >= '0' && c <= '9') || c = '.' || c = '-' || c = '%' || c = '+') cell in
           if is_num then fill w cell ^ cell else if col = ncols - 1 then cell else pad w cell)
         widths)
  in
  let sep = String.concat "  " (List.map (fun w -> String.make w '-') widths) in
  let body = String.concat "\n" (render_row header :: sep :: List.map render_row rows) in
  match title with None -> body ^ "\n" | Some t -> t ^ "\n" ^ body ^ "\n"

let section title =
  let rule = String.make 78 '=' in
  Printf.sprintf "\n%s\n%s\n%s\n\n" rule title rule
