let table ?title ~header ~rows () =
  let all = header :: rows in
  let ncols = List.fold_left (fun m r -> Stdlib.max m (List.length r)) 0 all in
  let width col =
    List.fold_left
      (fun m row -> match List.nth_opt row col with Some cell -> Stdlib.max m (String.length cell) | None -> m)
      0 all
  in
  let widths = List.init ncols width in
  let render_row row =
    String.concat "  "
      (List.mapi
         (fun col w ->
           let cell = match List.nth_opt row col with Some c -> c | None -> "" in
           (* Right-align numbers, left-align text. *)
           let is_num = cell <> "" && String.for_all (fun c -> (c >= '0' && c <= '9') || c = '.' || c = '-' || c = '%' || c = '+') cell in
           if is_num then Printf.sprintf "%*s" w cell else Printf.sprintf "%-*s" w cell)
         widths)
  in
  let sep = String.concat "  " (List.map (fun w -> String.make w '-') widths) in
  let body = String.concat "\n" (render_row header :: sep :: List.map render_row rows) in
  match title with None -> body ^ "\n" | Some t -> t ^ "\n" ^ body ^ "\n"

let ms v = Printf.sprintf "%.1f" v
let pct v = Printf.sprintf "%.1f%%" v
let f1 v = Printf.sprintf "%.1f" v
let i v = string_of_int v
