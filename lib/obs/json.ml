(* The repo's one JSON module.  See json.mli for the contract. *)

type t =
  | Null
  | Bool of bool
  | Num of string
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let int n = Num (string_of_int n)
let fixed ~decimals x = Num (Printf.sprintf "%.*f" decimals x)

(* ---------- printer ---------- *)

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let seq buf open_ sep close_ f items =
  Buffer.add_string buf open_;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string buf sep;
      f x)
    items;
  Buffer.add_string buf close_

let field buf colon write (k, v) =
  escape buf k;
  Buffer.add_string buf colon;
  write v

let rec compact buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Num text -> Buffer.add_string buf text
  | Str s -> escape buf s
  | Arr items -> seq buf "[" "," "]" (compact buf) items
  | Obj fields -> seq buf "{" "," "}" (field buf ":" (compact buf)) fields

let is_scalar = function Arr _ | Obj _ -> false | _ -> true

(* Two spaces per level.  An array element that holds only scalars (one
   bench cell) stays on one line, so a changed cell is a one-line diff. *)
let rec indented buf ~depth ~elem v =
  let nl d = "\n" ^ String.make (2 * d) ' ' in
  let inner = nl (depth + 1) in
  match v with
  | Arr (_ :: _ as items) when elem && List.for_all is_scalar items ->
      seq buf "[ " ", " " ]" (compact buf) items
  | Obj (_ :: _ as fields) when elem && List.for_all (fun (_, v) -> is_scalar v) fields ->
      seq buf "{ " ", " " }" (field buf ": " (compact buf)) fields
  | Arr (_ :: _ as items) ->
      seq buf ("[" ^ inner) ("," ^ inner) (nl depth ^ "]")
        (indented buf ~depth:(depth + 1) ~elem:true)
        items
  | Obj (_ :: _ as fields) ->
      seq buf ("{" ^ inner) ("," ^ inner) (nl depth ^ "}")
        (field buf ": " (indented buf ~depth:(depth + 1) ~elem:false))
        fields
  | v -> compact buf v

let to_string ?(indent = false) v =
  let buf = Buffer.create 4096 in
  if indent then indented buf ~depth:0 ~elem:false v else compact buf v;
  Buffer.contents buf

(* ---------- reader ---------- *)

exception Parse_error of string

(* Objects, arrays, strings with the escapes above (plus [\/], [\t],
   [\r]), numbers, true/false/null.  A number keeps its literal text. *)
let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_while chars = while !pos < n && String.contains chars s.[!pos] do advance () done in
  let skip_ws () = skip_while " \t\n\r" in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal lit v =
    if !pos + String.length lit <= n && String.sub s !pos (String.length lit) = lit then begin
      pos := !pos + String.length lit;
      v
    end
    else fail ("expected " ^ lit)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          (match peek () with
          | Some (('"' | '\\' | '/') as c) -> Buffer.add_char buf c
          | Some 'n' -> Buffer.add_char buf '\n'
          | Some 't' -> Buffer.add_char buf '\t'
          | Some 'r' -> Buffer.add_char buf '\r'
          | Some 'u' ->
              if !pos + 4 >= n then fail "bad \\u escape";
              let hex = String.sub s (!pos + 1) 4 in
              let code = try int_of_string ("0x" ^ hex) with _ -> fail "bad \\u escape" in
              pos := !pos + 4;
              if code < 0x80 then Buffer.add_char buf (Char.chr code)
              else Buffer.add_char buf '?' (* the printer escapes control chars only *)
          | _ -> fail "bad escape");
          advance ();
          go ()
      | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    skip_while "0123456789-+.eE";
    let text = String.sub s start (!pos - start) in
    match float_of_string_opt text with Some _ -> text | None -> fail "bad number"
  in
  (* The members of an object or array, from its opening bracket through
     [close]; [item] reads one member. *)
  let members close item =
    advance ();
    skip_ws ();
    if peek () = Some close then begin
      advance ();
      []
    end
    else
      let rec go acc =
        let acc = item () :: acc in
        skip_ws ();
        match peek () with
        | Some ',' ->
            advance ();
            go acc
        | Some c when c = close ->
            advance ();
            List.rev acc
        | _ -> fail (Printf.sprintf "expected ',' or '%c'" close)
      in
      go []
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        Obj
          (members '}' (fun () ->
               skip_ws ();
               let key = parse_string () in
               skip_ws ();
               expect ':';
               (key, parse_value ())))
    | Some '[' -> Arr (members ']' parse_value)
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
    | None -> fail "unexpected end of input"
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

(* ---------- accessors ---------- *)

let member name = function
  | Obj fields -> (
      match List.assoc_opt name fields with
      | Some v -> v
      | None -> raise (Parse_error ("missing field " ^ name)))
  | _ -> raise (Parse_error ("expected object around " ^ name))

let expected kind name = raise (Parse_error (Printf.sprintf "expected %s for %s" kind name))
let to_num name = function Num text -> float_of_string text | _ -> expected "number" name
let to_str name = function Str s -> s | _ -> expected "string" name
let to_list name = function Arr items -> items | _ -> expected "array" name
let num j name = to_num name (member name j)
let str j name = to_str name (member name j)

(* ---------- diff ---------- *)

type diff = { gated : string list; ungated : string list }

let diff ?(ungated = fun ~parent:_ _ -> false) old_ new_ =
  let gated_lines = ref [] and ungated_lines = ref [] in
  let show = function
    | Some (Arr items) -> Printf.sprintf "%d items" (List.length items)
    | Some v -> to_string v
    | None -> "(missing)"
  in
  let rec walk ~gated path a b =
    match (a, b) with
    | Some (Obj fa), Some (Obj fb) ->
        let added = List.filter (fun (k, _) -> not (List.mem_assoc k fa)) fb in
        List.iter
          (fun (k, _) ->
            walk
              ~gated:(gated && not (ungated ~parent:path k))
              (path ^ "/" ^ k) (List.assoc_opt k fa) (List.assoc_opt k fb))
          (fa @ added)
    | Some (Arr xa), Some (Arr xb) when List.length xa = List.length xb ->
        List.iteri
          (fun i (x, y) -> walk ~gated (Printf.sprintf "%s[%d]" path i) (Some x) (Some y))
          (List.combine xa xb)
    | Some (Num x), Some (Num y) when float_of_string x = float_of_string y -> ()
    | a, b when a = b -> ()
    | a, b ->
        let line = Printf.sprintf "%s: %s -> %s" path (show a) (show b) in
        if gated then gated_lines := line :: !gated_lines
        else ungated_lines := line :: !ungated_lines
  in
  walk ~gated:true "" (Some old_) (Some new_);
  { gated = List.rev !gated_lines; ungated = List.rev !ungated_lines }
