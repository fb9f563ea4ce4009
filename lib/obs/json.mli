(** The one JSON printer and reader behind every artifact the repo writes
    or reads back: Chrome traces, recovery profiles and the bench summary.

    A number holds its literal text: writers fix each field's precision
    with {!int} or {!fixed}, and the reader keeps the text it read, so
    print → parse → print is exact. *)

type t = Null | Bool of bool | Num of string | Str of string | Arr of t list | Obj of (string * t) list

val int : int -> t

val fixed : decimals:int -> float -> t
(** [x] printed as ["%.<decimals>f"]. *)

val to_string : ?indent:bool -> t -> string
(** Compact by default, with no whitespace (traces and profiles).  With
    [~indent:true], two spaces per level, and an array element holding
    only scalars on one line, as [{ "k": v, "k": v }] (the bench summary,
    read in diffs).  Strings escape the double quote, the backslash,
    newline as [\n] and every other byte below 0x20 as [\u00XX]. *)

exception Parse_error of string

val parse : string -> (t, string) result
(** Reads what {!to_string} writes, plus whitespace and the escapes [\/],
    [\t], [\r].  [Error] names the first problem and its byte offset. *)

(** {1 Accessors}  Each raises [Parse_error] naming the field on a missing
    field or a value of the wrong kind. *)

val member : string -> t -> t
val to_num : string -> t -> float
val to_str : string -> t -> string
val to_list : string -> t -> t list
val to_obj : string -> t -> (string * t) list

val num : t -> string -> float
(** [num j name] is [to_num name (member name j)]; likewise {!str}. *)

val str : t -> string -> string
