(** The one JSON printer, reader and differ behind every artifact the repo
    writes or reads back: Chrome traces, recovery profiles and the bench
    summary.

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
val to_str : string -> t -> string
val to_list : string -> t -> t list

val num : t -> string -> float
(** [num j name] is field [name] of [j], read as a number; likewise {!str}. *)

val str : t -> string -> string

(** {1 Diff} *)

type diff = { gated : string list; ungated : string list }
(** Every differing leaf as a ["path: old -> new"] line, in document
    order.  A path is [/key] per object level and [[i]] per array index.
    A missing or added key counts as a difference, and so does an array
    whose length changed (the array as one line, ["N items"]). *)

val diff : ?ungated:(parent:string -> string -> bool) -> t -> t -> diff
(** [diff old_ new_] walks both trees at once.  Numbers compare by value,
    so ["1.0"] equals ["1"].  A key for which [ungated ~parent key] holds
    ([parent] is the path of the object that holds it) puts its whole
    subtree's differences in [ungated]; every other difference is in
    [gated].  By default every key is gated: the exact gate behind
    [repro_cli analyze --check], and, with the bench's wall-clock keys
    ungated, [repro_cli bench-diff]. *)
