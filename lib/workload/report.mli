(** Fixed-width text for the benchmark output.  Widths count UTF-8 code
    points, so a cell holding [Δ] or [µ] aligns like an ASCII one. *)

val table : ?title:string -> header:string list -> rows:string list list -> unit -> string
(** Render an aligned table with a separator under the header: numbers
    right-aligned, text left-aligned, no trailing spaces after a text
    cell in the last column. *)

val pad : int -> string -> string
(** [pad w s] is [s] followed by spaces up to [w] code points. *)

val section : string -> string
(** A section heading: a blank line, then [title] between two rules. *)
