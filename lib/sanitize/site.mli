(** Call-site capture for sanitizer reports: first backtrace frame outside
    the sanitizer and the instrumented device shims, as ["file.ml:line"].
    Placeholder strings when debug info is unavailable. *)

val capture : unit -> string

val stack : unit -> Printexc.raw_backtrace
(** The raw call stack, unsymbolized: cheap enough to keep on every
    access, for {!resolve} to name later, and only if it is reported. *)

val resolve : Printexc.raw_backtrace -> string
(** [resolve (stack ())] is [capture ()]. *)
