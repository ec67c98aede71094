(** A moving read position over an encoded string. Decodes varints, bytes
    and length-prefixed strings in place, without allocating a
    [(value, next_pos)] pair per field. {!Varint.read} and
    {!Kv.decode_from} build on it, so PM-table groups, SSTable blocks, WAL
    replay and every meta block share one decoder. *)

type t

val create : ?stop:int -> string -> int -> t
(** [create ?stop s pos] starts reading [s] at [pos]; no read goes past
    [stop] (default: the end of [s]), so a cursor over a slice of a larger
    buffer raises on truncated input exactly as one over a copy of the
    slice would. Raises [Invalid_argument] when [stop] lies outside [s]. *)

val pos : t -> int
(** Offset of the next unread byte. *)

val varint : t -> int
(** Decode a {!Varint}-encoded integer at the cursor. Raises [Failure] on
    truncated or overlong input. *)

val byte : t -> char
(** Raises [Failure] at the end of the input. *)

val string : ?prefix:string -> t -> string
(** Decode a length-prefixed string; [prefix] (default empty) is prepended
    in the same allocation. Raises [Failure] on truncated input. *)

val skip_string : t -> unit
(** Step over a length-prefixed string without copying it. *)

val suffix_equals : t -> string -> from:int -> bool
(** [suffix_equals c key ~from] reads a length-prefixed string [s], as
    {!string} would, and tells whether [s] is [key] from offset [from] on —
    without copying either. *)

val compare_string : t -> string -> int
(** [compare_string c key] reads a length-prefixed string [s], as {!string}
    would, and returns an int with the sign of [String.compare s key] —
    without copying [s]. *)
