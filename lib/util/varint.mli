(** LEB128-style variable-length integer and length-prefixed string codecs,
    shared by the PM-table and SSTable on-device encodings. *)

val write : Buffer.t -> int -> unit
(** Append a non-negative integer. Raises [Invalid_argument] on negatives. *)

val put : Bytes.t -> int -> int -> int
(** [put b pos v] writes [v] as {!write} would at [pos] and returns the
    offset just past it. Raises [Invalid_argument] on negatives or when
    the encoding runs past the end of [b]. *)

val read : string -> int -> int * int
(** [read s pos] decodes at [pos], returning [(value, next_pos)].
    Raises [Failure] on truncated or overlong input. *)

val size : int -> int
(** Encoded byte length of a non-negative integer. *)

val write_string : Buffer.t -> string -> unit
(** Append a length-prefixed string. *)

val read_string : string -> int -> string * int
(** Decode a length-prefixed string, returning [(value, next_pos)]. *)
