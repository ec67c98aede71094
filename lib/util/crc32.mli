(** CRC-32 (IEEE polynomial) checksums for on-device block integrity. *)

val update : int -> string -> int -> int -> int
(** [update crc s pos len] extends [crc] (a previous result, or [0] to
    start) over [s.[pos .. pos+len-1]]. Raises [Invalid_argument] when
    [pos] or [len] is negative or the range runs past the end of [s]. *)

val string : string -> int
(** Checksum of a whole string. *)

val update_bytes : int -> Bytes.t -> int -> int -> int
(** [update] over a byte buffer, without copying it: for builders that
    checksum one part of an image while they still fill another. *)
