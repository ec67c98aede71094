(** Array-based PM tables compressed with the snappy-like LZ codec — the
    "Array-snappy" (per-pair) and "Array-snappy-group" baselines of Fig. 6.
    Per-pair probes decompress one entry per binary-search step; group
    probes decompress a whole group, trading read cost for build speed and
    compression ratio. *)

type mode = Per_pair | Grouped of int

type t

val build : ?mode:mode -> ?pos:int -> ?len:int -> Pmem.t -> Util.Kv.entry array -> t
(** Build from the slice [\[pos, pos + len)] (default: the whole array) of
    sorted entries. [mode] defaults to [Per_pair]; the paper's
    group variant is [Grouped 8]. *)

val count : t -> int
val byte_size : t -> int
val payload_bytes : t -> int
val min_key : t -> string
val max_key : t -> string
val seq_range : t -> int * int
val free : t -> unit

val get : t -> string -> Util.Kv.entry option
val to_array : t -> Util.Kv.entry array
(** All entries in order, decompressing every chunk. *)

val range : t -> start:string -> stop:string -> (Util.Kv.entry -> unit) -> unit

val region_id : t -> int
(** The PM region id, manifest-stable across restarts. *)
