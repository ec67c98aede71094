(** Bloom filter with double hashing, one per SSTable, sized by
    bits-per-key as in LevelDB/RocksDB. No false negatives. *)

type t

val create : bits_per_key:int -> int -> t
(** [create ~bits_per_key n] sizes the filter for [n] expected keys. *)

val add : t -> string -> unit
val mem : t -> string -> bool

val add_hash : t -> int -> unit
(** [add_hash t (Util.Kv.key_hash key)] is [add t key], for callers that
    already hold the hash (every [Util.Kv.entry] carries its key's). *)

val mem_hash : t -> int -> bool
(** [mem_hash t (Util.Kv.key_hash key)] is [mem t key]. *)

val size_bytes : t -> int
val of_keys : bits_per_key:int -> string list -> t

val serialize : t -> string
(** Persisted form, for SSTable meta blocks. *)

val deserialize : string -> t
(** Raises [Failure] on truncated input. *)

val serialized_size : t -> int

val hashes : string -> int * int
(** The two base hashes [(h1, h2)] of a key: probe [i] of a filter with
    [nbits] bits sets bit [(h1 + i*h2) mod nbits]. Exposed for tests. *)
