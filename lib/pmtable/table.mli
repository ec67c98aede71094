(** Unified handle over the four level-0 table structures, so the engine and
    compaction machinery are agnostic to which structure a configuration
    selects. *)

type kind =
  | Pm_compressed  (** the paper's three-layer prefix-compressed table *)
  | Array_plain
  | Array_snappy
  | Array_snappy_group

type t

val kind : t -> kind

val build :
  ?group_size:int ->
  ?bloom_bits_per_key:int ->
  ?pos:int ->
  ?len:int ->
  Pmem.t ->
  kind:kind ->
  Util.Kv.entry array ->
  t
(** Build from the slice [\[pos, pos + len)] (default: the whole array) of
    entries sorted by {!Util.Kv.compare_entry}. [bloom_bits_per_key]
    applies to {!Pm_compressed} only (see {!Pm_table.build}); the array
    ablation variants ignore it. *)

val count : t -> int
val byte_size : t -> int
val payload_bytes : t -> int
val min_key : t -> string
val max_key : t -> string
val seq_range : t -> int * int
val free : t -> unit

val get : ?use_bloom:bool -> t -> string -> Util.Kv.entry option
(** [use_bloom] (default true) lets a {!Pm_compressed} table's format-v2
    Bloom filter screen absent keys before any PM access. *)

val to_array : t -> Util.Kv.entry array
(** Every entry in (key asc, seq desc) order, read and charged as a full
    sequential pass. *)

val range : t -> start:string -> stop:string -> (Util.Kv.entry -> unit) -> unit

val overlaps : t -> min:string -> max:string -> bool
(** Does the table's key range intersect [\[min, max\]]? *)

val region_id : t -> int
(** The PM region id backing the table (manifest-stable). *)

val open_existing : Pmem.t -> Pmem.region -> t
(** Reopen a persisted {!Pm_compressed} table from its region (recovery).
    Raises [Failure] when the region does not hold a PM table and
    [Integrity.Corrupted] when it holds one whose footer or meta layer
    rotted. *)

val verify : t -> (string * int) list
(** Checksum-walk the table (see {!Pm_table.verify}); [[]] for the
    non-durable array variants, which carry no checksums. *)

val salvage_entries : t -> Util.Kv.entry array * (string * string) option
(** Surviving entries plus the conservative lost key range, if any (see
    {!Pm_table.salvage_entries}). *)
