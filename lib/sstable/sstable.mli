(** SSTable on the simulated SSD, RocksDB-flavoured: ~4 KiB data blocks in
    key order, with the index and Bloom filter pinned in the DRAM handle.
    Data block reads hit the device, or a DRAM block cache when attached
    (the "SSTable in cache" configuration of Table I). *)

type t

val default_block_bytes : int

(** {1 Building} *)

val build : ?block_bytes:int -> ?pos:int -> ?len:int -> Ssd.t -> Util.Kv.entry array -> t
(** Write the slice [\[pos, pos + len)] (default: the whole array) as a
    sealed table. Entries must be in {!Util.Kv.compare_entry} order — key
    ascending, then newest version first, since {!get} serves the first
    match. Raises [Invalid_argument] on an unsorted, empty or out-of-bounds
    slice. *)

(** {1 Reading} *)

val open_existing : Ssd.t -> Ssd.file -> t
(** Reopen a sealed table from its file after a restart: the persisted meta
    block restores the index, Bloom filter, and statistics. Raises
    [Failure] on a bad magic and {!Corrupted_block} (with [block = -1])
    when the meta block fails its checksum. *)

val file_id : t -> int
(** The underlying device file id (manifest-stable across restarts). *)

val count : t -> int
val byte_size : t -> int
val payload_bytes : t -> int
val min_key : t -> string
val max_key : t -> string
val seq_range : t -> int * int
val block_count : t -> int

val delete : t -> unit
(** Deletes the underlying file and invalidates every DRAM copy of its
    blocks (pin + shared cache). *)

val attach_shared_cache : t -> Cache.Block_cache.t -> unit
(** Route this table's block reads through the engine-wide capacity-bounded
    cache: misses are admitted, hits are charged DRAM latency. *)

val warm_cache : t -> unit
(** Explicitly pin the whole table in DRAM (one device read per block) —
    the knapsack's "SSTable in cache" placement. Pinned bytes sit outside
    the shared cache's budget. Every block is checksummed on its way into
    the pin: raises {!Corrupted_block} on rot. *)

val drop_cache : t -> unit
(** Drop the {!warm_cache} pin (the shared cache is unaffected). *)

val invalidate_cache : t -> unit
(** Drop every DRAM copy of this table's blocks — the pin and its entries in
    the shared cache. Must run whenever the file's bytes stop being
    authoritative (quarantine, salvage rewrite); {!delete} calls it. *)

val get : ?use_bloom:bool -> t -> string -> Util.Kv.entry option
(** Newest version of the key. The Bloom filter screens absent keys unless
    [~use_bloom:false]. *)

val iter : t -> (Util.Kv.entry -> unit) -> unit
val to_array : t -> Util.Kv.entry array
(** Every entry in order, at {!iter}'s reads and charges. *)

val range : t -> start:string -> stop:string -> (Util.Kv.entry -> unit) -> unit
val overlaps : t -> min:string -> max:string -> bool

exception Corrupted_block of { file_id : int; block : int }
(** Raised by reads whose data block fails its persisted CRC32; [block = -1]
    means the meta block (index/filter/stats) failed instead. *)

(** {1 Integrity} *)

val verify : t -> int list
(** Full checksum walk from the medium (scrub): re-verifies the persisted
    meta block (the pinned DRAM index can outlive rot) and every data block
    around the cache and the read path's verification memo (which skips
    re-checking a block whose file {!Ssd.generation} has not moved since
    it last passed). Returns failing block indices ([-1] for meta), [[]]
    when clean (and always [[]] while {!verify_checksums} is off). *)

val salvage_entries : t -> Util.Kv.entry array * (string * string) option
(** Entries of every data block that still checksums, in order, plus a
    conservative [lo, hi] bound on the keys lost with the failing blocks
    ([None] when nothing was lost). *)

val verify_checksums : bool ref
(** Kill switch for every CRC comparison in this module — exists so a fault
    sweep can plant the "forgot to verify checksums" bug and prove it gets
    caught. Leave it [true]. *)

val chaos_damage_append : bool ref
(** Planted-bug kill switch for integrity tests: {!build} appends every
    data block with its first byte inverted, so the file differs from the
    blocks its checksums were computed from. Default [false]; never set
    outside tests. *)
