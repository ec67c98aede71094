(** The paper's three-layer compressed PM table (§IV-A, Fig. 2b):
    meta layer ({tableID} tags stored once), fixed-width binary-searchable
    prefix layer (one record per group of 8/16 keys), and entry layer
    (prefix-stripped entries). A lookup costs one PM access per binary-search
    probe plus one sequential group read — versus two accesses per probe in
    the array table. *)

type t

val default_prefix_len : int

val build :
  ?group_size:int ->
  ?prefix_len:int ->
  ?bloom_bits_per_key:int ->
  ?pos:int ->
  ?len:int ->
  Pmem.t ->
  Util.Kv.entry array ->
  t
(** Build from the slice [\[pos, pos + len)] (default: the whole array) of
    entries sorted by {!Util.Kv.compare_entry}. [group_size]
    defaults to the paper's 8; [prefix_len] is the fixed slot width
    (default {!default_prefix_len}; larger slots strip more shared bytes
    from the entry layer at ~zero probe cost, since the PM access cost is
    dominated by its fixed term). [bloom_bits_per_key] (default 10) sizes
    the format-v2 Bloom filter persisted in the meta layer; [0] writes the
    byte-identical v1 layout with no bloom. Raises [Invalid_argument] on
    an unsorted, empty or out-of-bounds slice, [Pmem.Out_of_space] when the
    device is full. *)

val open_existing : Pmem.t -> Pmem.region -> t
(** Reopen a table from its persisted region after a restart: the footer
    locates the layers, the meta layer restores the tag index, statistics
    and (format v2) the Bloom filter; v1 regions open with no bloom; no
    table data moves. Raises [Failure] on a bad magic (torn or foreign
    region) and [Integrity.Corrupted] on a footer or meta-layer checksum
    failure. *)

val count : t -> int
val byte_size : t -> int
val payload_bytes : t -> int
(** Uncompressed logical size; [byte_size t < payload_bytes t] measures the
    compression win. *)

val group_count : t -> int
val min_key : t -> string
val max_key : t -> string
val seq_range : t -> int * int
val free : t -> unit

val get : ?use_bloom:bool -> t -> string -> Util.Kv.entry option
(** Newest version of the key in this table. When the table carries a
    format-v2 Bloom filter, absent keys are screened in DRAM before any PM
    access unless [~use_bloom:false]. *)

val has_bloom : t -> bool

val bloom_probes : int ref
val bloom_negatives : int ref
(** Module-wide telemetry: gets that consulted a PM bloom, and those
    answered "absent" without touching PM. *)

val default_bloom_bits_per_key : int

val iter : t -> (Util.Kv.entry -> unit) -> unit
val to_array : t -> Util.Kv.entry array
(** Every entry in order, at {!iter}'s reads, checks and charges. *)

val range : t -> start:string -> stop:string -> (Util.Kv.entry -> unit) -> unit

val extract_tag : string -> string
(** The {tableID} tag stored in the meta layer (exposed for tests). *)

val region_id : t -> int
(** The PM region id, manifest-stable across restarts. *)

(** {1 Integrity}

    Every layer is checksummed: inline CRC32 per prefix record (verified on
    every probe), per-group entry-extent CRC32s cached in the handle
    (verified on every group read, and before a group's first key is
    peeked to break a slot tie, at no extra PM access), and meta/footer
    CRC32s (verified at {!open_existing} and by {!verify}). A failed
    comparison on the read path raises [Integrity.Corrupted]. The handle
    memoizes, per record and per group, the {!Pmem.generation} of the last
    passing check and skips re-checking bytes that have not changed since:
    every read that would raise still raises. {!build} seeds the memo at
    the sealed generation when a host-side comparison finds the region
    byte-for-byte equal to the image its CRCs were computed from. *)

val verify : t -> (string * int) list
(** Full checksum walk, re-reading footer and meta from the medium and
    clearing the verification memo so every CRC is recomputed: returns
    [(layer, group index)] per failure, [[]] when clean (and always [[]]
    while {!verify_checksums} is off). *)

val salvage_entries : t -> Util.Kv.entry array * (string * string) option
(** Decode every group that still checksums; returns the surviving entries
    in order and, when groups were lost, a conservative [lo, hi] bound on
    the keys lost with them. *)

val verify_checksums : bool ref
(** Kill switch for every CRC comparison in this module — exists so a fault
    sweep can plant the "forgot to verify checksums" bug and prove it gets
    caught. Leave it [true]. *)
