(** The versioned key-value record flowing through every layer of the tree.

    A [(key, seq)] pair identifies one version; within a key, higher [seq]
    shadows lower. Deletes are tombstones dropped only at the bottom level. *)

type kind = Put | Delete

type entry = private {
  key : string;
  seq : int;
  kind : kind;
  value : string;
  key_hash : int;  (** always [key_hash key] *)
}
(** Entries are made only by {!entry}, {!tombstone} and the decoders,
    which all set [key_hash] to {!key_hash}[ key]: a table build adds the
    carried hash to its Bloom filter instead of hashing the key again.
    The type is private so that no [{ e with key = ... }] outside this
    module can pair a key with another key's hash; since the hash is a
    function of the key, structural equality of entries still means equal
    key, seq, kind and value. *)

val key_hash : string -> int
(** The 31-bit FNV-1a hash of a key, the base hash of every Bloom filter
    probe. Stored filters depend on its values: they must never change. *)

val entry : ?kind:kind -> key:string -> seq:int -> string -> entry
val tombstone : key:string -> seq:int -> entry

val filler : entry
(** A constant entry to fill an array whose slots are all written before it
    is read. It is allocated statically: [Array.make] of a large array with
    a freshly allocated entry instead forces a minor collection first. *)

val compare_entry : entry -> entry -> int
(** Key ascending, then seq {e descending} — newest version of a key first.
    This is the invariant every merge iterator relies on. *)

val sorted_slice : string -> ?pos:int -> ?len:int -> entry array -> int * int
(** [sorted_slice name ?pos ?len entries] checks the slice
    [\[pos, pos + len)] (default: the whole array) is in bounds, non-empty
    and sorted by {!compare_entry}, and returns it as [(pos, len)]. Raises
    [Invalid_argument] prefixed with [name] otherwise. Table builders take
    their input this way. *)

val encoded_size : entry -> int

val encode : ?strip:int -> Buffer.t -> entry -> unit
(** Append the entry: varint key length, key, varint seq, kind byte,
    varint value length, value. [strip] (default 0) leaves the first
    [strip] bytes of the key out — the PM table's shared group prefix,
    restored on decode by [key_prefix]. *)

val stripped_size : strip:int -> entry -> int
(** Byte length of [encode ~strip]'s output. *)

val encode_at : strip:int -> Bytes.t -> int -> entry -> int
(** [encode_at ~strip b pos e] writes [encode ~strip]'s bytes into [b] at
    [pos] and returns the offset just past them — for encoders that size
    their image up front. Raises [Invalid_argument] when [b] is too short. *)

val decode : string -> int -> entry * int
(** [decode s pos] decodes one entry at [pos], returning it with the offset
    just past it. Raises [Failure] on truncated input. *)

val decode_from : ?key_prefix:string -> Cursor.t -> entry
(** Decode one entry at the cursor and advance past it, hashing its key.
    [key_prefix] is prepended to the stored key (the PM table strips
    shared prefixes). *)

val decode_hashed : key_prefix:string -> key_hash:int -> Cursor.t -> entry
(** {!decode_from} for a reader that already knows the decoded key's hash
    (a PM table reading back the bytes it built): [key_hash] is stored as
    given, so it must be {!key_hash} of [key_prefix] ^ the stored key. *)

val find_from :
  skip:int -> key_hash:int -> Cursor.t -> count:int -> string -> entry option
(** [find_from ~skip ~key_hash c ~count key] scans up to [count] entries
    at the cursor, stored without their first [skip] key bytes (a PM
    group's shared prefix, which the caller has checked [key] opens with),
    for the first whose key is [key], and decodes only that one: the
    other keys are compared in place and their values skipped. The match
    carries [key] and [key_hash], which must be {!key_hash}[ key]. *)

val find_sorted :
  key_hash:int -> Cursor.t -> count:int -> string -> visit:(unit -> unit) -> entry option
(** [find_sorted ~key_hash c ~count key ~visit] scans up to [count]
    entries sorted by key, with unstripped keys, for the first whose key
    is [key]: keys are compared in place, values skipped, and only the
    match is decoded, carrying [key_hash] ({!key_hash}[ key]). Stops at
    the first greater key. [visit] runs once per entry whose key was
    compared, the match and the stopping key included. *)

val pp : entry Fmt.t
val pp_kind : kind Fmt.t
