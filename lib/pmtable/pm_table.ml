(* The paper's three-layer compressed PM table (§IV-A, Fig. 2b).

   Layout on the region, in write order:

     [ entry layer ][ prefix layer ][ meta layer ]

   - meta layer: one record per run of keys sharing a {tableID} tag ("t" +
     4 digits at the head of database keys). The record stores the run's
     *extended* tag — the tag plus the run's common key prefix (zero-padded
     id digits, index-column headers, ...) — so the superfluous coding
     information is stored once and the bytes that remain in the groups
     discriminate early.

   - prefix layer: one fixed-width record per group of [group_size] keys:

       slot (prefix_len bytes of the group's first stripped key, \000-pad)
       u32 entry-layer offset | u16 entry count
       u8 shared-prefix length | u16 meta index

     Slots are monotone truncations of sorted stripped keys, so the layer
     is binary-searchable with one PM access per probe; when two slots tie,
     the probe reads the group's first entry (a second access) to compare
     exactly.

   - entry layer: per group, entries back-to-back with the group's shared
     prefix removed: varint suffix_len, suffix, varint seq, kind byte,
     varint value_len, value.

   Lookup: locate the run in the (handle-cached) meta layer by extended-tag
   prefix, binary-search the run's groups, scan the landing group
   sequentially, and spill into following groups only while their first key
   still equals the probe's (version runs can cross group boundaries).

   Integrity: every layer is checksummed. Each fixed-width prefix record
   carries an inline CRC32 (verified by [read_record]); each group's
   entry-layer extent has a CRC32 in a dedicated layer that the handle
   caches in DRAM (verified by every group read, costing no extra PM
   access); the meta layer and the footer carry CRC32s verified at
   [open_existing] and re-checked from the medium by [verify] (scrub). A
   failed comparison raises [Integrity.Corrupted] so the engine can
   quarantine the region instead of serving garbage. The first-key peek
   that breaks slot ties reads only the head of a group, but steers the
   lookup: it checks the whole group's CRC in place, host-side, unless the
   group already passed at this generation.

   Reads are in place: every record, peek and group is checked, compared
   and decoded straight from the region's bytes ([Pmem.with_view], same
   charges as a copy), with cursors bounded by the read's extent.

   Verification memo: the handle remembers, per prefix record and per
   group, the region generation ({!Pmem.generation}) at which that item
   last passed its CRC. Every change to the region's bytes bumps the
   generation, so an item whose stored generation is current holds the
   very bytes that passed, and a recomputed CRC could only pass again;
   the read path skips it. The PM read itself (its charge, its sanitizer
   hook, its bytes) is unchanged — the memo saves host CPU only. [build]
   seeds it: the CRCs are computed from one DRAM image of the whole region,
   and if the sealed region holds exactly that image (one host-side
   comparison), every record and group would pass at the sealed generation.
   [verify] clears the memo first, so scrub recomputes every CRC from the
   medium. At that same sealed generation, decoded entries take the key
   hashes their build inputs carried instead of hashing their keys. *)

type meta = { tag : string; g_lo : int; g_hi : int }

type t = {
  bloom : Bloom.t option;  (* format v2: screens absent keys before any PM access *)
  dev : Pmem.t;
  region : Pmem.region;
  count : int;
  group_size : int;
  prefix_len : int;
  group_count : int;
  entry_len : int;   (* entry layer byte length *)
  prefix_off : int;  (* start of the prefix layer *)
  meta_off : int;    (* start of the meta layer *)
  metas : meta array;  (* handle-side cache of the meta layer *)
  gcrcs : int array;   (* handle-side cache of the per-group entry CRCs *)
  record_gens : int array;  (* memo: generation of each record's last passing check *)
  group_gens : int array;   (* memo: generation of each group's last passing check *)
  (* [hashes.(group_first.(g) + i)] is the key hash of entry [i] of group
     [g] as built: valid while the region's generation is [hashes_gen],
     the sealed generation the memo was seeded at (-1, never, for a
     reopened or unseeded table) *)
  hashes : int array;
  group_first : int array;
  hashes_gen : int;
  meta_crc : int;
  min_key : string;
  max_key : string;
  min_seq : int;
  max_seq : int;
  payload_bytes : int;  (* uncompressed logical size *)
}

(* slot | u32 offset | u16 count | u8 shared | u16 meta_idx | u32 crc *)
let record_width_of prefix_len = prefix_len + 13
let record_width t = record_width_of t.prefix_len

(* Kill switch for every CRC comparison in this module — exists so a fault
   sweep can plant the "forgot to verify checksums" bug and prove it gets
   caught. Leave it [true]. *)
let verify_checksums = ref true
let encode_cpu_ns = 30.0
let decode_cpu_ns = 25.0
let max_extended_tag = 40
let charge_cpu dev ns = Sim.Clock.advance (Pmem.clock dev) ns

(* Region footer: u32 entry_len | u32 meta_off | u32 group_count |
   u8 prefix_len | u8 group_size | u32 meta_crc | u32 magic |
   u32 footer_crc (over the preceding 22 bytes). The per-group entry-CRC
   layer sits between the prefix and meta layers: u32 per group.

   Format v2 ("PMB2") appends a serialized Bloom filter to the meta layer,
   after the table statistics, so it is covered by the existing meta CRC;
   everything else is byte-identical to v1 and [open_existing] accepts
   both magics. A table built with [bloom_bits_per_key = 0] is written in
   v1 form. *)
let footer_bytes = 26
let magic = 0x504D4254 (* "PMBT", format v1: no bloom *)
let magic_v2 = 0x504D4232 (* "PMB2": bloom appended to the meta layer *)

(* Module-wide telemetry (pattern of [Manifest.fallback_count]): how many
   gets consulted a PM bloom, and how many were answered "absent" without
   touching PM. The bench divides these for the filter rate. *)
let bloom_probes = ref 0
let bloom_negatives = ref 0
let default_bloom_bits_per_key = 10

(* {tableID} extraction: keys built by Util.Keys open with 't' + 4 digits. *)
let is_tagged key =
  String.length key >= 5
  && key.[0] = 't'
  && key.[1] >= '0' && key.[1] <= '9'
  && key.[2] >= '0' && key.[2] <= '9'
  && key.[3] >= '0' && key.[3] <= '9'
  && key.[4] >= '0' && key.[4] <= '9'

let extract_tag key = if is_tagged key then String.sub key 0 5 else ""

(* [extract_tag key = tag], without building the key's tag. *)
let has_tag tag key =
  if String.length tag = 0 then not (is_tagged key) else String.starts_with ~prefix:tag key

let pad_slot prefix_len s =
  if String.length s >= prefix_len then String.sub s 0 prefix_len
  else s ^ String.make (prefix_len - String.length s) '\000'

let strip prefix key = String.sub key (String.length prefix) (String.length key - String.length prefix)

type group_plan = {
  gp_meta : int;
  gp_slot : string;
  gp_shared : int;  (* extra shared bytes stripped beyond the extended tag *)
  gp_lo : int;      (* the group's entries: indices [gp_lo, gp_hi) of the input *)
  gp_hi : int;
}

let default_prefix_len = 24

let build ?(group_size = 8) ?(prefix_len = default_prefix_len)
    ?(bloom_bits_per_key = default_bloom_bits_per_key) ?pos ?len dev
    (entries : Util.Kv.entry array) =
  let pos, n = Util.Kv.sorted_slice "Pm_table.build" ?pos ?len entries in
  let stop = pos + n in
  (* 1. Cut into tag runs; per run compute the extended tag (tag + common
     prefix of the whole run, capped); then cut runs into groups, planned
     as index ranges of the input. *)
  let metas = ref [] and groups = ref [] and group_count = ref 0 in
  let i = ref pos in
  while !i < stop do
    let tag = extract_tag entries.(!i).Util.Kv.key in
    let run_start = !i in
    while !i < stop && has_tag tag entries.(!i).Util.Kv.key do
      incr i
    done;
    let run_end = !i in
    let extended =
      let first = entries.(run_start).Util.Kv.key
      and last = entries.(run_end - 1).Util.Kv.key in
      let shared = Util.Keys.common_prefix_len first last in
      let len = min max_extended_tag (max (String.length tag) shared) in
      String.sub first 0 len
    in
    let meta_idx = List.length !metas in
    let g_lo = !group_count in
    let j = ref run_start in
    while !j < run_end do
      let lo = !j and hi = min run_end (!j + group_size) in
      let stripped_first = strip extended entries.(lo).Util.Kv.key in
      let stripped_last = strip extended entries.(hi - 1).Util.Kv.key in
      let shared =
        min prefix_len (Util.Keys.common_prefix_len stripped_first stripped_last)
      in
      groups :=
        {
          gp_meta = meta_idx;
          gp_slot = pad_slot prefix_len stripped_first;
          gp_shared = shared;
          gp_lo = lo;
          gp_hi = hi;
        }
        :: !groups;
      incr group_count;
      j := hi
    done;
    metas := { tag = extended; g_lo; g_hi = !group_count } :: !metas
  done;
  let metas = Array.of_list (List.rev !metas) in
  let groups = Array.of_list (List.rev !groups) in
  (* 2. Encode the whole region — entry, prefix, group-CRC and meta layers
     and the footer — into one exact-size DRAM image, charging encode CPU.
     The entry layer is sized first; the meta layer (variable-length) is
     encoded on its own first, so every layer's offset is known. *)
  let strip_len { gp_meta; gp_shared; _ } = String.length metas.(gp_meta).tag + gp_shared in
  let group_count = Array.length groups in
  let group_offsets = Array.make group_count 0 in
  let entry_len = ref 0 in
  let min_seq = ref max_int and max_seq = ref min_int and payload = ref 0 in
  Array.iteri
    (fun g ({ gp_lo; gp_hi; _ } as plan) ->
      group_offsets.(g) <- !entry_len;
      let strip = strip_len plan in
      for i = gp_lo to gp_hi - 1 do
        let e = entries.(i) in
        entry_len := !entry_len + Util.Kv.stripped_size ~strip e;
        payload := !payload + Util.Kv.encoded_size e;
        if e.seq < !min_seq then min_seq := e.seq;
        if e.seq > !max_seq then max_seq := e.seq
      done)
    groups;
  let entry_len = !entry_len in
  (* Meta layer: the tag records, then the table-level statistics the
     handle caches (counts, seq range, payload), so a table can be reopened
     from its region alone after a restart. *)
  let meta_layer = Buffer.create 128 in
  Util.Varint.write meta_layer (Array.length metas);
  Array.iter
    (fun { tag; g_lo; g_hi } ->
      Util.Varint.write_string meta_layer tag;
      Util.Varint.write meta_layer g_lo;
      Util.Varint.write meta_layer g_hi)
    metas;
  Util.Varint.write meta_layer n;
  Util.Varint.write meta_layer !min_seq;
  Util.Varint.write meta_layer !max_seq;
  Util.Varint.write meta_layer !payload;
  (* Format v2: the bloom rides in the meta layer so the existing meta CRC
     covers it; bits_per_key = 0 keeps the byte-identical v1 layout. *)
  let bloom =
    if bloom_bits_per_key <= 0 then None
    else begin
      let b = Bloom.create ~bits_per_key:bloom_bits_per_key n in
      for i = pos to stop - 1 do
        Bloom.add_hash b entries.(i).Util.Kv.key_hash
      done;
      Some b
    end
  in
  (match bloom with
  | Some b -> Util.Varint.write_string meta_layer (Bloom.serialize b)
  | None -> ());
  let meta_str = Buffer.contents meta_layer in
  let meta_crc = Util.Crc32.string meta_str in
  let w = record_width_of prefix_len in
  let prefix_off = entry_len in
  let gcrc_off = prefix_off + (group_count * w) in
  let meta_off = gcrc_off + (4 * group_count) in
  let footer_off = meta_off + String.length meta_str in
  let total = footer_off + footer_bytes in
  let image = Bytes.create total in
  let set_u32 off v =
    Bytes.set_uint16_be image off ((v lsr 16) land 0xffff);
    Bytes.set_uint16_be image (off + 2) (v land 0xffff)
  in
  Array.iteri
    (fun g ({ gp_lo; gp_hi; _ } as plan) ->
      let strip = strip_len plan in
      let off = ref group_offsets.(g) in
      for i = gp_lo to gp_hi - 1 do
        off := Util.Kv.encode_at ~strip image !off entries.(i)
      done)
    groups;
  charge_cpu dev (float_of_int n *. encode_cpu_ns);
  (* Per-group CRCs over the entry-layer extents, cached in the handle and
     persisted in their own layer between the prefix and meta layers. *)
  let gcrcs =
    Array.init group_count (fun g ->
        let start = group_offsets.(g) in
        let next = if g + 1 < group_count then group_offsets.(g + 1) else entry_len in
        Util.Crc32.update_bytes 0 image start (next - start))
  in
  Array.iteri
    (fun g { gp_slot; gp_shared; gp_lo; gp_hi; gp_meta } ->
      let r = prefix_off + (g * w) in
      Bytes.blit_string gp_slot 0 image r prefix_len;
      set_u32 (r + prefix_len) group_offsets.(g);
      Bytes.set_uint16_be image (r + prefix_len + 4) (gp_hi - gp_lo);
      Bytes.set_uint8 image (r + prefix_len + 6) gp_shared;
      Bytes.set_uint16_be image (r + prefix_len + 7) gp_meta;
      (* inline record CRC: every prefix-layer probe self-verifies *)
      set_u32 (r + w - 4) (Util.Crc32.update_bytes 0 image r (w - 4)))
    groups;
  Array.iteri (fun g crc -> set_u32 (gcrc_off + (4 * g)) crc) gcrcs;
  Bytes.blit_string meta_str 0 image meta_off (String.length meta_str);
  (* The fixed-width footer closes the region (see open_existing). *)
  set_u32 footer_off entry_len;
  set_u32 (footer_off + 4) meta_off;
  set_u32 (footer_off + 8) group_count;
  Bytes.set_uint8 image (footer_off + 12) prefix_len;
  Bytes.set_uint8 image (footer_off + 13) group_size;
  set_u32 (footer_off + 14) meta_crc;
  set_u32 (footer_off + 18) (match bloom with Some _ -> magic_v2 | None -> magic);
  set_u32 (footer_off + 22) (Util.Crc32.update_bytes 0 image footer_off (footer_bytes - 4));
  (* The image is complete and never written again: hand it over as a
     string without a copy. *)
  let image = Bytes.unsafe_to_string image in
  (* 3. Allocate and write the layers through the buffered builder, one
     slice of the image each. *)
  let region = Pmem.alloc dev total in
  let builder = Builder.create dev region in
  let layer off len = Builder.add_sub builder image ~pos:off ~len in
  layer 0 entry_len;
  layer prefix_off (gcrc_off - prefix_off);
  layer gcrc_off (meta_off - gcrc_off);
  layer meta_off (footer_off - meta_off);
  layer footer_off footer_bytes;
  let written = Builder.finish builder in
  assert (written = total);
  (* Seed the verification memo: every CRC above was computed from
     [image], so if the sealed region holds exactly those bytes, each
     record and group check would pass at the current generation. One
     host-side comparison, no device access. *)
  let seeded =
    if !verify_checksums && Pmem.holds_image region image then Pmem.generation region else -1
  in
  {
    bloom;
    dev;
    region;
    count = n;
    group_size;
    prefix_len;
    group_count;
    entry_len;
    prefix_off;
    meta_off;
    metas;
    gcrcs;
    record_gens = Array.make group_count seeded;
    group_gens = Array.make group_count seeded;
    hashes = Array.init n (fun i -> entries.(pos + i).Util.Kv.key_hash);
    group_first = Array.map (fun { gp_lo; _ } -> gp_lo - pos) groups;
    hashes_gen = seeded;
    meta_crc;
    min_key = entries.(pos).key;
    max_key = entries.(stop - 1).key;
    min_seq = !min_seq;
    max_seq = !max_seq;
    payload_bytes = !payload;
  }

let count t = t.count
let byte_size t = Pmem.region_len t.region
let payload_bytes t = t.payload_bytes
let min_key t = t.min_key
let max_key t = t.max_key
let seq_range t = (t.min_seq, t.max_seq)
let free t = Pmem.free t.dev t.region
let region_id t = Pmem.region_id t.region
let group_count t = t.group_count

(* A prefix-layer record, parsed in place. [slot_cmp] and [head_cmp] are
   computed against the probe the record was read for (by a caller that
   has none, against empty strings, and then ignored): [slot_cmp] has the
   sign of [String.compare slot probe_slot]; [head_cmp] compares the
   group's key prefix (run tag ^ the slot's first [shared] bytes) with the
   probe key's head — 0 when the key opens with it, 1 when the key ends
   first, else the sign of the first differing byte. [key_prefix] is that
   prefix itself, built only for readers that decode whole groups. *)
type record = {
  offset : int;
  count_ : int;
  shared : int;
  meta_idx : int;
  slot_cmp : int;
  head_cmp : int;
  key_prefix : string;
}

(* Must item [i] of [memo] have its CRC computed? Not while checks are off,
   nor when it already passed at the region's current generation. *)
let needs_check t memo i = !verify_checksums && memo.(i) <> Pmem.generation t.region
let passed t memo i = memo.(i) <- Pmem.generation t.region

let corrupted t layer index =
  Integrity.Corrupted { region_id = Pmem.region_id t.region; layer; index }

(* Byte-wise comparison of [s.[pos .. pos+len-1]] with [key] from [kpos]
   on: the sign of the first differing byte, 1 when [key] ends first, 0
   when all [len] bytes match. Chained over the pieces of a stored key, it
   is [String.compare] without building the key. *)
let rec compare_head s pos len key kpos =
  if len = 0 then 0
  else if kpos >= String.length key then 1
  else
    let c = Char.compare (String.get s pos) (String.get key kpos) in
    if c <> 0 then c else compare_head s (pos + 1) (len - 1) key (kpos + 1)

(* Record [g] at [r] in the view [s]: verified against its inline CRC
   (once per region generation). *)
let check_record t g s r =
  let w = record_width t in
  if needs_check t t.record_gens g then begin
    if Builder.read_u32 s (r + w - 4) <> Util.Crc32.update 0 s r (w - 4) then
      raise (corrupted t "prefix" g);
    passed t t.record_gens g
  end

(* One PM access: the fixed-width prefix-layer record of group [g], checked
   and parsed in place. A record whose meta index or shared length is out
   of range (rot read with checks off) gets no [head_cmp]/[key_prefix];
   [check_prefix] raises for it where the group prefix is first used. *)
let read_record_for ?(with_prefix = false) t g ~probe_slot ~key =
  let w = record_width t in
  Pmem.with_view t.dev t.region ~off:(t.prefix_off + (g * w)) ~len:w (fun s r ->
      check_record t g s r;
      let p = r + t.prefix_len in
      let shared = Char.code s.[p + 6] and meta_idx = Builder.read_u16 s (p + 7) in
      let well_formed = meta_idx < Array.length t.metas && shared <= t.prefix_len in
      let tag = if well_formed then t.metas.(meta_idx).tag else "" in
      let tag_len = String.length tag in
      {
        offset = Builder.read_u32 s p;
        count_ = Builder.read_u16 s (p + 4);
        shared;
        meta_idx;
        slot_cmp = compare_head s r t.prefix_len probe_slot 0;
        head_cmp =
          (if not well_formed then 0
           else
             let c = compare_head tag 0 tag_len key 0 in
             if c <> 0 then c else compare_head s r shared key tag_len);
        key_prefix =
          (if not (well_formed && with_prefix) then ""
           else begin
             let b = Bytes.create (tag_len + shared) in
             Bytes.blit_string tag 0 b 0 tag_len;
             Bytes.blit_string s r b tag_len shared;
             Bytes.unsafe_to_string b
           end);
      })

let read_record ?with_prefix t g = read_record_for ?with_prefix t g ~probe_slot:"" ~key:""

(* The exceptions the group prefix raised when it was built by slicing
   the record (a rotten meta index or shared length, read with checks
   off), at the point where it was built. *)
let check_prefix t record =
  if record.meta_idx >= Array.length t.metas then invalid_arg "index out of bounds";
  if record.shared > t.prefix_len then invalid_arg "String.sub / Bytes.sub"

(* Host-only: the entry-layer offset of group [g] from its record, checked
   as [read_record] would. *)
let inspect_offset t g =
  let w = record_width t in
  Pmem.inspect t.region ~off:(t.prefix_off + (g * w)) ~len:w (fun s r ->
      check_record t g s r;
      Builder.read_u32 s (r + t.prefix_len))

(* The peek below reads group [g]'s first key, which steers lookups; unless
   the group already passed at this generation, check its CRC over the
   region in place first. Host-only, like the memo's seeding: the bytes
   the peek reads are charged, the rest of the extent is not. *)
let check_peek t g record =
  if needs_check t t.group_gens g then begin
    let stop = if g + 1 < t.group_count then inspect_offset t (g + 1) else t.entry_len in
    let len = stop - record.offset in
    if Pmem.inspect t.region ~off:record.offset ~len (fun s pos -> Util.Crc32.update 0 s pos len)
       <> t.gcrcs.(g)
    then raise (corrupted t "entry" g);
    passed t t.group_gens g
  end

(* The stored suffix of group [g]'s first key, passed to [part] piece by
   piece: read the head of the group's extent for the length varint and
   the suffix, and a second access only when the suffix outruns the peek.
   Used only to break slot ties and to follow version runs. *)
let peek_first_key t g record ~part =
  let peek = min 16 (t.entry_len - record.offset) in
  let rest =
    Pmem.with_view t.dev t.region ~off:record.offset ~len:peek (fun s pos ->
        check_peek t g record;
        let c = Util.Cursor.create ~stop:(pos + peek) s pos in
        let suffix_len = Util.Cursor.varint c in
        let p = Util.Cursor.pos c in
        let available = pos + peek - p in
        if suffix_len < 0 then invalid_arg "String.sub / Bytes.sub";
        if suffix_len <= available then begin
          part s p suffix_len;
          0
        end
        else begin
          part s p available;
          suffix_len - available
        end)
  in
  if rest > 0 then
    Pmem.with_view t.dev t.region ~off:(record.offset + peek) ~len:rest (fun s pos ->
        part s pos rest);
  check_prefix t record

(* [String.compare] of group [g]'s first key with the key [record] was read
   for, compared in place. *)
let compare_first_key t g record key =
  let c = ref record.head_cmp in
  let kpos =
    ref
      (if record.meta_idx < Array.length t.metas then
         String.length t.metas.(record.meta_idx).tag + record.shared
       else 0)
  in
  peek_first_key t g record ~part:(fun s pos len ->
      if !c = 0 then begin
        c := compare_head s pos len key !kpos;
        kpos := !kpos + len
      end);
  if !c <> 0 then !c else if !kpos < String.length key then -1 else 0

(* Group [g]'s first key itself; [record] was read [~with_prefix]. *)
let first_key t g record =
  let b = Buffer.create 64 in
  peek_first_key t g record ~part:(fun s pos len -> Buffer.add_substring b s pos len);
  record.key_prefix ^ Buffer.contents b

let group_extent t g record =
  let stop =
    if g + 1 < t.group_count then (read_record t (g + 1)).offset else t.entry_len
  in
  (record.offset, stop)

(* A group's extent, read in place and verified against the handle-cached
   group CRC — one pass over the view, no extra PM access, once per region
   generation — so a rotten group raises instead of decoding junk; then the
   decode CPU of the whole group is charged and [decode s pos stop] runs on
   the view, which it must not keep. *)
let with_group t g record decode =
  let start, stop = group_extent t g record in
  let len = stop - start in
  Pmem.with_view t.dev t.region ~off:start ~len (fun s pos ->
      if needs_check t t.group_gens g then begin
        if Util.Crc32.update 0 s pos len <> t.gcrcs.(g) then raise (corrupted t "entry" g);
        passed t t.group_gens g
      end;
      charge_cpu t.dev (float_of_int record.count_ *. decode_cpu_ns);
      decode s pos (pos + len))

(* Decode a group's entries, reconstructing full keys; [record] was read
   [~with_prefix]. Keys carry the hashes recorded at build while the region
   still holds the sealed bytes, and are hashed afresh otherwise. *)
let read_group t g record =
  with_group t g record (fun s pos stop ->
      check_prefix t record;
      let key_prefix = record.key_prefix in
      let cur = Util.Cursor.create ~stop s pos in
      if Pmem.generation t.region = t.hashes_gen then begin
        let first = t.group_first.(g) in
        Array.init record.count_ (fun i ->
            Util.Kv.decode_hashed ~key_prefix ~key_hash:t.hashes.(first + i) cur)
      end
      else Array.init record.count_ (fun _ -> Util.Kv.decode_from ~key_prefix cur))

(* Reopen a table from its persisted region (after a restart or crash):
   the footer locates the layers, the meta layer restores the tag index and
   table statistics, and the boundary keys are re-read from the entry
   layer. Only the DRAM handle is rebuilt; no table data moves. *)
let open_existing dev region =
  let len = Pmem.region_len region in
  if len < footer_bytes then invalid_arg "Pm_table.open_existing: region too small";
  let raw = Pmem.read dev region ~off:(len - footer_bytes) ~len:footer_bytes in
  let format_version =
    let m = Builder.read_u32 raw 18 in
    if m = magic then 1
    else if m = magic_v2 then 2
    else failwith "Pm_table.open_existing: bad magic (not a PM table, or torn write)"
  in
  if
    !verify_checksums
    && Builder.read_u32 raw 22 <> Util.Crc32.update 0 raw 0 (footer_bytes - 4)
  then
    raise
      (Integrity.Corrupted
         { region_id = Pmem.region_id region; layer = "footer"; index = 0 });
  let entry_len = Builder.read_u32 raw 0 in
  let meta_off = Builder.read_u32 raw 4 in
  let group_count = Builder.read_u32 raw 8 in
  let prefix_len = Char.code raw.[12] in
  let group_size = Char.code raw.[13] in
  let meta_crc = Builder.read_u32 raw 14 in
  let meta_raw = Pmem.read dev region ~off:meta_off ~len:(len - footer_bytes - meta_off) in
  if !verify_checksums && Util.Crc32.string meta_raw <> meta_crc then
    raise
      (Integrity.Corrupted
         { region_id = Pmem.region_id region; layer = "meta"; index = 0 });
  let gcrc_off = meta_off - (4 * group_count) in
  let gcrc_raw =
    if group_count = 0 then ""
    else Pmem.read dev region ~off:gcrc_off ~len:(4 * group_count)
  in
  let gcrcs = Array.init group_count (fun g -> Builder.read_u32 gcrc_raw (4 * g)) in
  let meta_count, pos = Util.Varint.read meta_raw 0 in
  let pos = ref pos in
  let metas =
    Array.init meta_count (fun _ ->
        let tag, p = Util.Varint.read_string meta_raw !pos in
        let g_lo, p = Util.Varint.read meta_raw p in
        let g_hi, p = Util.Varint.read meta_raw p in
        pos := p;
        { tag; g_lo; g_hi })
  in
  let count, p = Util.Varint.read meta_raw !pos in
  let min_seq, p = Util.Varint.read meta_raw p in
  let max_seq, p = Util.Varint.read meta_raw p in
  let payload_bytes, p = Util.Varint.read meta_raw p in
  let bloom =
    if format_version < 2 then None
    else
      let raw, _ = Util.Varint.read_string meta_raw p in
      Some (Bloom.deserialize raw)
  in
  let t =
    {
      bloom;
      dev;
      region;
      count;
      group_size;
      prefix_len;
      group_count;
      entry_len;
      prefix_off = entry_len;
      meta_off;
      metas;
      gcrcs;
      record_gens = Array.make group_count (-1);
      group_gens = Array.make group_count (-1);
      hashes = [||];
      group_first = [||];
      hashes_gen = -1;
      meta_crc;
      min_key = "";
      max_key = "";
      min_seq;
      max_seq;
      payload_bytes;
    }
  in
  if group_count = 0 then failwith "Pm_table.open_existing: empty table";
  let first_key = first_key t 0 (read_record ~with_prefix:true t 0) in
  let last_group =
    read_group t (group_count - 1) (read_record ~with_prefix:true t (group_count - 1))
  in
  let last_key = last_group.(Array.length last_group - 1).Util.Kv.key in
  { t with min_key = first_key; max_key = last_key }


(* Metas whose extended tag is a prefix of [key], i.e. runs that can hold
   it. Tags are sorted; normally zero or one matches, with a rare second on
   nested prefixes, so we check the rightmost tag <= key and its left
   neighbours while they remain prefixes. *)
let metas_for t key =
  let n = Array.length t.metas in
  if n = 0 then []
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    if String.compare t.metas.(0).tag key > 0 then []
    else begin
      while !lo < !hi do
        let mid = (!lo + !hi + 1) / 2 in
        if String.compare t.metas.(mid).tag key <= 0 then lo := mid else hi := mid - 1
      done;
      let rec collect i acc =
        if i < 0 then acc
        else if Util.Keys.is_prefix ~prefix:t.metas.(i).tag key then
          collect (i - 1) (t.metas.(i) :: acc)
        else acc
      in
      collect !lo []
    end
  end

(* Compare group [g]'s first entry against probe (key, +inf): slots first
   (compared in place by the caller's [record] read), the exact first key
   only on ties. Returns < 0 when the group starts before the probe. *)
let compare_group_start t g record ~key =
  if record.slot_cmp <> 0 then record.slot_cmp
  else begin
    let c = compare_first_key t g record key in
    if c <> 0 then c else 1 (* same key: first entry sorts after (key, +inf) *)
  end

(* Last group in [g_lo, g_hi) starting at or before the probe, or None when
   the probe precedes the run's first group. *)
let locate t ~g_lo ~g_hi ~probe_slot ~key =
  let starts_after g = compare_group_start t g (read_record_for t g ~probe_slot ~key) ~key > 0 in
  if g_hi <= g_lo then None
  else if starts_after g_lo then None
  else begin
    let lo = ref g_lo and hi = ref (g_hi - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if not (starts_after mid) then lo := mid else hi := mid - 1
    done;
    Some !lo
  end

(* The first entry of group [g] with [key]: the same PM access, check and
   charge as [read_group], but keys are compared in place against [key]'s
   tail past the group prefix and only the match is decoded. A key that
   does not open with the group prefix can match nothing; the group is
   still scanned, as a decode would. *)
let find_in_group t g record key ~key_hash =
  with_group t g record (fun s pos stop ->
      check_prefix t record;
      let skip =
        if record.head_cmp = 0 then String.length t.metas.(record.meta_idx).tag + record.shared
        else String.length key + 1
      in
      Util.Kv.find_from ~skip ~key_hash (Util.Cursor.create ~stop s pos) ~count:record.count_ key)

let get_in_run t ~g_lo ~g_hi key ~key_hash tag =
  let probe_slot = pad_slot t.prefix_len (strip tag key) in
  (* Version runs can spill across group boundaries: after the landing
     group, follow groups while they still open with the probe key. *)
  let rec spill g =
    if g >= g_hi then None
    else
      let record = read_record_for t g ~probe_slot ~key in
      if compare_first_key t g record key = 0 then
        match find_in_group t g record key ~key_hash with
        | Some e -> Some e
        | None -> spill (g + 1)
      else None
  in
  match locate t ~g_lo ~g_hi ~probe_slot ~key with
  | None ->
      (* The probe (key, +inf) sorts before every entry of its own key, so
         a key that opens the run lands here: check the first group. *)
      spill g_lo
  | Some g -> (
      let record = read_record_for t g ~probe_slot ~key in
      match find_in_group t g record key ~key_hash with
      | Some e -> Some e
      | None -> spill (g + 1))

let has_bloom t = t.bloom <> None

let get ?(use_bloom = true) t key =
  if key < t.min_key || key > t.max_key then None
  else
    let key_hash = Util.Kv.key_hash key in
    let screened =
      match t.bloom with
      | Some b when use_bloom ->
          incr bloom_probes;
          Obs.Attr.charge Obs.Attr.Pm_bloom 0.0;
          let absent = not (Bloom.mem_hash b key_hash) in
          if absent then incr bloom_negatives;
          absent
      | _ -> false
    in
    if screened then None
    else
      List.find_map
        (fun { tag; g_lo; g_hi } -> get_in_run t ~g_lo ~g_hi key ~key_hash tag)
        (metas_for t key)

let read_group_at t g = read_group t g (read_record ~with_prefix:true t g)

let iter t f =
  for g = 0 to t.group_count - 1 do
    Array.iter f (read_group_at t g)
  done

(* Every entry in order: the reads, checks and charges of [iter], decoded
   group by group straight into arrays. *)
let to_array t =
  Array.concat (List.init t.group_count (read_group_at t))

(* First group that could contain a key >= [start]: per run, locate and
   step back never needed (locate gives last group starting <= start, whose
   tail may reach start); runs whose tag region sorts entirely before
   [start] are skipped. *)
let range t ~start ~stop f =
  if stop > t.min_key && start <= t.max_key then begin
    let start_group =
      (* Find the first run whose key region may reach [start]. *)
      let rec scan i =
        if i >= Array.length t.metas then t.group_count
        else begin
          let m = t.metas.(i) in
          if Util.Keys.is_prefix ~prefix:m.tag start then
            let probe_slot = pad_slot t.prefix_len (strip m.tag start) in
            match locate t ~g_lo:m.g_lo ~g_hi:m.g_hi ~probe_slot ~key:start with
            | Some g -> g
            | None -> m.g_lo
          else if String.compare m.tag start >= 0 then m.g_lo
          else
            (* Every key of this run shares [m.tag], which sorts before
               [start] without being its prefix, so every key of the run
               sorts before [start]: skip the run. *)
            scan (i + 1)
        end
      in
      scan 0
    in
    let continue = ref true in
    let g = ref start_group in
    while !continue && !g < t.group_count do
      let entries = read_group_at t !g in
      Array.iter
        (fun (e : Util.Kv.entry) ->
          if String.compare e.key stop >= 0 then continue := false
          else if String.compare e.key start >= 0 then f e)
        entries;
      incr g
    done
  end

(* Full checksum walk from the medium (scrub). The footer and meta layer
   are re-read from PM — the handle's DRAM copies can outlive rot in the
   persisted bytes — then, with the verification memo cleared, every
   prefix record and group extent is checked. Returns (layer, group index)
   per failure, empty when clean. *)
let verify t =
  if not !verify_checksums then []
  else begin
    Array.fill t.record_gens 0 t.group_count (-1);
    Array.fill t.group_gens 0 t.group_count (-1);
    let bad = ref [] in
    let note layer index = bad := (layer, index) :: !bad in
    let len = Pmem.region_len t.region in
    (try
       let raw = Pmem.read t.dev t.region ~off:(len - footer_bytes) ~len:footer_bytes in
       let m = Builder.read_u32 raw 18 in
       if
         (m <> magic && m <> magic_v2)
         || Builder.read_u32 raw 22 <> Util.Crc32.update 0 raw 0 (footer_bytes - 4)
       then note "footer" 0
     with _ -> note "footer" 0);
    (try
       let meta_raw =
         Pmem.read t.dev t.region ~off:t.meta_off ~len:(len - footer_bytes - t.meta_off)
       in
       if Util.Crc32.string meta_raw <> t.meta_crc then note "meta" 0
     with _ -> note "meta" 0);
    (* The persisted group-checksum layer itself (the DRAM cache used by
       reads would mask rot in it until the next reopen). *)
    (try
       let gcrc_off = t.meta_off - (4 * t.group_count) in
       let raw = Pmem.read t.dev t.region ~off:gcrc_off ~len:(4 * t.group_count) in
       for g = 0 to t.group_count - 1 do
         if Builder.read_u32 raw (4 * g) <> t.gcrcs.(g) then note "gcrc" g
       done
     with _ -> note "gcrc" 0);
    for g = 0 to t.group_count - 1 do
      match read_record ~with_prefix:true t g with
      | record -> (
          try ignore (read_group t g record) with _ -> note "entry" g)
      | exception _ -> note "prefix" g
    done;
    List.rev !bad
  end

(* Salvage: decode every group that still checksums; the keys that may have
   been lost with the failing ones are bounded conservatively by the last
   surviving key before the first bad group and the first surviving key
   after the last one (table boundaries when no such neighbour survives).
   Returns the surviving entries in order plus that lost range, or [None]
   when nothing was lost. *)
let salvage_entries t =
  let groups =
    Array.init t.group_count (fun g ->
        try Some (read_group_at t g) with _ -> None)
  in
  let survivors =
    Array.concat (List.filter_map Fun.id (Array.to_list groups))
  in
  let first_bad = ref (-1) and last_bad = ref (-1) in
  Array.iteri
    (fun g -> function
      | None ->
          if !first_bad < 0 then first_bad := g;
          last_bad := g
      | Some _ -> ())
    groups;
  if !first_bad < 0 then (survivors, None)
  else begin
    let lo = ref t.min_key and hi = ref t.max_key in
    (try
       for g = !first_bad - 1 downto 0 do
         match groups.(g) with
         | Some es when Array.length es > 0 ->
             lo := es.(Array.length es - 1).Util.Kv.key;
             raise Exit
         | _ -> ()
       done
     with Exit -> ());
    (try
       for g = !last_bad + 1 to t.group_count - 1 do
         match groups.(g) with
         | Some es when Array.length es > 0 ->
             hi := es.(0).Util.Kv.key;
             raise Exit
         | _ -> ()
       done
     with Exit -> ());
    (survivors, Some (!lo, !hi))
  end
