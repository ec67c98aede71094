(* SSTable on the simulated SSD, RocksDB-flavoured.

   File layout: data blocks (~4 KiB of encoded entries) appended in key
   order. The index (last key + extent per block) and the Bloom filter are
   kept in the handle, modelling RocksDB's pinned index/filter blocks; data
   block reads hit the device — or DRAM, either via the engine-wide
   capacity-bounded shared block cache ({!Cache.Block_cache}) or via an
   explicit per-table pin ({!warm_cache}), which is how the "SSTable in
   cache" row of Table I is produced.

   Point lookup: bloom check (DRAM, ~free), binary search the index (DRAM),
   read one data block (SSD or cache), scan the block.

   Verification memo: the handle remembers, per data block, the file
   generation ({!Ssd.generation}) at which the block last passed its CRC.
   Every change to the file's bytes bumps the generation, so a block whose
   stored generation is current holds the very bytes that passed and its
   fetch skips the recompute; the device read and its charge are
   unchanged. [build] seeds the memo by comparing each sealed block with
   the image its CRC was computed from. [verify] reads around the memo. *)

let default_block_bytes = 4096
let bits_per_key = 10

type block_meta = { last_key : string; off : int; len : int; entries : int; crc : int }

(* [block = -1] means the meta block (index/filter/stats) failed its
   checksum rather than a data block. *)
exception Corrupted_block of { file_id : int; block : int }

(* Kill switch for every CRC comparison in this module — exists so a fault
   sweep can plant the "forgot to verify checksums" bug and prove it gets
   caught. Leave it [true]. *)
let verify_checksums = ref true

(* Planted-bug kill switch for the integrity tests: append every data block
   with its first byte inverted, so the file no longer holds the blocks
   their checksums were computed from. A build must then leave its
   verification memo empty. Never set in production code. *)
let chaos_damage_append = ref false

type t = {
  ssd : Ssd.t;
  file : Ssd.file;
  blocks : block_meta array;
  bloom : Bloom.t;
  count : int;
  min_key : string;
  max_key : string;
  min_seq : int;
  max_seq : int;
  payload_bytes : int;
  block_gens : int array;  (* memo: generation of each block's last passing check *)
  mutable pinned : string option array option;  (* explicit whole-table pin *)
  mutable shared : Cache.Block_cache.t option;  (* engine-wide bounded cache *)
  dram_access_ns : float;
}

let dram_access_ns_default = 100.0
let dram_byte_ns = 0.05
let decode_cpu_ns = 25.0

let charge_cpu t ns = Sim.Clock.advance (Ssd.clock t.ssd) ns

(* --- Builder --------------------------------------------------------- *)

let meta_magic = 0x53535442 (* "SSTB" *)

(* Index + filter are persisted in a meta block so the table can be
   reopened after a restart (and they cost device writes, like RocksDB's
   index/filter blocks), even though the handle pins them in DRAM. *)
let encode_meta ~blocks ~bloom ~count ~min_key ~max_key ~min_seq ~max_seq ~payload
    ~meta_off =
  let buf = Buffer.create 1024 in
  Util.Varint.write buf (Array.length blocks);
  Array.iter
    (fun m ->
      Util.Varint.write_string buf m.last_key;
      Util.Varint.write buf m.off;
      Util.Varint.write buf m.len;
      Util.Varint.write buf m.entries;
      Util.Varint.write buf m.crc)
    blocks;
  Util.Varint.write_string buf (Bloom.serialize bloom);
  Util.Varint.write buf count;
  Util.Varint.write_string buf min_key;
  Util.Varint.write_string buf max_key;
  Util.Varint.write buf min_seq;
  Util.Varint.write buf max_seq;
  Util.Varint.write buf payload;
  (* fixed footer: u32 meta CRC (over the payload above) | u32 meta offset
     | u32 magic — the index that locates every other checksum is itself
     checksummed *)
  let add_u32 v =
    Buffer.add_char buf (Char.chr ((v lsr 24) land 0xff));
    Buffer.add_char buf (Char.chr ((v lsr 16) land 0xff));
    Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff));
    Buffer.add_char buf (Char.chr (v land 0xff))
  in
  add_u32 (Util.Crc32.string (Buffer.contents buf));
  add_u32 meta_off;
  add_u32 meta_magic;
  Buffer.contents buf

(* Entries are appended to data blocks in order; a block closes as soon as
   it holds [block_bytes] or more. Each block's size is known before it is
   encoded, so it is encoded straight into one image of exactly that size,
   then appended and checksummed. Once the file is sealed, each block's
   stored bytes are compared with its image (host-side, no device read):
   equal bytes at the sealed generation pass their CRC, so the build seeds
   the verification memo and the first read of a block skips the
   recompute. *)
let build ?(block_bytes = default_block_bytes) ?pos ?len ssd
    (entries : Util.Kv.entry array) =
  (* Within a key, versions must arrive newest first: a point lookup serves
     the first match it finds. *)
  let pos, n = Util.Kv.sorted_slice "Sstable.build" ?pos ?len entries in
  let stop = pos + n in
  let file = Ssd.create_file ssd in
  let blocks = ref [] and images = ref [] and off = ref 0 in
  let min_seq = ref max_int and max_seq = ref min_int and payload = ref 0 in
  let first = ref pos in
  while !first < stop do
    let size = ref 0 and last = ref !first in
    while !size < block_bytes && !last < stop do
      size := !size + Util.Kv.encoded_size entries.(!last);
      incr last
    done;
    let image = Bytes.create !size in
    let at = ref 0 in
    for i = !first to !last - 1 do
      let e = entries.(i) in
      at := Util.Kv.encode_at ~strip:0 image !at e;
      if e.seq < !min_seq then min_seq := e.seq;
      if e.seq > !max_seq then max_seq := e.seq
    done;
    payload := !payload + !size;
    (* complete and never written again: no copy *)
    let data = Bytes.unsafe_to_string image in
    let stored =
      if !chaos_damage_append then
        String.mapi (fun i c -> if i = 0 then Char.chr (Char.code c lxor 0xff) else c) data
      else data
    in
    Ssd.append ssd file stored;
    images := data :: !images;
    blocks :=
      { last_key = entries.(!last - 1).key; off = !off; len = !size;
        entries = !last - !first; crc = Util.Crc32.string data }
      :: !blocks;
    off := !off + !size;
    first := !last
  done;
  let blocks = Array.of_list (List.rev !blocks) in
  let bloom = Bloom.create ~bits_per_key n in
  for i = pos to stop - 1 do
    Bloom.add_hash bloom entries.(i).Util.Kv.key_hash
  done;
  let min_key = entries.(pos).key and max_key = entries.(stop - 1).key in
  Ssd.append ssd file
    (encode_meta ~blocks ~bloom ~count:n ~min_key ~max_key ~min_seq:!min_seq
       ~max_seq:!max_seq ~payload:!payload ~meta_off:!off);
  Ssd.seal ssd file;
  let block_gens = Array.make (Array.length blocks) (-1) in
  if !verify_checksums then begin
    let gen = Ssd.generation file in
    List.iteri
      (fun k data ->
        let i = Array.length blocks - 1 - k in
        if Ssd.holds file ~off:blocks.(i).off data then block_gens.(i) <- gen)
      !images
  end;
  {
    ssd;
    file;
    blocks;
    bloom;
    count = n;
    min_key;
    max_key;
    min_seq = !min_seq;
    max_seq = !max_seq;
    payload_bytes = !payload;
    block_gens;
    pinned = None;
    shared = None;
    dram_access_ns = dram_access_ns_default;
  }

(* --- Reader ---------------------------------------------------------- *)

(* Reopen a sealed table from its file after a restart: the footer locates
   the meta block, which restores the index, the Bloom filter, and the
   statistics. Charged as one device read of the meta block. *)
let footer_bytes = 12

let open_existing ssd file =
  let size = Ssd.file_size file in
  if size < footer_bytes then invalid_arg "Sstable.open_existing: file too small";
  let footer = Ssd.pread ssd file ~off:(size - footer_bytes) ~len:footer_bytes in
  let u32 pos =
    let b k = Char.code footer.[pos + k] in
    (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3
  in
  if u32 8 <> meta_magic then
    failwith "Sstable.open_existing: bad magic (not an SSTable, or torn write)";
  let meta_crc = u32 0 in
  let meta_off = u32 4 in
  if meta_off < 0 || meta_off > size - footer_bytes then
    raise (Corrupted_block { file_id = Ssd.file_id file; block = -1 });
  let meta = Ssd.pread ssd file ~off:meta_off ~len:(size - footer_bytes - meta_off) in
  if !verify_checksums && Util.Crc32.string meta <> meta_crc then
    raise (Corrupted_block { file_id = Ssd.file_id file; block = -1 });
  let block_count, pos = Util.Varint.read meta 0 in
  let pos = ref pos in
  let blocks =
    Array.init block_count (fun _ ->
        let last_key, p = Util.Varint.read_string meta !pos in
        let off, p = Util.Varint.read meta p in
        let len, p = Util.Varint.read meta p in
        let entries, p = Util.Varint.read meta p in
        let crc, p = Util.Varint.read meta p in
        pos := p;
        { last_key; off; len; entries; crc })
  in
  let bloom_raw, p = Util.Varint.read_string meta !pos in
  let bloom = Bloom.deserialize bloom_raw in
  let count, p = Util.Varint.read meta p in
  let min_key, p = Util.Varint.read_string meta p in
  let max_key, p = Util.Varint.read_string meta p in
  let min_seq, p = Util.Varint.read meta p in
  let max_seq, p = Util.Varint.read meta p in
  let payload_bytes, _ = Util.Varint.read meta p in
  {
    ssd;
    file;
    blocks;
    bloom;
    count;
    min_key;
    max_key;
    min_seq;
    max_seq;
    payload_bytes;
    block_gens = Array.make block_count (-1);
    pinned = None;
    shared = None;
    dram_access_ns = dram_access_ns_default;
  }

let count t = t.count
let byte_size t = Ssd.file_size t.file
let file_id t = Ssd.file_id t.file
let payload_bytes t = t.payload_bytes
let min_key t = t.min_key
let max_key t = t.max_key
let seq_range t = (t.min_seq, t.max_seq)
let block_count t = Array.length t.blocks

let attach_shared_cache t cache = t.shared <- Some cache

(* Drop every DRAM copy of this table's blocks — the pin and its entries in
   the shared cache. Must run whenever the file's bytes stop being
   authoritative: deletion, quarantine, or a salvage rewrite; otherwise a
   stale cached block could answer for data the device no longer holds. *)
let invalidate_cache t =
  t.pinned <- None;
  match t.shared with
  | Some c -> Cache.Block_cache.invalidate_file c ~file_id:(Ssd.file_id t.file)
  | None -> ()

let delete t =
  invalidate_cache t;
  Ssd.delete_file t.ssd t.file

(* Read block [i] from the device. The checksum persisted at build time
   detects bit rot and torn writes on the way in — computed once per file
   generation, since unchanged bytes can only pass again. *)
let fetch t i =
  let meta = t.blocks.(i) in
  let data = Ssd.pread t.ssd t.file ~off:meta.off ~len:meta.len in
  let gen = Ssd.generation t.file in
  if !verify_checksums && t.block_gens.(i) <> gen then begin
    if Util.Crc32.string data <> meta.crc then
      raise (Corrupted_block { file_id = Ssd.file_id t.file; block = i });
    t.block_gens.(i) <- gen
  end;
  data

(* Read block [i]: DRAM cost when the block is pinned or resident in the
   shared cache, a checked device fetch on miss (then admitted to the
   shared cache). *)
let read_block t i =
  let meta = t.blocks.(i) in
  let pinned_hit =
    match t.pinned with
    | Some slots -> slots.(i)
    | None -> None
  in
  match pinned_hit with
  | Some data ->
      let dt = t.dram_access_ns +. (float_of_int meta.len *. dram_byte_ns) in
      Sim.Clock.advance (Ssd.clock t.ssd) dt;
      Obs.Attr.charge Obs.Attr.Cache_hit dt;
      data
  | None -> (
      match t.shared with
      | None -> fetch t i
      | Some cache -> (
          let fid = Ssd.file_id t.file in
          match Cache.Block_cache.find cache ~file_id:fid ~block:i with
          | Some data -> data
          | None ->
              let data = fetch t i in
              Cache.Block_cache.insert cache ~file_id:fid ~block:i data;
              data))

(* Explicitly pin the whole table in DRAM (one device read per block) —
   the knapsack's "SSTable in cache" placement. Pinned bytes sit outside
   the shared cache's budget on purpose: the pin is a planner decision,
   the cache is a reactive safety net. Pinned hits are served unchecked,
   so every block goes through the checked fetch here: rot raises
   [Corrupted_block] at pin time. *)
let warm_cache t = t.pinned <- Some (Array.mapi (fun i _ -> Some (fetch t i)) t.blocks)

let drop_cache t = t.pinned <- None

(* First block whose last_key >= key. *)
let locate_block t key =
  let n = Array.length t.blocks in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    (* Index resides in DRAM (pinned); charge a light touch. *)
    Sim.Clock.advance (Ssd.clock t.ssd) (t.dram_access_ns /. 4.0);
    if String.compare t.blocks.(mid).last_key key < 0 then lo := mid + 1 else hi := mid
  done;
  if !lo >= n then None else Some !lo

(* Decode and visit a block's entries; [f] may raise to stop early (the
   caller handles it), decode CPU is charged per entry actually decoded. *)
let scan_block t data ~entries f =
  let cur = Util.Cursor.create data 0 in
  for _ = 1 to entries do
    let e = Util.Kv.decode_from cur in
    charge_cpu t decode_cpu_ns;
    f e
  done

(* The first block whose last key is >= [key] holds the key's newest
   version (versions sort newest first). Keys are compared in place and
   only the match is decoded; decode CPU is charged per entry visited, as
   a full decode up to the match would be. *)
let get ?(use_bloom = true) t key =
  if key < t.min_key || key > t.max_key then None
  else
    let key_hash = Util.Kv.key_hash key in
    if use_bloom && not (Bloom.mem_hash t.bloom key_hash) then None
    else
      match locate_block t key with
      | None -> None
      | Some i ->
          Util.Kv.find_sorted ~key_hash
            (Util.Cursor.create (read_block t i) 0)
            ~count:t.blocks.(i).entries key
            ~visit:(fun () -> charge_cpu t decode_cpu_ns)

let iter t f =
  Array.iteri
    (fun i meta ->
      let data = read_block t i in
      scan_block t data ~entries:meta.entries f)
    t.blocks

(* Every entry in order, by [iter]'s reads and charges, into one array
   sized from the same block index. *)
let to_array t =
  let out = Array.make (Array.fold_left (fun acc m -> acc + m.entries) 0 t.blocks) Util.Kv.filler in
  let n = ref 0 in
  iter t (fun e ->
      out.(!n) <- e;
      incr n);
  out

let range t ~start ~stop f =
  if stop > t.min_key && start <= t.max_key then begin
    let i0 = match locate_block t start with None -> Array.length t.blocks | Some i -> i in
    (try
       for i = i0 to Array.length t.blocks - 1 do
         let data = read_block t i in
         scan_block t data ~entries:t.blocks.(i).entries (fun e ->
             if String.compare e.Util.Kv.key stop >= 0 then raise Exit
             else if String.compare e.key start >= 0 then f e)
       done
     with Exit -> ())
  end

let overlaps t ~min:lo ~max:hi =
  not (String.compare t.max_key lo < 0 || String.compare t.min_key hi > 0)

(* Full checksum walk from the medium (scrub): the meta block is re-read
   and re-verified — the handle's pinned DRAM index can outlive rot in the
   persisted copy — and every data block is read around the cache. Returns
   the failing block indices ([-1] for the meta block), [] when clean. *)
let verify t =
  if not !verify_checksums then []
  else begin
    let bad = ref [] in
    (try
       let size = Ssd.file_size t.file in
       if size < footer_bytes then bad := -1 :: !bad
       else begin
         let footer = Ssd.pread t.ssd t.file ~off:(size - footer_bytes) ~len:footer_bytes in
         let u32 pos =
           let b k = Char.code footer.[pos + k] in
           (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3
         in
         let meta_crc = u32 0 and meta_off = u32 4 in
         if
           u32 8 <> meta_magic
           || meta_off < 0
           || meta_off > size - footer_bytes
           ||
           let meta = Ssd.pread t.ssd t.file ~off:meta_off ~len:(size - footer_bytes - meta_off) in
           Util.Crc32.string meta <> meta_crc
         then bad := -1 :: !bad
       end
     with _ -> bad := -1 :: !bad);
    Array.iteri
      (fun i meta ->
        try
          let data = Ssd.pread t.ssd t.file ~off:meta.off ~len:meta.len in
          if Util.Crc32.string data <> meta.crc then bad := i :: !bad
        with _ -> bad := i :: !bad)
      t.blocks;
    List.rev !bad
  end

(* Salvage: decode every data block that still checksums. The lost key
   range is precise here — block [i] covers (blocks[i-1].last_key,
   blocks[i].last_key] — collapsed to one conservative span over all bad
   blocks. A bad meta block ([-1]) loses no data: the handle's pinned index
   still locates every (verified) data block. *)
let salvage_entries t =
  let bad = List.filter (fun i -> i >= 0) (verify t) in
  if bad = [] then (to_array t, None)
  else begin
    let survivors = ref [] in
    Array.iteri
      (fun i meta ->
        if not (List.mem i bad) then
          try
            let data = read_block t i in
            scan_block t data ~entries:meta.entries (fun e -> survivors := e :: !survivors)
          with _ -> ())
      t.blocks;
    let first_bad = List.fold_left min max_int bad in
    let last_bad = List.fold_left max (-1) bad in
    let lo = if first_bad = 0 then t.min_key else t.blocks.(first_bad - 1).last_key in
    let hi = t.blocks.(last_bad).last_key in
    (Array.of_list (List.rev !survivors), Some (lo, hi))
  end
