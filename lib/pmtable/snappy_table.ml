(* Array-based PM tables compressed with the snappy-like LZ codec — the
   "Array-snappy" and "Array-snappy-group" baselines of Fig. 6.

   Per-pair mode: each encoded entry is compressed independently.

     [ compressed entries back-to-back ][ u32 slot per entry ]

   A binary-search probe must read and *decompress one entry* to learn its
   key, which is why the paper measures ~2.3x higher read latency than the
   plain array table.

   Group mode: [members_per_group] encoded entries are concatenated and
   compressed together.

     [ compressed groups back-to-back ][ u32 slot per group ]

   Fewer, larger compression calls make building faster and the ratio
   better, but a probe must decompress a *whole group*, making reads slower
   still — exactly the trade-off Fig. 6 reports. *)

type mode = Per_pair | Grouped of int

type t = {
  dev : Pmem.t;
  region : Pmem.region;
  mode : mode;
  count : int;        (* entries *)
  chunks : int;       (* compressed units: entries or groups *)
  slots_off : int;
  data_len : int;
  min_key : string;
  max_key : string;
  min_seq : int;
  max_seq : int;
  payload_bytes : int;
}

let encode_cpu_ns = 30.0
let charge_cpu dev ns = Sim.Clock.advance (Pmem.clock dev) ns

let charge_compress dev input_bytes =
  charge_cpu dev
    (Compress.Lz.compress_call_ns
    +. (float_of_int input_bytes *. Compress.Lz.compress_cost_ns_per_byte))

let charge_decompress dev output_bytes =
  charge_cpu dev
    (Compress.Lz.decompress_call_ns
    +. (float_of_int output_bytes *. Compress.Lz.decompress_cost_ns_per_byte))

let members_of_mode = function Per_pair -> 1 | Grouped k -> k

let build ?(mode = Per_pair) ?pos ?len dev (entries : Util.Kv.entry array) =
  let pos, n = Util.Kv.sorted_slice "Snappy_table.build" ?pos ?len entries in
  let members = members_of_mode mode in
  if members <= 0 then invalid_arg "Snappy_table.build: group size must be positive";
  let chunk_count = (n + members - 1) / members in
  let data = Buffer.create 4096 in
  let offsets = Array.make chunk_count 0 in
  let min_seq = ref max_int and max_seq = ref min_int and payload = ref 0 in
  for c = 0 to chunk_count - 1 do
    offsets.(c) <- Buffer.length data;
    let lo = c * members and hi = min n ((c + 1) * members) in
    let raw = Buffer.create 256 in
    for i = lo to hi - 1 do
      let e = entries.(pos + i) in
      Util.Kv.encode raw e;
      payload := !payload + Util.Kv.encoded_size e;
      if e.Util.Kv.seq < !min_seq then min_seq := e.seq;
      if e.seq > !max_seq then max_seq := e.seq
    done;
    let raw = Buffer.contents raw in
    charge_compress dev (String.length raw);
    Buffer.add_string data (Compress.Lz.compress raw)
  done;
  charge_cpu dev (float_of_int n *. encode_cpu_ns);
  let data_len = Buffer.length data in
  let total = data_len + (4 * chunk_count) in
  let region = Pmem.alloc dev total in
  let builder = Builder.create dev region in
  Builder.add_string builder (Buffer.contents data);
  Array.iter (fun off -> Builder.add_u32 builder off) offsets;
  let written = Builder.finish builder in
  assert (written = total);
  {
    dev;
    region;
    mode;
    count = n;
    chunks = chunk_count;
    slots_off = data_len;
    data_len;
    min_key = entries.(pos).key;
    max_key = entries.(pos + n - 1).key;
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

let chunk_bounds t c =
  let slot = Pmem.read t.dev t.region ~off:(t.slots_off + (4 * c)) ~len:4 in
  let start = Builder.read_u32 slot 0 in
  let stop =
    if c + 1 < t.chunks then
      let slot = Pmem.read t.dev t.region ~off:(t.slots_off + (4 * (c + 1))) ~len:4 in
      Builder.read_u32 slot 0
    else t.data_len
  in
  (start, stop)

(* Read + decompress + decode one compressed unit. *)
let read_chunk t c =
  let start, stop = chunk_bounds t c in
  let compressed = Pmem.read t.dev t.region ~off:start ~len:(stop - start) in
  let raw = Compress.Lz.decompress compressed in
  charge_decompress t.dev (String.length raw);
  let members = members_of_mode t.mode in
  let lo = c * members in
  let count = min members (t.count - lo) in
  let cur = Util.Cursor.create raw 0 in
  Array.init count (fun _ -> Util.Kv.decode_from cur)

(* Last chunk whose first entry <= probe (by entry order). Every probe pays
   a full chunk decompression — the cost Fig. 6b measures. *)
let locate_chunk t probe =
  let first_entry c = (read_chunk t c).(0) in
  if Util.Kv.compare_entry (first_entry 0) probe > 0 then None
  else begin
    let lo = ref 0 and hi = ref (t.chunks - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if Util.Kv.compare_entry (first_entry mid) probe <= 0 then lo := mid else hi := mid - 1
    done;
    Some !lo
  end

let get t key =
  if key < t.min_key || key > t.max_key then None
  else begin
    let probe = Util.Kv.entry ~key ~seq:max_int "" in
    let find_in c = Array.find_opt (fun (e : Util.Kv.entry) -> e.key = key) (read_chunk t c) in
    match locate_chunk t probe with
    | None ->
        (* (key, +inf) sorts before every version of its own key, so a key
           that opens the table lands here: check the first chunk. *)
        find_in 0
    | Some c -> (
        match find_in c with
        | Some e -> Some e
        | None ->
            (* The newest version can open the next chunk when the probe
               falls exactly on a chunk boundary. *)
            if c + 1 < t.chunks then find_in (c + 1) else None)
  end

let to_array t = Array.concat (List.init t.chunks (read_chunk t))

let range t ~start ~stop f =
  if stop > t.min_key && start <= t.max_key then begin
    let probe = Util.Kv.entry ~key:start ~seq:max_int "" in
    let c0 = match locate_chunk t probe with None -> 0 | Some c -> c in
    let continue = ref true in
    let c = ref c0 in
    while !continue && !c < t.chunks do
      Array.iter
        (fun (e : Util.Kv.entry) ->
          if String.compare e.key stop >= 0 then continue := false
          else if String.compare e.key start >= 0 then f e)
        (read_chunk t !c);
      incr c
    done
  end
