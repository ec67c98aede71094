(* Uncompressed array-based PM table (the structure MatrixKV uses, and the
   "Array-based" baseline of Fig. 6).

   Layout on the region:

     [ entry data ........ ][ offset slots: u32 per entry ]

   The data area holds entries encoded back-to-back with Kv.encode; the
   metadata area holds one fixed-width offset per entry so binary search can
   jump to any entry. Each binary-search probe therefore costs two PM
   accesses: one for the offset slot, one for the entry bytes -- the double
   access the paper's three-layer structure is designed to avoid. *)

type t = {
  dev : Pmem.t;
  region : Pmem.region;
  count : int;
  slots_off : int;      (* start of the offset area *)
  data_len : int;
  min_key : string;
  max_key : string;
  min_seq : int;
  max_seq : int;
  payload_bytes : int;  (* uncompressed logical size *)
}

(* CPU cost of encoding/decoding one entry, charged alongside device time. *)
let encode_cpu_ns = 30.0
let decode_cpu_ns = 25.0

let charge_cpu dev ns = Sim.Clock.advance (Pmem.clock dev) ns

let build ?pos ?len dev (entries : Util.Kv.entry array) =
  let pos, n = Util.Kv.sorted_slice "Array_table.build" ?pos ?len entries in
  let payload = Buffer.create 4096 in
  let offsets = Array.make n 0 in
  let min_seq = ref max_int and max_seq = ref min_int in
  for i = 0 to n - 1 do
    let e = entries.(pos + i) in
    offsets.(i) <- Buffer.length payload;
    Util.Kv.encode payload e;
    if e.Util.Kv.seq < !min_seq then min_seq := e.seq;
    if e.seq > !max_seq then max_seq := e.seq
  done;
  charge_cpu dev (float_of_int n *. encode_cpu_ns);
  let data_len = Buffer.length payload in
  let total = data_len + (4 * n) in
  let region = Pmem.alloc dev total in
  let builder = Builder.create dev region in
  Builder.add_string builder (Buffer.contents payload);
  Array.iter (fun off -> Builder.add_u32 builder off) offsets;
  let written = Builder.finish builder in
  assert (written = total);
  {
    dev;
    region;
    count = n;
    slots_off = data_len;
    data_len;
    min_key = entries.(pos).key;
    max_key = entries.(pos + n - 1).key;
    min_seq = !min_seq;
    max_seq = !max_seq;
    payload_bytes = data_len;
  }

let count t = t.count
let byte_size t = Pmem.region_len t.region
let payload_bytes t = t.payload_bytes
let min_key t = t.min_key
let max_key t = t.max_key
let seq_range t = (t.min_seq, t.max_seq)
let free t = Pmem.free t.dev t.region
let region_id t = Pmem.region_id t.region

let entry_bounds t i =
  let slot = Pmem.read t.dev t.region ~off:(t.slots_off + (4 * i)) ~len:4 in
  let start = Builder.read_u32 slot 0 in
  let stop =
    if i + 1 < t.count then
      let slot = Pmem.read t.dev t.region ~off:(t.slots_off + (4 * (i + 1))) ~len:4 in
      Builder.read_u32 slot 0
    else t.data_len
  in
  (start, stop)

(* One probe = offset-slot read + entry read: the two PM accesses per
   lookup step that motivate the compressed layout. *)
let read_entry t i =
  let start, stop = entry_bounds t i in
  let raw = Pmem.read t.dev t.region ~off:start ~len:(stop - start) in
  charge_cpu t.dev decode_cpu_ns;
  fst (Util.Kv.decode raw 0)

(* Index of the first entry >= (key, max seq), i.e. the newest version of
   [key] if present. *)
let lower_bound t key =
  let probe = Util.Kv.entry ~key ~seq:max_int "" in
  let lo = ref 0 and hi = ref t.count in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let e = read_entry t mid in
    if Util.Kv.compare_entry e probe < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let get t key =
  if key < t.min_key || key > t.max_key then None
  else begin
    let i = lower_bound t key in
    if i >= t.count then None
    else
      let e = read_entry t i in
      if e.Util.Kv.key = key then Some e else None
  end

(* Sequential scan: read the data area in chunk-sized pieces (charging
   bandwidth, not per-entry random accesses), then decode. *)
let read_data_sequential t =
  let chunk = 4096 in
  let pieces = Buffer.create t.data_len in
  let off = ref 0 in
  while !off < t.data_len do
    let len = min chunk (t.data_len - !off) in
    Buffer.add_string pieces (Pmem.read t.dev t.region ~off:!off ~len);
    off := !off + len
  done;
  Buffer.contents pieces

let to_array t =
  let data = read_data_sequential t in
  charge_cpu t.dev (float_of_int t.count *. decode_cpu_ns);
  let cur = Util.Cursor.create data 0 in
  let out = Array.make t.count Util.Kv.filler in
  for i = 0 to t.count - 1 do
    out.(i) <- Util.Kv.decode_from cur
  done;
  out

(* Entries with key in [start, stop): binary search to the start, then
   sequential reads. *)
let range t ~start ~stop f =
  if stop > t.min_key && start <= t.max_key then begin
    let i0 = lower_bound t start in
    let rec loop i =
      if i < t.count then begin
        let e = read_entry t i in
        if String.compare e.Util.Kv.key stop < 0 then begin
          f e;
          loop (i + 1)
        end
      end
    in
    loop i0
  end
