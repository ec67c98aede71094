(* Bloom filter with double hashing (Kirsch-Mitzenmacher).

   One filter per SSTable, sized by bits-per-key like LevelDB/RocksDB.
   k probe positions are derived from two independent 32-bit hashes of the
   key: g_i = h1 + i*h2. No false negatives (property-tested); false
   positive rate ~ (1 - e^{-kn/m})^k. *)

type t = { bits : Bytes.t; nbits : int; k : int }

(* FNV-1a for the first hash, then a murmur-style finalizer of it for the
   second — so one pass over the key yields both. *)
let hash1 s =
  let h = ref 0x811c9dc5 in
  for i = 0 to String.length s - 1 do
    h := (!h lxor Char.code (String.get s i)) * 0x01000193 land 0x7fffffff
  done;
  !h

let hash2_of h1 =
  let h = ref (h1 lxor 0x5bd1e995) in
  h := !h * 0xcc9e2d51 land 0x7fffffff;
  h := !h lxor (!h lsr 15);
  h := !h * 0x1b873593 land 0x7fffffff;
  h := !h lxor (!h lsr 13);
  (* An even h2 would make probes cycle; force odd. *)
  !h lor 1

let hashes key =
  let h1 = hash1 key in
  (h1, hash2_of h1)

let optimal_k bits_per_key =
  let k = int_of_float (float_of_int bits_per_key *. 0.69) in
  if k < 1 then 1 else if k > 30 then 30 else k

let create ~bits_per_key n =
  let n = max n 1 in
  let nbits = max 64 (n * bits_per_key) in
  { bits = Bytes.make ((nbits + 7) / 8) '\000'; nbits; k = optimal_k bits_per_key }

let set_bit t i =
  let byte = i / 8 and bit = i mod 8 in
  Bytes.set t.bits byte (Char.chr (Char.code (Bytes.get t.bits byte) lor (1 lsl bit)))

let get_bit t i =
  let byte = i / 8 and bit = i mod 8 in
  Char.code (Bytes.get t.bits byte) land (1 lsl bit) <> 0

(* Probe i sits at (h1 + i*h2) mod nbits. Both hashes are reduced once and
   the position steps by h2 mod nbits with a conditional subtract — the
   same bits, one division per key instead of k. *)
let step t pos delta =
  let next = pos + delta in
  if next >= t.nbits then next - t.nbits else next

let add t key =
  let h1 = hash1 key in
  let delta = hash2_of h1 mod t.nbits in
  let pos = ref (h1 mod t.nbits) in
  for _ = 1 to t.k do
    set_bit t !pos;
    pos := step t !pos delta
  done

let mem t key =
  let h1 = hash1 key in
  let delta = hash2_of h1 mod t.nbits in
  let rec probe i pos = i >= t.k || (get_bit t pos && probe (i + 1) (step t pos delta)) in
  probe 0 (h1 mod t.nbits)

let size_bytes t = Bytes.length t.bits

let of_keys ~bits_per_key keys =
  let t = create ~bits_per_key (List.length keys) in
  List.iter (add t) keys;
  t

(* Persisted form: varint nbits, varint k, raw bit bytes — so SSTable meta
   blocks can store the filter and recovery can reopen it. *)
let serialize t =
  let buf = Buffer.create (Bytes.length t.bits + 8) in
  Util.Varint.write buf t.nbits;
  Util.Varint.write buf t.k;
  Buffer.add_bytes buf t.bits;
  Buffer.contents buf

let deserialize s =
  let nbits, pos = Util.Varint.read s 0 in
  let k, pos = Util.Varint.read s pos in
  let byte_count = (nbits + 7) / 8 in
  if String.length s - pos < byte_count then failwith "Bloom.deserialize: truncated";
  { bits = Bytes.of_string (String.sub s pos byte_count); nbits; k }

let serialized_size t = Util.Varint.size t.nbits + Util.Varint.size t.k + Bytes.length t.bits
