(* CRC-32 (IEEE 802.3 polynomial, reflected), slicing-by-8. Guards every
   persisted structure: PM-table groups and records, SSTable blocks, WAL
   records, the manifest and the config fingerprint — so it sits on the
   read path of every get.

   Slicing-by-8 folds eight input bytes per step through eight 256-entry
   tables: [tables.(k * 256 + b)] is the CRC contribution of byte [b]
   followed by [k] zero bytes. The result is bit-for-bit the byte-at-a-time
   CRC; only the number of table lookups per byte changes. The tables are
   built once at module initialisation. *)

let poly = 0xEDB88320

let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      if !c land 1 = 1 then c := poly lxor (!c lsr 1) else c := !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

(* Unsigned little-endian u32; [Int32.to_int] sign-extends. *)
let u32 s i = Int32.to_int (String.get_int32_le s i) land 0xFFFFFFFF

let update crc s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then invalid_arg "Crc32.update";
  let t = tables in
  let crc = ref ((crc lxor 0xFFFFFFFF) land 0xFFFFFFFF) in
  let i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    let lo = !crc lxor u32 s !i and hi = u32 s (!i + 4) in
    crc :=
      t.((7 * 256) + (lo land 0xff))
      lxor t.((6 * 256) + ((lo lsr 8) land 0xff))
      lxor t.((5 * 256) + ((lo lsr 16) land 0xff))
      lxor t.((4 * 256) + (lo lsr 24))
      lxor t.((3 * 256) + (hi land 0xff))
      lxor t.((2 * 256) + ((hi lsr 8) land 0xff))
      lxor t.(256 + ((hi lsr 16) land 0xff))
      lxor t.(hi lsr 24);
    i := !i + 8
  done;
  for j = stop8 to pos + len - 1 do
    crc := t.((!crc lxor Char.code s.[j]) land 0xff) lxor (!crc lsr 8)
  done;
  !crc lxor 0xFFFFFFFF

let string s = update 0 s 0 (String.length s)

(* [update] reads its argument only while it runs, so viewing a buffer that
   is still being filled as a string for the call is sound. *)
let update_bytes crc b pos len = update crc (Bytes.unsafe_to_string b) pos len
