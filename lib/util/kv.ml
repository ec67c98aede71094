(* The record type flowing through every layer of the LSM-tree.

   Keys and values are opaque byte strings. Each write is stamped with a
   monotonically increasing sequence number; a (key, seq) pair identifies one
   version. Within a key, higher seq shadows lower seq. Deletes are
   tombstones that shadow older versions and are dropped only when the merge
   reaches the bottom level. *)

type kind = Put | Delete

(* [key_hash] is [key_hash key], computed once where the entry is made:
   the type is private, so no entry outside this module can carry a stale
   one, and structural equality still means equal fields. *)
type entry = { key : string; seq : int; kind : kind; value : string; key_hash : int }

(* 31-bit FNV-1a; stored Bloom filters depend on its values. Every step is
   kept modulo 2^63 and masked once at the end: the low 31 bits of an xor
   and a product depend only on the low 31 bits of their operands, so this
   is the per-byte-masked loop's value. Eight bytes are loaded per step
   and folded byte by byte, low first. *)
let fnv_prime = 0x01000193

let key_hash s =
  let n = String.length s in
  let h = ref 0x811c9dc5 and i = ref 0 in
  while !i + 8 <= n do
    let w = String.get_int64_le s !i in
    (* [Int64.to_int] keeps the low 63 bits: bytes 0-6 whole *)
    let lo = Int64.to_int w in
    let x = (!h lxor (lo land 0xff)) * fnv_prime in
    let x = (x lxor ((lo lsr 8) land 0xff)) * fnv_prime in
    let x = (x lxor ((lo lsr 16) land 0xff)) * fnv_prime in
    let x = (x lxor ((lo lsr 24) land 0xff)) * fnv_prime in
    let x = (x lxor ((lo lsr 32) land 0xff)) * fnv_prime in
    let x = (x lxor ((lo lsr 40) land 0xff)) * fnv_prime in
    let x = (x lxor ((lo lsr 48) land 0xff)) * fnv_prime in
    h := (x lxor Int64.to_int (Int64.shift_right_logical w 56)) * fnv_prime;
    i := !i + 8
  done;
  for j = !i to n - 1 do
    h := (!h lxor Char.code (String.get s j)) * fnv_prime
  done;
  (* the byte loop masked after each byte, so it left the empty key's
     offset basis, above 31 bits, as it was *)
  if n = 0 then !h else !h land 0x7fffffff

let make ~key ~seq ~kind ~value = { key; seq; kind; value; key_hash = key_hash key }
let entry ?(kind = Put) ~key ~seq value = make ~key ~seq ~kind ~value
let tombstone ~key ~seq = make ~key ~seq ~kind:Delete ~value:""
let filler = tombstone ~key:"" ~seq:0

(* Internal ordering: by key ascending, then by seq *descending*, so the
   newest version of a key sorts first — the order every merge relies on. *)
let compare_entry a b =
  let c = String.compare a.key b.key in
  if c <> 0 then c else compare b.seq a.seq

let sorted_slice name ?(pos = 0) ?len entries =
  let len = match len with Some len -> len | None -> Array.length entries - pos in
  if pos < 0 || len < 0 || pos + len > Array.length entries then
    invalid_arg (name ^ ": slice out of bounds");
  if len = 0 then invalid_arg (name ^ ": empty input");
  for i = pos + 1 to pos + len - 1 do
    if compare_entry entries.(i - 1) entries.(i) > 0 then
      invalid_arg (name ^ ": input not sorted by Kv.compare_entry")
  done;
  (pos, len)

let stripped_size ~strip e =
  let key_len = String.length e.key - strip in
  Varint.size key_len
  + key_len
  + Varint.size e.seq
  + 1
  + Varint.size (String.length e.value)
  + String.length e.value

let encoded_size e = stripped_size ~strip:0 e

let kind_byte = function Put -> '\001' | Delete -> '\000'

let encode_at ~strip b pos e =
  let key_len = String.length e.key - strip in
  let pos = Varint.put b pos key_len in
  Bytes.blit_string e.key strip b pos key_len;
  let pos = Varint.put b (pos + key_len) e.seq in
  Bytes.set b pos (kind_byte e.kind);
  let value_len = String.length e.value in
  let pos = Varint.put b (pos + 1) value_len in
  Bytes.blit_string e.value 0 b pos value_len;
  pos + value_len

let encode ?(strip = 0) buf e =
  let key_len = String.length e.key - strip in
  Varint.write buf key_len;
  Buffer.add_substring buf e.key strip key_len;
  Varint.write buf e.seq;
  Buffer.add_char buf (kind_byte e.kind);
  Varint.write_string buf e.value

(* The rest of an entry once its key, whose hash is [key_hash], has been
   read. *)
let decode_tail c key key_hash =
  let seq = Cursor.varint c in
  let kind = if Cursor.byte c = '\000' then Delete else Put in
  let value = Cursor.string c in
  { key; seq; kind; value; key_hash }

let decode_from ?key_prefix c =
  let key = Cursor.string ?prefix:key_prefix c in
  decode_tail c key (key_hash key)

let decode_hashed ~key_prefix ~key_hash c = decode_tail c (Cursor.string ~prefix:key_prefix c) key_hash

(* Step over the rest of an entry once its key has been read. *)
let skip_tail c =
  ignore (Cursor.varint c);
  ignore (Cursor.byte c);
  Cursor.skip_string c

let find_from ~skip ~key_hash c ~count key =
  let rec scan i =
    if i >= count then None
    else if Cursor.suffix_equals c key ~from:skip then Some (decode_tail c key key_hash)
    else begin
      skip_tail c;
      scan (i + 1)
    end
  in
  scan 0

let find_sorted ~key_hash c ~count key ~visit =
  let rec scan i =
    if i >= count then None
    else begin
      let cmp = Cursor.compare_string c key in
      visit ();
      if cmp = 0 then Some (decode_tail c key key_hash)
      else if cmp > 0 then None
      else begin
        skip_tail c;
        scan (i + 1)
      end
    end
  in
  scan 0

let decode s pos =
  let c = Cursor.create s pos in
  let e = decode_from c in
  (e, Cursor.pos c)

let pp_kind ppf = function
  | Put -> Fmt.string ppf "put"
  | Delete -> Fmt.string ppf "del"

let pp ppf e =
  Fmt.pf ppf "@[<h>%s@%d %a %S@]" e.key e.seq pp_kind e.kind e.value
