(* The record type flowing through every layer of the LSM-tree.

   Keys and values are opaque byte strings. Each write is stamped with a
   monotonically increasing sequence number; a (key, seq) pair identifies one
   version. Within a key, higher seq shadows lower seq. Deletes are
   tombstones that shadow older versions and are dropped only when the merge
   reaches the bottom level. *)

type kind = Put | Delete

type entry = { key : string; seq : int; kind : kind; value : string }

let entry ?(kind = Put) ~key ~seq value = { key; seq; kind; value }

let tombstone ~key ~seq = { key; seq; kind = Delete; value = "" }

let filler = { key = ""; seq = 0; kind = Delete; value = "" }

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

(* The rest of an entry once its key has been read. *)
let decode_tail c key =
  let seq = Cursor.varint c in
  let kind = if Cursor.byte c = '\000' then Delete else Put in
  let value = Cursor.string c in
  { key; seq; kind; value }

let decode_from ?key_prefix c = decode_tail c (Cursor.string ?prefix:key_prefix c)

(* Step over the rest of an entry once its key has been read. *)
let skip_tail c =
  ignore (Cursor.varint c);
  ignore (Cursor.byte c);
  Cursor.skip_string c

let find_from ~key_prefix c ~count key =
  let rec scan i =
    if i >= count then None
    else if Cursor.string_equals c ~prefix:key_prefix key then Some (decode_tail c key)
    else begin
      skip_tail c;
      scan (i + 1)
    end
  in
  scan 0

let find_sorted c ~count key ~visit =
  let rec scan i =
    if i >= count then None
    else begin
      let cmp = Cursor.compare_string c key in
      visit ();
      if cmp = 0 then Some (decode_tail c key)
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
