(* A moving read position over an encoded string (see cursor.mli). The
   decoders advance [pos] in place, so decoding a record allocates only the
   strings and the record it returns. Every read stops at [stop], so a view
   of a larger buffer decodes exactly as a copy of the slice would. *)

type t = { s : string; mutable pos : int; stop : int }

let create ?stop s pos =
  let stop =
    match stop with
    | None -> String.length s
    | Some stop ->
        if stop < 0 || stop > String.length s then invalid_arg "Cursor.create: stop out of bounds";
        stop
  in
  { s; pos; stop }

let pos c = c.pos

(* The LEB128 decoder behind [Varint.read] (see varint.ml for the format). *)
let rec varint_from c pos shift acc =
  if pos >= c.stop then failwith "Varint.read: truncated input";
  let byte = Char.code (String.get c.s pos) in
  let acc = acc lor ((byte land 0x7f) lsl shift) in
  if byte < 0x80 then begin
    c.pos <- pos + 1;
    acc
  end
  else if shift + 7 > 62 then failwith "Varint.read: overflow"
  else varint_from c (pos + 1) (shift + 7) acc

let varint c = varint_from c c.pos 0 0

let byte c =
  if c.pos >= c.stop then failwith "Cursor.byte: truncated input";
  let b = String.get c.s c.pos in
  c.pos <- c.pos + 1;
  b

(* Length of the string at the cursor, with the cursor left on its first
   byte; checks the whole string is present. A 9-byte varint can decode to
   a negative int, so that is rejected too. *)
let string_len c =
  let len = varint c in
  if len < 0 || len > c.stop - c.pos then
    failwith "Varint.read_string: truncated input";
  len

let string ?(prefix = "") c =
  let len = string_len c in
  let start = c.pos in
  c.pos <- start + len;
  if String.length prefix = 0 then String.sub c.s start len
  else begin
    let plen = String.length prefix in
    let b = Bytes.create (plen + len) in
    Bytes.blit_string prefix 0 b 0 plen;
    Bytes.blit_string c.s start b plen len;
    Bytes.unsafe_to_string b
  end

let skip_string c =
  let len = string_len c in
  c.pos <- c.pos + len

let rec equal_sub a aoff b boff len =
  len <= 0
  || (String.get a aoff = String.get b boff && equal_sub a (aoff + 1) b (boff + 1) (len - 1))

let suffix_equals c key ~from =
  let len = string_len c in
  let start = c.pos in
  c.pos <- start + len;
  from >= 0 && from + len = String.length key && equal_sub c.s start key from len

(* Byte-wise, like [String.compare]: the first differing byte decides, then
   the length. *)
let compare_string c key =
  let len = string_len c in
  let start = c.pos in
  c.pos <- start + len;
  let klen = String.length key in
  let n = min len klen in
  let rec from i =
    if i = n then Int.compare len klen
    else
      let a = String.get c.s (start + i) and b = String.get key i in
      if a = b then from (i + 1) else Char.compare a b
  in
  from 0
