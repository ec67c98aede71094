(* LEB128-style variable-length integers, used by every on-device encoding
   (PM tables, SSTable blocks). Little-endian base-128 with a continuation
   bit, as in protobuf/LevelDB. *)

let write buf v =
  if v < 0 then invalid_arg "Varint.write: negative";
  let v = ref v in
  while !v >= 0x80 do
    Buffer.add_char buf (Char.chr ((!v land 0x7f) lor 0x80));
    v := !v lsr 7
  done;
  Buffer.add_char buf (Char.chr !v)

let rec put_from b pos v =
  if v < 0x80 then begin
    Bytes.set b pos (Char.chr v);
    pos + 1
  end
  else begin
    Bytes.set b pos (Char.chr ((v land 0x7f) lor 0x80));
    put_from b (pos + 1) (v lsr 7)
  end

let put b pos v =
  if v < 0 then invalid_arg "Varint.put: negative";
  put_from b pos v

let read s pos =
  let c = Cursor.create s pos in
  let v = Cursor.varint c in
  (v, Cursor.pos c)

let size v =
  if v < 0 then invalid_arg "Varint.size: negative";
  let rec loop v acc = if v < 0x80 then acc else loop (v lsr 7) (acc + 1) in
  loop v 1

let write_string buf s =
  write buf (String.length s);
  Buffer.add_string buf s

let read_string s pos =
  let c = Cursor.create s pos in
  let v = Cursor.string c in
  (v, Cursor.pos c)
