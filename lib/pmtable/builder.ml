(* Buffered sequential writer onto a PM region.

   Table builders append through a DRAM staging buffer that is written to
   the device in [chunk] -sized pieces, amortising the per-access write cost
   the way real PM code batches ntstore/clwb. Spills flush (clwb) only the
   cache lines they complete; a line straddling two chunks is flushed once,
   by the spill that fills it (or by [finish] for the final partial line) —
   flushing it early would be wasted work, since the next chunk rewrites it
   and forces another write-back before the closing fence. pmsan counts
   exactly that pattern as a redundant flush. *)

type t = {
  dev : Pmem.t;
  region : Pmem.region;
  chunk : int;
  staging : Buffer.t;
  mutable written : int;      (* bytes already on the device *)
  mutable flushed_upto : int; (* line-aligned clwb high-water mark *)
}

let default_chunk = 4096
let line_bytes = 64

(* Planted-bug kill switches (cf. [Pm_table.verify_checksums]): drop the
   clwb of spilled chunks, or the closing fence, so the sanitizer tests
   can prove pmsan catches an unpersisted seal. Never set in production
   code. *)
let chaos_skip_flush = ref false
let chaos_skip_drain = ref false

let create ?(chunk = default_chunk) dev region =
  {
    dev;
    region;
    chunk;
    staging = Buffer.create chunk;
    written = 0;
    flushed_upto = 0;
  }

let position t = t.written + Buffer.length t.staging

(* Write back the completed lines in [flushed_upto, upto): each line gets
   exactly one clwb per build. *)
let flush_upto t upto =
  if upto > t.flushed_upto && not !chaos_skip_flush then
    Pmem.flush t.dev t.region ~off:t.flushed_upto ~len:(upto - t.flushed_upto);
  t.flushed_upto <- max t.flushed_upto upto

(* One device write of [data] at the append position. *)
let write_out t data =
  Pmem.write t.dev t.region ~off:t.written data;
  t.written <- t.written + String.length data;
  (* leave a partial tail line dirty: the next chunk finishes it *)
  flush_upto t (t.written land lnot (line_bytes - 1))

let spill t =
  if Buffer.length t.staging > 0 then begin
    write_out t (Buffer.contents t.staging);
    Buffer.clear t.staging
  end

(* A string of at least a chunk arriving on an empty staging buffer would
   fill it and spill at once, as exactly one write of the string itself:
   issue that write directly and skip both staging copies. *)
let add_string t s =
  if Buffer.length t.staging = 0 && String.length s >= t.chunk then write_out t s
  else begin
    Buffer.add_string t.staging s;
    if Buffer.length t.staging >= t.chunk then spill t
  end

let add_char t c =
  Buffer.add_char t.staging c;
  if Buffer.length t.staging >= t.chunk then spill t

let add_varint t v =
  Util.Varint.write t.staging v;
  if Buffer.length t.staging >= t.chunk then spill t

(* Fixed-width big-endian u32, for binary-searchable offset slots. *)
let add_u32 t v =
  if v < 0 || v > 0xFFFFFFFF then invalid_arg "Builder.add_u32: out of range";
  add_char t (Char.chr ((v lsr 24) land 0xff));
  add_char t (Char.chr ((v lsr 16) land 0xff));
  add_char t (Char.chr ((v lsr 8) land 0xff));
  add_char t (Char.chr (v land 0xff))

let add_u16 t v =
  if v < 0 || v > 0xFFFF then invalid_arg "Builder.add_u16: out of range";
  add_char t (Char.chr ((v lsr 8) land 0xff));
  add_char t (Char.chr (v land 0xff))

let finish t =
  spill t;
  flush_upto t t.written;  (* the final partial line *)
  if not !chaos_skip_drain then Pmem.drain t.dev;
  (* the seal is a durability barrier: the table must be fully fenced
     before anything references it *)
  (* pmlint:allow flush-before-commit: the only unflushed paths are the
     chaos_skip_flush/chaos_skip_drain kill switches above, planted so the
     sanitizer tests can prove pmsan catches an unpersisted seal; pmsan
     checks the real protocol on every sanitized run *)
  Pmem.commit_point t.dev "pmtable.seal";
  t.written

let read_u32 s pos =
  let b k = Char.code s.[pos + k] in
  (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3

let read_u16 s pos =
  let b k = Char.code s.[pos + k] in
  (b 0 lsl 8) lor b 1
