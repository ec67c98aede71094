(* DRAM memtable: a skiplist ordered by (key asc, seq desc).

   The write path of every engine variant inserts here; when [byte_size]
   crosses the configured limit the table is rotated to immutable and handed
   to minor compaction. Ordering by seq-descending within a key means a
   point lookup is "seek to (key, +inf seq) and take the first node with
   that key" — the newest version — and iteration yields versions
   newest-first as every merge expects.

   DRAM access costs are charged to the virtual clock per touched node, so
   memtable reads participate in end-to-end simulated latency. *)

let max_level = 12
let branching = 4

type node = {
  entry : Util.Kv.entry;
  next : node option array; (* length = node's level *)
}

type t = {
  clock : Sim.Clock.t;
  rng : Util.Xoshiro.t;
  head : node option array;
  mutable level : int;
  mutable count : int;
  mutable bytes : int;
  mutable min_seq : int;
  mutable max_seq : int;
  dram_access_ns : float;
}

let dram_access_ns_default = 100.0

let create ?(dram_access_ns = dram_access_ns_default) ?(seed = 42) clock =
  {
    clock;
    rng = Util.Xoshiro.create seed;
    head = Array.make max_level None;
    level = 1;
    count = 0;
    bytes = 0;
    min_seq = max_int;
    max_seq = min_int;
    dram_access_ns;
  }

let count t = t.count
let byte_size t = t.bytes
let is_empty t = t.count = 0
let seq_range t = if t.count = 0 then None else Some (t.min_seq, t.max_seq)

let charge t n = Sim.Clock.advance t.clock (float_of_int n *. t.dram_access_ns)

let random_level t =
  let rec loop lvl =
    if lvl < max_level && Util.Xoshiro.int t.rng branching = 0 then loop (lvl + 1) else lvl
  in
  loop 1

(* Strictly-less in skiplist order: (key asc, seq desc). *)
let node_before entry candidate = Util.Kv.compare_entry candidate entry < 0

let insert t entry =
  let update = Array.make max_level None in
  let touched = ref 0 in
  (* Walk from the top level down, recording the rightmost node < entry. *)
  let rec walk level prev =
    if level < 0 then ()
    else begin
      let rec advance prev =
        let next =
          match prev with
          | None -> t.head.(level)
          | Some node -> node.next.(level)
        in
        match next with
        | Some n when node_before entry n.entry ->
            incr touched;
            advance (Some n)
        | _ -> prev
      in
      let prev = advance prev in
      update.(level) <- prev;
      walk (level - 1) prev
    end
  in
  walk (t.level - 1) None;
  let level = random_level t in
  if level > t.level then begin
    for l = t.level to level - 1 do
      update.(l) <- None
    done;
    t.level <- level
  end;
  let node = { entry; next = Array.make level None } in
  for l = 0 to level - 1 do
    match update.(l) with
    | None ->
        node.next.(l) <- t.head.(l);
        t.head.(l) <- Some node
    | Some prev ->
        node.next.(l) <- prev.next.(l);
        prev.next.(l) <- Some node
  done;
  t.count <- t.count + 1;
  t.bytes <- t.bytes + Util.Kv.encoded_size entry;
  if entry.seq < t.min_seq then t.min_seq <- entry.seq;
  if entry.seq > t.max_seq then t.max_seq <- entry.seq;
  charge t (!touched + level)

(* First node in order with node.entry >= probe (probe = (key, max_int) for
   point lookups so the newest version of the key comes first). *)
let seek_node t ~key ~seq =
  let probe = Util.Kv.entry ~key ~seq "" in
  let touched = ref 0 in
  let rec walk level prev =
    let rec advance prev =
      let next = match prev with None -> t.head.(level) | Some n -> n.next.(level) in
      match next with
      | Some n when node_before probe n.entry ->
          incr touched;
          advance (Some n)
      | _ -> prev
    in
    let prev = advance prev in
    if level = 0 then
      match prev with None -> t.head.(0) | Some n -> n.next.(0)
    else walk (level - 1) prev
  in
  let result = walk (t.level - 1) None in
  charge t (max 1 !touched);
  result

let find t key =
  match seek_node t ~key ~seq:max_int with
  | Some node when node.entry.key = key -> Some node.entry
  | _ -> None

let get t key =
  match find t key with
  | Some { kind = Util.Kv.Put; value; _ } -> Some value
  | Some { kind = Util.Kv.Delete; _ } | None -> None

(* All entries in (key asc, seq desc) order; charges a scan cost. *)
let to_array t =
  charge t t.count;
  let out = Array.make t.count Util.Kv.filler in
  let rec fill i = function
    | None -> ()
    | Some node ->
        out.(i) <- node.entry;
        fill (i + 1) node.next.(0)
  in
  fill 0 t.head.(0);
  out

(* Entries with key in [start, stop), newest versions first within a key. *)
let range t ~start ~stop =
  let rec collect acc = function
    | None -> List.rev acc
    | Some node ->
        if String.compare node.entry.Util.Kv.key stop >= 0 then List.rev acc
        else begin
          charge t 1;
          collect (node.entry :: acc) node.next.(0)
        end
  in
  collect [] (seek_node t ~key:start ~seq:max_int)

(* Up to [limit] entries with key >= start (for windowed iteration). *)
let from t ~start ~limit =
  let rec collect n acc = function
    | None -> List.rev acc
    | Some node ->
        if n >= limit then List.rev acc
        else begin
          charge t 1;
          collect (n + 1) (node.entry :: acc) node.next.(0)
        end
  in
  collect 0 [] (seek_node t ~key:start ~seq:max_int)
