(* Unified handle over the four level-0 table structures, so the engine and
   the compaction machinery are agnostic to which structure a configuration
   selects (PM-Blade uses the compressed three-layer table; ablations and
   baselines use the others). *)

type kind =
  | Pm_compressed   (* three-layer prefix-compressed table (the paper's) *)
  | Array_plain
  | Array_snappy
  | Array_snappy_group

type t =
  | Pm of Pm_table.t
  | Array of Array_table.t
  | Snappy of Snappy_table.t

let kind = function
  | Pm _ -> Pm_compressed
  | Array _ -> Array_plain
  | Snappy _ -> Array_snappy (* group mode indistinguishable at this level *)

let build ?(group_size = 8) ?bloom_bits_per_key ?pos ?len dev ~kind entries =
  match kind with
  | Pm_compressed -> Pm (Pm_table.build ~group_size ?bloom_bits_per_key ?pos ?len dev entries)
  | Array_plain -> Array (Array_table.build ?pos ?len dev entries)
  | Array_snappy ->
      Snappy (Snappy_table.build ~mode:Snappy_table.Per_pair ?pos ?len dev entries)
  | Array_snappy_group ->
      Snappy (Snappy_table.build ~mode:(Snappy_table.Grouped group_size) ?pos ?len dev entries)

let count = function
  | Pm t -> Pm_table.count t
  | Array t -> Array_table.count t
  | Snappy t -> Snappy_table.count t

let byte_size = function
  | Pm t -> Pm_table.byte_size t
  | Array t -> Array_table.byte_size t
  | Snappy t -> Snappy_table.byte_size t

let payload_bytes = function
  | Pm t -> Pm_table.payload_bytes t
  | Array t -> Array_table.payload_bytes t
  | Snappy t -> Snappy_table.payload_bytes t

let min_key = function
  | Pm t -> Pm_table.min_key t
  | Array t -> Array_table.min_key t
  | Snappy t -> Snappy_table.min_key t

let max_key = function
  | Pm t -> Pm_table.max_key t
  | Array t -> Array_table.max_key t
  | Snappy t -> Snappy_table.max_key t

let seq_range = function
  | Pm t -> Pm_table.seq_range t
  | Array t -> Array_table.seq_range t
  | Snappy t -> Snappy_table.seq_range t

let free = function
  | Pm t -> Pm_table.free t
  | Array t -> Array_table.free t
  | Snappy t -> Snappy_table.free t

let get ?use_bloom t key =
  match t with
  | Pm t -> Pm_table.get ?use_bloom t key
  | Array t -> Array_table.get t key
  | Snappy t -> Snappy_table.get t key

let to_array = function
  | Pm t -> Pm_table.to_array t
  | Array t -> Array_table.to_array t
  | Snappy t -> Snappy_table.to_array t

let range t ~start ~stop f =
  match t with
  | Pm t -> Pm_table.range t ~start ~stop f
  | Array t -> Array_table.range t ~start ~stop f
  | Snappy t -> Snappy_table.range t ~start ~stop f

(* Key ranges [min,max] of two tables overlap? Used to decide whether a
   lookup must consult a table and whether runs are disjoint. *)
let overlaps t ~min:lo ~max:hi =
  not (String.compare (max_key t) lo < 0 || String.compare (min_key t) hi > 0)

let region_id = function
  | Pm t -> Pm_table.region_id t
  | Array t -> Array_table.region_id t
  | Snappy t -> Snappy_table.region_id t

(* Recovery path: only the compressed PM table persists a self-describing
   footer (the engine's durable configurations use it). *)
let open_existing dev region = Pm (Pm_table.open_existing dev region)

(* Integrity: only the compressed PM table carries checksums — the array
   variants are non-durable ablation baselines, so a scrub reports them
   clean rather than unverifiable. *)
let verify = function
  | Pm t -> Pm_table.verify t
  | Array _ | Snappy _ -> []

let salvage_entries = function
  | Pm t -> Pm_table.salvage_entries t
  | Array t -> (Array_table.to_array t, None)
  | Snappy t -> (Snappy_table.to_array t, None)
