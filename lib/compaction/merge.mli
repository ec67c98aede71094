(** K-way merge of sorted entry runs with version shadowing.

    Inputs are arrays sorted by {!Util.Kv.compare_entry}; older versions of
    a key are dropped, tombstones only when [drop_tombstones] (output lands
    at the bottom of the tree). Merge CPU is charged to the virtual clock
    once per merge. *)

type stats = {
  input_entries : int;
  output_entries : int;
  dropped_versions : int;
  dropped_tombstones : int;
}

val merge :
  ?drop_tombstones:bool ->
  clock:Sim.Clock.t ->
  Util.Kv.entry array list ->
  Util.Kv.entry array * stats
(** Entries equal under {!Util.Kv.compare_entry} are taken in run order:
    the earlier run in the list wins. *)

val split_run : target_bytes:int -> Util.Kv.entry array -> (int * int) list
(** Cut a sorted run into consecutive non-empty [(pos, len)] slices of at
    most [target_bytes] (a single oversized entry, or one key's versions,
    may exceed it), never splitting one key's versions across slices. *)

val cpu_per_entry_ns : float
val cpu_per_byte_ns : float
