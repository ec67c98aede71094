(* K-way merge of sorted entry runs with version shadowing.

   Inputs are arrays sorted by Kv.compare_entry (key asc, seq desc); runs
   are merged newest-version-first, older versions of a key are dropped, and
   tombstones are dropped only when [drop_tombstones] says the output lands
   at the bottom of the tree. Merge CPU is charged to the virtual clock per
   entry and per byte, matching the S2 model of the scheduling
   experiments. *)

type stats = {
  input_entries : int;
  output_entries : int;
  dropped_versions : int;    (* shadowed versions removed *)
  dropped_tombstones : int;
}

let cpu_per_entry_ns = 150.0
let cpu_per_byte_ns = 1.0

(* The heap holds run ids, one per run that still has entries, ordered by
   the run's head entry with the run id breaking ties — a total order, so
   the merge is stable and its output independent of the heap's shape.
   Nothing is allocated per entry: popping advances the run's cursor and
   sifts the same id back down. *)
let merge ?(drop_tombstones = false) ~clock runs =
  let t0 = Sim.Clock.now clock in
  let runs = Array.of_list runs in
  let k = Array.length runs in
  let pos = Array.make k 0 in
  (* heads.(r) caches runs.(r).(pos.(r)) while run r is in the heap *)
  let heads = Array.map (fun run -> if Array.length run > 0 then run.(0) else Util.Kv.filler) runs in
  let heap = Array.make k 0 in
  let size = ref 0 in
  let before a b =
    let c = Util.Kv.compare_entry heads.(a) heads.(b) in
    c < 0 || (c = 0 && a < b)
  in
  let rec sift_up i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if before heap.(i) heap.(parent) then begin
        let tmp = heap.(i) in
        heap.(i) <- heap.(parent);
        heap.(parent) <- tmp;
        sift_up parent
      end
    end
  in
  let rec sift_down i =
    let l = (2 * i) + 1 in
    if l < !size then begin
      let r = l + 1 in
      let child = if r < !size && before heap.(r) heap.(l) then r else l in
      if before heap.(child) heap.(i) then begin
        let tmp = heap.(i) in
        heap.(i) <- heap.(child);
        heap.(child) <- tmp;
        sift_down child
      end
    end
  in
  let total = ref 0 in
  Array.iteri
    (fun run_id run ->
      if Array.length run > 0 then begin
        total := !total + Array.length run;
        heap.(!size) <- run_id;
        incr size;
        sift_up (!size - 1)
      end)
    runs;
  let out = Array.make !total Util.Kv.filler in
  let n = ref 0 in
  let dropped_versions = ref 0 in
  let dropped_tombstones = ref 0 in
  let bytes = ref 0 in
  let last_key = ref None in
  while !size > 0 do
    let run_id = heap.(0) in
    let e = heads.(run_id) in
    let next = pos.(run_id) + 1 in
    pos.(run_id) <- next;
    if next < Array.length runs.(run_id) then heads.(run_id) <- runs.(run_id).(next)
    else begin
      decr size;
      heap.(0) <- heap.(!size)
    end;
    sift_down 0;
    bytes := !bytes + Util.Kv.encoded_size e;
    match !last_key with
    | Some key when String.equal key e.Util.Kv.key -> incr dropped_versions
    | _ ->
        last_key := Some e.key;
        if drop_tombstones && e.kind = Util.Kv.Delete then incr dropped_tombstones
        else begin
          out.(!n) <- e;
          incr n
        end
  done;
  Sim.Clock.advance clock
    ((float_of_int !total *. cpu_per_entry_ns) +. (float_of_int !bytes *. cpu_per_byte_ns));
  let output = if !n = !total then out else Array.sub out 0 !n in
  let stats =
    {
      input_entries = !total;
      output_entries = !n;
      dropped_versions = !dropped_versions;
      dropped_tombstones = !dropped_tombstones;
    }
  in
  if Obs.Trace.is_enabled () then
    Obs.Trace.complete "compaction.merge" ~ts:t0 ~dur:(Sim.Clock.now clock -. t0)
      ~attrs:(fun () ->
        [
          ("runs", Obs.Trace.Int k);
          ("input_entries", Obs.Trace.Int stats.input_entries);
          ("output_entries", Obs.Trace.Int stats.output_entries);
          ("dropped_versions", Obs.Trace.Int stats.dropped_versions);
          ("dropped_tombstones", Obs.Trace.Int stats.dropped_tombstones);
        ]);
  (output, stats)

(* Cut a sorted run into consecutive (pos, len) slices of at most
   [target_bytes], never splitting the versions of one key across slices. *)
let split_run ~target_bytes entries =
  let n = Array.length entries in
  let slices = ref [] in
  let start = ref 0 and bytes = ref 0 in
  for i = 0 to n - 1 do
    let e = entries.(i) in
    let size = Util.Kv.encoded_size e in
    if
      i > !start
      && !bytes + size > target_bytes
      && not (String.equal entries.(i - 1).Util.Kv.key e.key)
    then begin
      slices := (!start, i - !start) :: !slices;
      start := i;
      bytes := 0
    end;
    bytes := !bytes + size
  done;
  if n > !start then slices := (!start, n - !start) :: !slices;
  List.rev !slices
