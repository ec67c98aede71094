(* Tests for the merge machinery and the three cost models. *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let clock () = Sim.Clock.create ()

let e key seq value = Util.Kv.entry ~key ~seq value
let d key seq = Util.Kv.tombstone ~key ~seq

(* --- Reference: the list merge and split it replaced ---------------------- *)

(* The list-based k-way merge and run splitter the array versions replaced,
   kept verbatim as the reference the differential tests below compare
   against: same output order, stats and clock charge. *)
module Reference = struct
  open Compaction.Merge

  module Heap = struct
    type item = Util.Kv.entry * int * Util.Kv.entry list

    let compare_item (e1, r1, _) (e2, r2, _) =
      let c = Util.Kv.compare_entry e1 e2 in
      if c <> 0 then c else compare r1 r2

    type t = { mutable data : item array; mutable size : int }

    let create () = { data = [||]; size = 0 }

    let push h item =
      if h.size = Array.length h.data then begin
        let bigger = Array.make (max 8 (2 * h.size)) item in
        Array.blit h.data 0 bigger 0 h.size;
        h.data <- bigger
      end;
      h.data.(h.size) <- item;
      h.size <- h.size + 1;
      let i = ref (h.size - 1) in
      while
        !i > 0
        &&
        let parent = (!i - 1) / 2 in
        compare_item h.data.(!i) h.data.(parent) < 0
      do
        let parent = (!i - 1) / 2 in
        let tmp = h.data.(!i) in
        h.data.(!i) <- h.data.(parent);
        h.data.(parent) <- tmp;
        i := parent
      done

    let pop h =
      if h.size = 0 then None
      else begin
        let top = h.data.(0) in
        h.size <- h.size - 1;
        h.data.(0) <- h.data.(h.size);
        let i = ref 0 in
        let continue = ref true in
        while !continue do
          let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
          let smallest = ref !i in
          if l < h.size && compare_item h.data.(l) h.data.(!smallest) < 0 then smallest := l;
          if r < h.size && compare_item h.data.(r) h.data.(!smallest) < 0 then smallest := r;
          if !smallest <> !i then begin
            let tmp = h.data.(!i) in
            h.data.(!i) <- h.data.(!smallest);
            h.data.(!smallest) <- tmp;
            i := !smallest
          end
          else continue := false
        done;
        Some top
      end
  end

  let merge ?(drop_tombstones = false) ~clock runs =
    let heap = Heap.create () in
    List.iteri
      (fun run_id entries ->
        match entries with e :: rest -> Heap.push heap (e, run_id, rest) | [] -> ())
      runs;
    let out = ref [] in
    let input_entries = ref 0 in
    let dropped_versions = ref 0 in
    let dropped_tombstones = ref 0 in
    let bytes = ref 0 in
    let last_key = ref None in
    let rec drain () =
      match Heap.pop heap with
      | None -> ()
      | Some (e, run_id, rest) ->
          incr input_entries;
          bytes := !bytes + Util.Kv.encoded_size e;
          (match rest with
          | next :: rest' -> Heap.push heap (next, run_id, rest')
          | [] -> ());
          (match !last_key with
          | Some k when k = e.Util.Kv.key -> incr dropped_versions
          | _ ->
              last_key := Some e.key;
              if drop_tombstones && e.kind = Util.Kv.Delete then incr dropped_tombstones
              else out := e :: !out);
          drain ()
    in
    drain ();
    Sim.Clock.advance clock
      ((float_of_int !input_entries *. cpu_per_entry_ns)
      +. (float_of_int !bytes *. cpu_per_byte_ns));
    let output = List.rev !out in
    ( output,
      {
        input_entries = !input_entries;
        output_entries = List.length output;
        dropped_versions = !dropped_versions;
        dropped_tombstones = !dropped_tombstones;
      } )

  let split_run ~target_bytes entries =
    let rec loop acc current current_bytes = function
      | [] -> List.rev (if current = [] then acc else List.rev current :: acc)
      | e :: rest ->
          let size = Util.Kv.encoded_size e in
          let same_key =
            match current with
            | prev :: _ -> prev.Util.Kv.key = e.Util.Kv.key
            | [] -> false
          in
          if current <> [] && current_bytes + size > target_bytes && not same_key then
            loop (List.rev current :: acc) [ e ] size rest
          else loop acc (e :: current) (current_bytes + size) rest
    in
    loop [] [] 0 entries
end

(* --- Merge ------------------------------------------------------------- *)

let keys_of merged = Array.to_list (Array.map (fun (x : Util.Kv.entry) -> x.key) merged)

let test_merge_two_runs () =
  let run1 = [| e "a" 1 "a1"; e "c" 3 "c3" |] in
  let run2 = [| e "b" 2 "b2"; e "d" 4 "d4" |] in
  let merged, stats = Compaction.Merge.merge ~clock:(clock ()) [ run1; run2 ] in
  check (Alcotest.list Alcotest.string) "interleaved" [ "a"; "b"; "c"; "d" ] (keys_of merged);
  check Alcotest.int "inputs" 4 stats.Compaction.Merge.input_entries;
  check Alcotest.int "outputs" 4 stats.output_entries

let test_merge_shadows_old_versions () =
  let run1 = [| e "k" 5 "new" |] in
  let run2 = [| e "k" 2 "old"; e "k" 1 "older" |] in
  let merged, stats = Compaction.Merge.merge ~clock:(clock ()) [ run1; run2 ] in
  check Alcotest.int "one survivor" 1 (Array.length merged);
  check Alcotest.string "newest survives" "new" merged.(0).Util.Kv.value;
  check Alcotest.int "dropped versions" 2 stats.Compaction.Merge.dropped_versions

let test_merge_tombstones_kept_by_default () =
  let merged, _ = Compaction.Merge.merge ~clock:(clock ()) [ [| d "k" 5 |]; [| e "k" 2 "v" |] ] in
  check Alcotest.int "tombstone survives" 1 (Array.length merged);
  check Alcotest.bool "is a tombstone" true (merged.(0).Util.Kv.kind = Util.Kv.Delete)

let test_merge_tombstones_dropped_at_bottom () =
  let merged, stats =
    Compaction.Merge.merge ~drop_tombstones:true ~clock:(clock ())
      [ [| d "k" 5 |]; [| e "k" 2 "v"; e "live" 1 "x" |] ]
  in
  check (Alcotest.list Alcotest.string) "only live key" [ "live" ] (keys_of merged);
  check Alcotest.int "tombstone dropped" 1 stats.Compaction.Merge.dropped_tombstones

let test_merge_charges_cpu () =
  let c = clock () in
  let t0 = Sim.Clock.now c in
  ignore (Compaction.Merge.merge ~clock:c [ Array.init 100 (fun i -> e (Printf.sprintf "%03d" i) i "v") ]);
  check Alcotest.bool "cpu charged" true (Sim.Clock.now c > t0)

let test_merge_empty_inputs () =
  let merged, stats = Compaction.Merge.merge ~clock:(clock ()) [ [||]; [||]; [||] ] in
  check Alcotest.int "empty" 0 (Array.length merged);
  check Alcotest.int "no inputs" 0 stats.Compaction.Merge.input_entries

(* Model: merge = sort entries, keep max-seq per key. *)
let prop_merge_model =
  let run_gen =
    QCheck.Gen.(
      list_size (int_range 0 40)
        (pair (string_size ~gen:(char_range 'a' 'e') (int_range 1 2)) (int_range 0 1000)))
  in
  QCheck.Test.make ~name:"merge = model (newest per key)" ~count:200
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_range 0 5) run_gen))
    (fun raw_runs ->
      (* give entries globally unique seqs so 'newest' is well-defined *)
      let seq = ref 0 in
      let runs =
        List.map
          (fun pairs ->
            let run =
              Array.of_list
                (List.map
                   (fun (key, _) ->
                     incr seq;
                     e key !seq "v")
                   pairs)
            in
            Array.sort Util.Kv.compare_entry run;
            run)
          raw_runs
      in
      let merged, _ = Compaction.Merge.merge ~clock:(clock ()) runs in
      let model = Hashtbl.create 16 in
      List.iter
        (fun run ->
          Array.iter
            (fun (x : Util.Kv.entry) ->
              match Hashtbl.find_opt model x.key with
              | Some (p : Util.Kv.entry) when p.seq >= x.seq -> ()
              | _ -> Hashtbl.replace model x.key x)
            run)
        runs;
      let sorted = Array.copy merged in
      Array.sort Util.Kv.compare_entry sorted;
      Array.length merged = Hashtbl.length model
      && Array.for_all
           (fun (x : Util.Kv.entry) ->
             match Hashtbl.find_opt model x.key with
             | Some m -> m.seq = x.seq
             | None -> false)
           merged
      && merged = sorted)

(* Differential: the array merge against the reference list merge on runs
   that share (key, seq) pairs across runs (values name the run, so the
   tie-break shows), carry tombstones, include empty runs, in the given
   order and reversed (the order the scan collectors build). Output, stats
   and the clock charge, bit for bit, must all match. *)
let prop_merge_matches_reference =
  let entry_gen =
    QCheck.Gen.(
      triple (string_size ~gen:(char_range 'a' 'd') (int_range 1 2)) (int_range 0 6) bool)
  in
  let runs_gen =
    QCheck.Gen.(pair bool (list_size (int_range 0 6) (list_size (int_range 0 30) entry_gen)))
  in
  QCheck.Test.make ~name:"array merge = list merge" ~count:500 (QCheck.make runs_gen)
    (fun (drop_tombstones, raw_runs) ->
      let runs =
        List.mapi
          (fun r raw ->
            List.map
              (fun (key, seq, tomb) ->
                if tomb then d key seq else e key seq (Printf.sprintf "run%d" r))
              raw
            |> List.sort Util.Kv.compare_entry)
          raw_runs
      in
      let agree runs =
        let c_arr = clock () and c_ref = clock () in
        let merged, stats =
          Compaction.Merge.merge ~drop_tombstones ~clock:c_arr (List.map Array.of_list runs)
        in
        let expected, expected_stats = Reference.merge ~drop_tombstones ~clock:c_ref runs in
        Array.to_list merged = expected
        && stats = expected_stats
        && Int64.equal
             (Int64.bits_of_float (Sim.Clock.now c_arr))
             (Int64.bits_of_float (Sim.Clock.now c_ref))
      in
      agree runs && agree (List.rev runs))

(* --- split_run -------------------------------------------------------- *)

let slices_of entries ranges =
  List.map (fun (pos, len) -> Array.to_list (Array.sub entries pos len)) ranges

let test_split_run_sizes () =
  let entries = Array.init 100 (fun i -> e (Printf.sprintf "%03d" i) i (String.make 50 'v')) in
  let slices = slices_of entries (Compaction.Merge.split_run ~target_bytes:300 entries) in
  check Alcotest.bool "several slices" true (List.length slices > 1);
  check Alcotest.int "no entry lost" 100 (List.fold_left (fun a s -> a + List.length s) 0 slices);
  (* concatenation preserves order *)
  check Alcotest.bool "order preserved" true (List.concat slices = Array.to_list entries)

let test_split_run_never_splits_key_versions () =
  let entries =
    [| e "a" 9 (String.make 100 'x'); e "a" 8 (String.make 100 'x'); e "a" 7 (String.make 100 'x');
       e "b" 1 "small" |]
  in
  let slices = slices_of entries (Compaction.Merge.split_run ~target_bytes:150 entries) in
  (* all three versions of "a" must stay in one slice *)
  let slice_of_a =
    List.filter (fun s -> List.exists (fun (x : Util.Kv.entry) -> x.key = "a") s) slices
  in
  check Alcotest.int "one slice holds every version of a" 1 (List.length slice_of_a);
  check Alcotest.int "all versions together" 3
    (List.length (List.filter (fun (x : Util.Kv.entry) -> x.key = "a") (List.hd slice_of_a)))

let split_input_gen =
  QCheck.(pair (int_range 50 500) (list_of_size Gen.(int_range 0 60) (string_of_size Gen.(int_range 1 4))))

let sorted_entries keys =
  let entries = Array.of_list (List.mapi (fun i k -> e k i "value") (List.sort compare keys)) in
  Array.sort Util.Kv.compare_entry entries;
  entries

let prop_split_concat_identity =
  QCheck.Test.make ~name:"split_run concat = input" ~count:200 split_input_gen
    (fun (target, keys) ->
      let entries = sorted_entries keys in
      List.concat (slices_of entries (Compaction.Merge.split_run ~target_bytes:target entries))
      = Array.to_list entries)

let prop_split_matches_reference =
  QCheck.Test.make ~name:"index-range split = list split_run" ~count:300 split_input_gen
    (fun (target, keys) ->
      let entries = sorted_entries keys in
      let ranges = Compaction.Merge.split_run ~target_bytes:target entries in
      List.for_all (fun (_, len) -> len > 0) ranges
      && slices_of entries ranges
         = Reference.split_run ~target_bytes:target (Array.to_list entries))

(* --- Cost models -------------------------------------------------------- *)

let params = Compaction.Cost_model.default

let test_eq1_hot_partition_triggers () =
  (* many unsorted tables + hot reads -> compact *)
  check Alcotest.bool "hot triggers" true
    (Compaction.Cost_model.should_internal_compact_rf params ~reads_per_sec:1e6 ~unsorted:8);
  (* cold partition: no reads -> never *)
  check Alcotest.bool "cold never triggers" false
    (Compaction.Cost_model.should_internal_compact_rf params ~reads_per_sec:0.0 ~unsorted:100);
  (* no unsorted tables -> nothing to do *)
  check Alcotest.bool "sorted-only never triggers" false
    (Compaction.Cost_model.should_internal_compact_rf params ~reads_per_sec:1e9 ~unsorted:0)

let test_eq1_monotone_in_unsorted () =
  let d n = Compaction.Cost_model.delta_cost_rf params ~reads_per_sec:1e5 ~unsorted:n in
  check Alcotest.bool "more unsorted, more benefit" true (d 10 > d 2)

let test_eq2_update_heavy_triggers () =
  check Alcotest.bool "update-heavy triggers" true
    (Compaction.Cost_model.should_internal_compact_wf params ~size:params.tau_w
       ~l0_records:1000 ~updates:900);
  check Alcotest.bool "insert-only never triggers" false
    (Compaction.Cost_model.should_internal_compact_wf params ~size:params.tau_w
       ~l0_records:1000 ~updates:0);
  check Alcotest.bool "small partition gated by tau_w" false
    (Compaction.Cost_model.should_internal_compact_wf params ~size:(params.tau_w - 1)
       ~l0_records:1000 ~updates:900)

let test_eq3_greedy_respects_capacity () =
  let p = { params with tau_t = 100 } in
  let chosen =
    Compaction.Cost_model.select_preserved p
      [ (0, 1000, 60); (1, 900, 60); (2, 10, 30); (3, 800, 39) ]
  in
  let total =
    List.fold_left
      (fun acc id -> acc + List.assoc id [ (0, 60); (1, 60); (2, 30); (3, 39) ])
      0 chosen
  in
  check Alcotest.bool "capacity respected" true (total <= 100);
  check Alcotest.bool "hottest density first" true (List.mem 3 chosen)

let test_eq3_prefers_read_density () =
  let p = { params with tau_t = 50 } in
  (* id 1 has fewer reads but much better reads/size density *)
  let chosen = Compaction.Cost_model.select_preserved p [ (0, 1000, 200); (1, 400, 40) ] in
  check (Alcotest.list Alcotest.int) "density winner" [ 1 ] chosen

let prop_eq3_feasible =
  QCheck.Test.make ~name:"greedy knapsack always feasible" ~count:200
    QCheck.(list_of_size Gen.(int_range 0 20) (pair (int_range 0 10000) (int_range 1 10_000_000)))
    (fun cands ->
      let cands = List.mapi (fun i (r, s) -> (i, r, s)) cands in
      let chosen = Compaction.Cost_model.select_preserved params cands in
      let size_of id = List.find_map (fun (i, _, s) -> if i = id then Some s else None) cands in
      let total = List.fold_left (fun acc id -> acc + Option.get (size_of id)) 0 chosen in
      total <= params.tau_m + params.tau_t && total <= params.tau_t)

let test_major_threshold () =
  check Alcotest.bool "under" false
    (Compaction.Cost_model.should_major_compact params ~l0_bytes:(params.tau_m - 1));
  check Alcotest.bool "at" true
    (Compaction.Cost_model.should_major_compact params ~l0_bytes:params.tau_m)

(* --- Nothing simulated moves ---------------------------------------------- *)

(* A fixed-seed durable PM-Blade engine (staged pipeline on) driven through
   puts, deletes, a forced flush, forced internal and major compactions,
   scans, an iterator window and a salvaging scrub. The digest covers every
   simulated observable the compaction data plane could move: device
   counters, the sequence of flushes, fences, appends and fsyncs with their
   extents, the virtual clock (bit for bit), the pipeline replay totals, and
   the bytes of every live PM region and SSD file. A host-side
   refactor of merge, table builds or scan collection must leave it
   unchanged. *)
let simulated_digest () =
  let cfg =
    {
      Core.Config.pmblade with
      Core.Config.memtable_bytes = 16 * 1024;
      l0_run_table_bytes = 24 * 1024;
      level_base_bytes = 96 * 1024;
      sstable_target_bytes = 32 * 1024;
      partition_count = 2;
      durable = true;
      seed = 11;
    }
  in
  assert cfg.Core.Config.pipeline_compaction;
  let engine = Core.Engine.create cfg in
  (* Log every flush, fence, append and fsync with its target and extent:
     pass-through hooks that change nothing simulated. *)
  let calls = Buffer.create 4096 in
  let log fmt = Printf.bprintf calls fmt in
  Pmem.set_flush_hook (Core.Engine.pm engine)
    (Some
       (fun ~region_id ~off ~len ->
         log "F%d:%d:%d;" region_id off len;
         Pmem.Flush_ok));
  Pmem.set_drain_hook (Core.Engine.pm engine) (Some (fun () -> log "D;"));
  Ssd.set_write_hook (Core.Engine.ssd engine)
    (Some
       (fun ~file_id ~len ->
         log "W%d:%d;" file_id len;
         Ssd.Io_ok));
  Ssd.set_fsync_hook (Core.Engine.ssd engine)
    (Some
       (fun ~file_id ->
         log "S%d;" file_id;
         Ssd.Io_ok));
  let rng = Util.Xoshiro.create 29 in
  let key i = Printf.sprintf "user%06d" i in
  let scans = Buffer.create 256 in
  let note_scan pairs =
    List.iter (fun (k, v) -> Buffer.add_string scans (k ^ "=" ^ Digest.to_hex (Digest.string v))) pairs
  in
  for round = 0 to 5 do
    for i = 0 to 899 do
      let k = Util.Xoshiro.int rng 900 in
      if i mod 11 = 0 then Core.Engine.delete engine (key k)
      else
        Core.Engine.put ~update:true engine ~key:(key k)
          (Printf.sprintf "r%d:%s" round (Util.Xoshiro.string rng (20 + Util.Xoshiro.int rng 120)))
    done;
    Core.Engine.flush engine;
    if round mod 2 = 0 then Core.Engine.force_internal_compaction engine;
    note_scan (Core.Engine.scan_range engine ~start:(key 100) ~stop:(key 180));
    note_scan (Core.Engine.scan engine ~start:(key (round * 200)) ~limit:25)
  done;
  Core.Engine.force_major_compaction engine;
  for i = 0 to 299 do
    Core.Engine.put ~update:true engine ~key:(key (i * 3)) (Util.Xoshiro.string rng 64)
  done;
  Core.Engine.flush engine;
  Core.Engine.force_internal_compaction engine;
  let pairs, bound = Core.Engine.collect_window engine ~start:(key 450) ~limit:40 in
  note_scan pairs;
  Buffer.add_string scans (Option.value bound ~default:"-");
  (* Rot one PM table and one SSTable, then let scrub salvage both. *)
  let pm = Core.Engine.pm engine and ssd = Core.Engine.ssd engine in
  (match Pmem.live_regions pm with
  | r :: _ -> Pmem.corrupt_region pm r ~off:0
  | [] -> ());
  (match Ssd.live_file_ids ssd with
  | id :: _ -> (
      match Ssd.find_file ssd id with
      | Some f when Ssd.file_size f > 0 -> Ssd.corrupt_file ssd f ~off:0
      | _ -> ())
  | [] -> ());
  let report = Core.Engine.scrub engine in
  let out = Buffer.create 4096 in
  let add fmt = Printf.bprintf out fmt in
  let bits f = Int64.bits_of_float f in
  add "scan:%s;" (Digest.to_hex (Digest.string (Buffer.contents scans)));
  add "calls:%s;" (Digest.to_hex (Digest.string (Buffer.contents calls)));
  add "scrub:%d,%d,%d,%d;" report.Core.Engine.corrupt_pm_tables report.corrupt_sstables
    report.salvaged report.dropped;
  let ps = Pmem.stats pm in
  add "pmem:%d,%d,%d,%d,%d,%Ld,%Ld,%Ld,%d,%d;" ps.Pmem.reads ps.writes ps.bytes_read
    ps.bytes_written ps.flushes (bits ps.read_time) (bits ps.write_time)
    (bits ps.flush_time) ps.allocs ps.frees;
  let ss = Ssd.stats ssd in
  add "ssd:%d,%d,%d,%d,%Ld,%Ld;" ss.Ssd.reads ss.writes ss.bytes_read ss.bytes_written
    (bits ss.read_time) (bits ss.write_time);
  let pt = Core.Engine.pipeline_stats engine in
  add "pipe:%d,%Ld,%Ld,%Ld,%d,%Ld,%d,%d" pt.Compaction.Pipeline.runs
    (bits pt.serial_total_ns) (bits pt.pipelined_total_ns) (bits pt.rebate_total_ns)
    pt.blocks_total (bits pt.queue_wait_total) pt.races_total pt.lost_wakeups_total;
  Array.iter (fun b -> add ",%Ld" (bits b)) pt.stage_busy_total;
  add ";clock:%Ld;" (bits (Sim.Clock.now (Core.Engine.clock engine)));
  List.iter
    (fun r ->
      add "r%d:%s;" (Pmem.region_id r)
        (Digest.to_hex
           (Digest.string (Pmem.unsafe_peek r ~off:0 ~len:(Pmem.region_len r)))))
    (Pmem.live_regions pm);
  List.iter
    (fun id ->
      match Ssd.find_file ssd id with
      | Some f ->
          add "f%d:%s;" id
            (Digest.to_hex (Digest.string (Ssd.pread ssd f ~off:0 ~len:(Ssd.file_size f))))
      | None -> ())
    (Ssd.live_file_ids ssd);
  (report, Buffer.contents out)

let test_simulated_digest () =
  let report, s = simulated_digest () in
  check Alcotest.bool "scrub salvaged a PM table and an SSTable" true
    (report.Core.Engine.corrupt_pm_tables > 0 && report.corrupt_sstables > 0
   && report.salvaged >= 2);
  check Alcotest.string "simulated digest" "737459bd22f6c4696df9100fa4b0ac91" (Digest.to_hex (Digest.string s))

let () =
  Alcotest.run "compaction"
    [
      ( "merge",
        [
          Alcotest.test_case "two runs" `Quick test_merge_two_runs;
          Alcotest.test_case "shadows old versions" `Quick test_merge_shadows_old_versions;
          Alcotest.test_case "tombstones kept" `Quick test_merge_tombstones_kept_by_default;
          Alcotest.test_case "tombstones dropped at bottom" `Quick test_merge_tombstones_dropped_at_bottom;
          Alcotest.test_case "charges cpu" `Quick test_merge_charges_cpu;
          Alcotest.test_case "empty inputs" `Quick test_merge_empty_inputs;
          qtest prop_merge_model;
          qtest prop_merge_matches_reference;
        ] );
      ( "split_run",
        [
          Alcotest.test_case "sizes" `Quick test_split_run_sizes;
          Alcotest.test_case "keeps key versions together" `Quick test_split_run_never_splits_key_versions;
          qtest prop_split_concat_identity;
          qtest prop_split_matches_reference;
        ] );
      ( "cost models",
        [
          Alcotest.test_case "eq1 hot/cold" `Quick test_eq1_hot_partition_triggers;
          Alcotest.test_case "eq1 monotone" `Quick test_eq1_monotone_in_unsorted;
          Alcotest.test_case "eq2 updates" `Quick test_eq2_update_heavy_triggers;
          Alcotest.test_case "eq3 capacity" `Quick test_eq3_greedy_respects_capacity;
          Alcotest.test_case "eq3 density" `Quick test_eq3_prefers_read_density;
          qtest prop_eq3_feasible;
          Alcotest.test_case "major threshold" `Quick test_major_threshold;
        ] );
      ( "simulated pin",
        [ Alcotest.test_case "durable pmblade digest" `Quick test_simulated_digest ] );
    ]
