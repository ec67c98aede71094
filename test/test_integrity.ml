(* End-to-end data integrity: checksum verification at every layer,
   quarantine and typed degradation on the engine read paths, scrub and
   salvage, the full-store scrubber, and the corruption sweep — including
   the planted skip-the-checksums bug the sweep must catch. *)

let check = Alcotest.check

let small_config =
  {
    Core.Config.pmblade with
    Core.Config.memtable_bytes = 4 * 1024;
    l0_run_table_bytes = 8 * 1024;
    level_base_bytes = 64 * 1024;
    sstable_target_bytes = 16 * 1024;
    durable = true;
  }

let key i = Printf.sprintf "user%06d" i

let build_engine ?(ops = 300) () =
  let engine = Core.Engine.create small_config in
  let rng = Util.Xoshiro.create 5 in
  for i = 0 to ops - 1 do
    Core.Engine.put ~update:true engine ~key:(key (i mod 64))
      (Printf.sprintf "gen%d:%s" i (Util.Xoshiro.string rng 24))
  done;
  engine

(* --- Pm_table verify / salvage ------------------------------------------- *)

let test_pm_table_verify_salvage () =
  let clock = Sim.Clock.create () in
  let pm = Pmem.create clock in
  let rng = Util.Xoshiro.create 3 in
  let entries =
    Array.init 300 (fun i ->
        Util.Kv.entry ~key:(Util.Keys.ycsb_key i) ~seq:(i + 1)
          (Util.Xoshiro.string rng 24))
  in
  Array.sort Util.Kv.compare_entry entries;
  let t = Pmtable.Pm_table.build pm entries in
  check Alcotest.bool "clean table verifies" true (Pmtable.Pm_table.verify t = []);
  let region = Option.get (Pmem.find_region pm (Pmtable.Pm_table.region_id t)) in
  (* zero a span of the entry layer: at least one group must fail *)
  Pmem.corrupt_region ~len:32 ~mode:`Zero pm region ~off:0;
  check Alcotest.bool "corruption detected" true (Pmtable.Pm_table.verify t <> []);
  let survivors, lost = Pmtable.Pm_table.salvage_entries t in
  check Alcotest.bool "lost range recorded" true (lost <> None);
  check Alcotest.bool "fewer survivors than entries" true
    (Array.length survivors < Array.length entries);
  check Alcotest.bool "survivors verbatim" true
    (Array.for_all
       (fun (e : Util.Kv.entry) -> Array.exists (fun e' -> e = e') entries)
       survivors)

(* --- Sstable verify / salvage --------------------------------------------- *)

let test_sstable_verify_salvage () =
  let clock = Sim.Clock.create () in
  let ssd = Ssd.create clock in
  let entries =
    List.init 400 (fun i ->
        Util.Kv.entry ~key:(Util.Keys.ycsb_key i) ~seq:(i + 1) (String.make 24 'v'))
  in
  let t = Sstable.build ssd (Array.of_list entries) in
  check Alcotest.bool "clean table verifies" true (Sstable.verify t = []);
  let file = Option.get (Ssd.find_file ssd (Sstable.file_id t)) in
  Ssd.corrupt_file ~len:16 ~mode:`Flip ssd file ~off:100;
  check Alcotest.bool "corruption detected" true (Sstable.verify t <> []);
  let survivors, lost = Sstable.salvage_entries t in
  check Alcotest.bool "lost range recorded" true (lost <> None);
  check Alcotest.bool "survivors verbatim" true
    (Array.for_all (fun (e : Util.Kv.entry) -> List.mem e entries) survivors)

(* --- Verification memo ------------------------------------------------------ *)

(* A read whose checksum passed is not re-checked until the bytes change;
   every change bumps the generation, so rot planted after a passing read
   must still raise on the next one. *)

let u32_at s pos =
  let b k = Char.code s.[pos + k] in
  (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3

(* PM table layout from its footer: (entry_len, meta_off, group_count). *)
let pm_layout region =
  let len = Pmem.region_len region in
  let footer = Pmem.unsafe_peek region ~off:(len - 26) ~len:26 in
  (u32_at footer 0, u32_at footer 4, u32_at footer 8)

let pm_record_width = Pmtable.Pm_table.default_prefix_len + 13

let memo_pm_table ?(crash_mode = false) () =
  let pm = Pmem.create (Sim.Clock.create ()) in
  if crash_mode then Pmem.enable_crash_mode pm;
  let rng = Util.Xoshiro.create 11 in
  let entries =
    Array.init 200 (fun i ->
        Util.Kv.entry ~key:(Util.Keys.ycsb_key i) ~seq:(i + 1) (Util.Xoshiro.string rng 24))
  in
  Array.sort Util.Kv.compare_entry entries;
  let t = Pmtable.Pm_table.build pm entries in
  let region = Option.get (Pmem.find_region pm (Pmtable.Pm_table.region_id t)) in
  (pm, region, t, entries)

let raises_corrupted ~layer f =
  match f () with
  | _ -> false
  | exception Pmtable.Integrity.Corrupted c -> c.layer = layer

let test_memo_pm_group_rot_after_read () =
  let pm, region, t, entries = memo_pm_table () in
  (* entry 3 lands in group 0 without a slot tie; read it twice (memo hit) *)
  let k = entries.(3).Util.Kv.key in
  for _ = 1 to 2 do
    check Alcotest.bool "clean read" true (Pmtable.Pm_table.get t k = Some entries.(3))
  done;
  (* the last byte of group 0: the tail of its last entry's value *)
  let entry_len, _, _ = pm_layout region in
  let group1 = u32_at (Pmem.unsafe_peek region ~off:(entry_len + pm_record_width) ~len:pm_record_width) 24 in
  Pmem.corrupt_region pm region ~off:(group1 - 1);
  check Alcotest.bool "group rot raises after a memo hit" true
    (raises_corrupted ~layer:"entry" (fun () -> Pmtable.Pm_table.get t k))

let test_memo_pm_record_rot_after_read () =
  let pm, region, t, entries = memo_pm_table () in
  let k = entries.(3).Util.Kv.key in
  for _ = 1 to 2 do
    check Alcotest.bool "clean read" true (Pmtable.Pm_table.get t k = Some entries.(3))
  done;
  (* record 0 is the first probe of every lookup *)
  let entry_len, _, _ = pm_layout region in
  Pmem.corrupt_region pm region ~off:(entry_len + 2);
  check Alcotest.bool "record rot raises after a memo hit" true
    (raises_corrupted ~layer:"prefix" (fun () -> Pmtable.Pm_table.get t k))

(* The durable image holds junk while the cache-domain bytes are good: a
   read passes, then a crash reverts to the junk. The revert must bump the
   generation so the next read checks again. *)
let test_memo_pm_crash_revert_rechecks () =
  let pm, region, t, entries = memo_pm_table ~crash_mode:true () in
  let k = entries.(3).Util.Kv.key in
  let good = Pmem.unsafe_peek region ~off:0 ~len:64 in
  Pmem.write pm region ~off:0 (String.make 64 '\255');
  Pmem.flush pm region ~off:0 ~len:64;
  Pmem.drain pm;
  Pmem.write pm region ~off:0 good;
  check Alcotest.bool "good bytes read clean" true
    (Pmtable.Pm_table.get t k = Some entries.(3));
  Pmem.crash pm;
  check Alcotest.bool "reverted junk raises" true
    (raises_corrupted ~layer:"entry" (fun () -> Pmtable.Pm_table.get t k))

let memo_sstable () =
  let ssd = Ssd.create (Sim.Clock.create ()) in
  let entries =
    List.init 400 (fun i ->
        Util.Kv.entry ~key:(Util.Keys.ycsb_key i) ~seq:(i + 1) (String.make 24 'v'))
  in
  let t = Sstable.build ssd (Array.of_list entries) in
  (ssd, Option.get (Ssd.find_file ssd (Sstable.file_id t)), t, entries)

let raises_corrupted_block f =
  match f () with _ -> false | exception Sstable.Corrupted_block { block; _ } -> block = 0

let test_memo_sstable_rot_after_read () =
  let ssd, file, t, entries = memo_sstable () in
  let e = List.nth entries 5 in
  for _ = 1 to 2 do
    check Alcotest.bool "clean read" true (Sstable.get t e.Util.Kv.key = Some e)
  done;
  Ssd.corrupt_file ssd file ~off:100;
  check Alcotest.bool "block rot raises after a memo hit" true
    (raises_corrupted_block (fun () -> Sstable.get t e.Util.Kv.key))

let test_warm_cache_checks_blocks () =
  let ssd, file, t, _ = memo_sstable () in
  Ssd.corrupt_file ssd file ~off:100;
  check Alcotest.bool "pinning a rotten block raises" true
    (raises_corrupted_block (fun () -> Sstable.warm_cache t))

let test_scrub_after_memo_hits () =
  let pm, region, t, _ = memo_pm_table () in
  Pmtable.Pm_table.iter t ignore;
  Pmtable.Pm_table.iter t ignore;
  Pmem.corrupt_region pm region ~off:0;
  check Alcotest.bool "pm scrub finds the rot" true
    (List.mem ("entry", 0) (Pmtable.Pm_table.verify t));
  let ssd, file, sst, _ = memo_sstable () in
  Sstable.iter sst ignore;
  Sstable.iter sst ignore;
  Ssd.corrupt_file ssd file ~off:100;
  check Alcotest.(list int) "sstable scrub finds the rot" [ 0 ] (Sstable.verify sst)

(* --- Memo seeded at build ---------------------------------------------------- *)

(* A build compares the sealed bytes with the image its CRCs came from and
   seeds the memo at the sealed generation. Rot, crash reverts and scrub
   must still re-check on the very first read. *)

let test_seed_pm_group_rot_before_read () =
  let pm, region, t, entries = memo_pm_table () in
  let entry_len, _, _ = pm_layout region in
  let group1 = u32_at (Pmem.unsafe_peek region ~off:(entry_len + pm_record_width) ~len:pm_record_width) 24 in
  Pmem.corrupt_region pm region ~off:(group1 - 1);
  check Alcotest.bool "group rot raises on the first read" true
    (raises_corrupted ~layer:"entry" (fun () -> Pmtable.Pm_table.get t entries.(3).Util.Kv.key))

let test_seed_pm_record_rot_before_read () =
  let pm, region, t, entries = memo_pm_table () in
  let entry_len, _, _ = pm_layout region in
  Pmem.corrupt_region pm region ~off:(entry_len + 2);
  check Alcotest.bool "record rot raises on the first read" true
    (raises_corrupted ~layer:"prefix" (fun () -> Pmtable.Pm_table.get t entries.(3).Util.Kv.key))

let test_seed_sstable_rot_before_read () =
  let ssd, file, t, entries = memo_sstable () in
  Ssd.corrupt_file ssd file ~off:100;
  check Alcotest.bool "block rot raises on the first read" true
    (raises_corrupted_block (fun () -> Sstable.get t (List.nth entries 5).Util.Kv.key))

(* Every clwb of the build is lost, so the durable image never received the
   table; the cache-domain bytes equal the image and seed the memo. The
   crash reverts them to the never-written durable image, and the first
   read after it must check again. (The values come from a seed no other
   test uses, so no stale copy of this image can sit in the reverted
   bytes.) *)
let test_seed_pm_crash_revert_rechecks () =
  let pm = Pmem.create (Sim.Clock.create ()) in
  Pmem.enable_crash_mode pm;
  Pmem.set_flush_hook pm (Some (fun ~region_id:_ ~off:_ ~len:_ -> Pmem.Flush_dropped));
  let rng = Util.Xoshiro.create 9_731 in
  let entries =
    Array.init 200 (fun i ->
        Util.Kv.entry ~key:(Util.Keys.ycsb_key i) ~seq:(i + 1) (Util.Xoshiro.string rng 24))
  in
  Array.sort Util.Kv.compare_entry entries;
  let t = Pmtable.Pm_table.build pm entries in
  Pmem.set_flush_hook pm None;
  let region = Option.get (Pmem.find_region pm (Pmtable.Pm_table.region_id t)) in
  check Alcotest.int "nothing of the build is durable" 0 (Pmem.durable_upto region);
  Pmem.crash pm;
  check Alcotest.bool "reverted region raises on the first read" true
    (match Pmtable.Pm_table.get t entries.(3).Util.Kv.key with
    | _ -> false
    | exception Pmtable.Integrity.Corrupted _ -> true)

let test_seed_scrub_rechecks () =
  let pm, region, t, _ = memo_pm_table () in
  check Alcotest.(list (pair string int)) "clean seeded table scrubs clean" []
    (Pmtable.Pm_table.verify t);
  let entry_len, _, _ = pm_layout region in
  Pmem.corrupt_region pm region ~off:0;
  Pmem.corrupt_region pm region ~off:(entry_len + pm_record_width + 2);
  check Alcotest.(list (pair string int)) "pm scrub finds both rots"
    [ ("entry", 0); ("prefix", 1) ] (Pmtable.Pm_table.verify t);
  let ssd, file, sst, _ = memo_sstable () in
  check Alcotest.(list int) "clean seeded sstable scrubs clean" [] (Sstable.verify sst);
  Ssd.corrupt_file ssd file ~off:100;
  check Alcotest.(list int) "sstable scrub finds the rot" [ 0 ] (Sstable.verify sst)

(* Planted bug: the builder stores bytes other than the image. The
   comparison must leave the memo empty, so the first read checks and
   raises instead of decoding junk as if it had passed. *)
let test_seed_needs_equal_bytes () =
  Pmtable.Builder.chaos_damage_write := true;
  let _, _, t, entries =
    Fun.protect
      ~finally:(fun () -> Pmtable.Builder.chaos_damage_write := false)
      (fun () -> memo_pm_table ())
  in
  check Alcotest.bool "damaged pm build raises on the first read" true
    (match Pmtable.Pm_table.get t entries.(3).Util.Kv.key with
    | _ -> false
    | exception Pmtable.Integrity.Corrupted _ -> true);
  Sstable.chaos_damage_append := true;
  let _, _, sst, entries =
    Fun.protect ~finally:(fun () -> Sstable.chaos_damage_append := false) memo_sstable
  in
  check Alcotest.bool "damaged sstable build raises on the first read" true
    (raises_corrupted_block (fun () -> Sstable.get sst (List.nth entries 5).Util.Kv.key))

(* Differential: after a random history through one long-lived handle and
   one random corruption of the layers the memo covers, every lookup
   answers or raises exactly as a freshly opened handle (empty memo) over
   the same bytes does. *)
let outcome f = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)

let gen_case =
  QCheck.Gen.(
    quad (int_range 20 160) (list_size (int_range 0 60) (int_range 0 199))
      (pair (int_range 0 1_000_000) bool) (int_range 0 1_000_000))

let prop_memo_pm_matches_fresh =
  QCheck.Test.make ~name:"pm memo answers as a fresh handle" ~count:60
    (QCheck.make gen_case) (fun (n, history, (where, flip), seed) ->
      let pm = Pmem.create (Sim.Clock.create ()) in
      let rng = Util.Xoshiro.create seed in
      let entries =
        Array.init n (fun i ->
            Util.Kv.entry ~key:(Util.Keys.ycsb_key (i * 2)) ~seq:(i + 1)
              (Util.Xoshiro.string rng (Util.Xoshiro.int rng 40)))
      in
      Array.sort Util.Kv.compare_entry entries;
      let t = Pmtable.Pm_table.build pm entries in
      let region = Option.get (Pmem.find_region pm (Pmtable.Pm_table.region_id t)) in
      let key i = Util.Keys.ycsb_key i in
      List.iter (fun i -> ignore (outcome (fun () -> Pmtable.Pm_table.get t (key i)))) history;
      let _, meta_off, groups = pm_layout region in
      let covered = meta_off - (4 * groups) in
      let mode = if flip then `Flip else `Zero in
      Pmem.corrupt_region ~len:(min 4 (covered - (where mod covered))) ~mode pm region
        ~off:(where mod covered);
      match Pmtable.Pm_table.open_existing pm region with
      | exception _ -> true (* the rot hit the bytes open_existing reads *)
      | fresh when Pmtable.Pm_table.min_key fresh <> Pmtable.Pm_table.min_key t -> true
      | _ ->
          List.for_all
            (fun i ->
              let fresh = Pmtable.Pm_table.open_existing pm region in
              outcome (fun () -> Pmtable.Pm_table.get t (key i))
              = outcome (fun () -> Pmtable.Pm_table.get fresh (key i)))
            (List.init (2 * n) Fun.id @ history))

let prop_memo_sstable_matches_fresh =
  QCheck.Test.make ~name:"sstable memo answers as a fresh handle" ~count:60
    (QCheck.make gen_case) (fun (n, history, (where, flip), seed) ->
      let ssd = Ssd.create (Sim.Clock.create ()) in
      let rng = Util.Xoshiro.create seed in
      let entries =
        List.init (n * 4) (fun i ->
            Util.Kv.entry ~key:(Util.Keys.ycsb_key (i * 2)) ~seq:(i + 1)
              (Util.Xoshiro.string rng (Util.Xoshiro.int rng 40)))
      in
      let t = Sstable.build ~block_bytes:512 ssd (Array.of_list entries) in
      let file = Option.get (Ssd.find_file ssd (Sstable.file_id t)) in
      let key i = Util.Keys.ycsb_key (i * 4 mod (n * 8)) in
      List.iter (fun i -> ignore (outcome (fun () -> Sstable.get t (key i)))) history;
      (* data blocks only: the meta block is checked at open, not memoized *)
      let size = Ssd.file_size file in
      let data_len = u32_at (Ssd.pread ssd file ~off:(size - 12) ~len:12) 4 in
      let mode = if flip then `Flip else `Zero in
      Ssd.corrupt_file ~len:(min 4 (data_len - (where mod data_len))) ~mode ssd file
        ~off:(where mod data_len);
      List.for_all
        (fun i ->
          let fresh = Sstable.open_existing ssd file in
          outcome (fun () -> Sstable.get t (key i))
          = outcome (fun () -> Sstable.get fresh (key i)))
        (List.init (2 * n) Fun.id @ history))

(* --- Engine: degraded reads + quarantine ----------------------------------- *)

let test_engine_quarantines_rotten_table () =
  let engine = build_engine () in
  Core.Engine.flush engine;
  Core.Engine.force_internal_compaction engine;
  let pm = Core.Engine.pm engine in
  let region =
    match Pmem.live_regions pm with
    | r :: _ -> r
    | [] -> Alcotest.fail "no live PM region after flush"
  in
  (* rot the head of the entry layer: reads into the first group(s) fail *)
  Pmem.corrupt_region ~len:64 ~mode:`Zero pm region ~off:0;
  let degraded = ref 0 in
  for i = 0 to 63 do
    match Core.Engine.get_checked engine (key i) with
    | Ok _ -> ()
    | Error _ -> incr degraded
  done;
  check Alcotest.bool "some reads degraded (typed, not raised)" true (!degraded > 0);
  check Alcotest.bool "table quarantined" true (Core.Engine.quarantined engine <> []);
  let m = Core.Engine.metrics engine in
  check Alcotest.bool "quarantine metric" true (m.Core.Metrics.quarantined > 0);
  check Alcotest.bool "degraded-read metric" true (m.Core.Metrics.degraded_reads > 0);
  (* the quarantined table left the read path: a second pass is clean *)
  for i = 0 to 63 do
    match Core.Engine.get_checked engine (key i) with
    | Ok _ -> ()
    | Error _ -> Alcotest.fail "degraded read after quarantine"
  done;
  (* and the damage is queryable *)
  check Alcotest.bool "damaged_key covers some key" true
    (List.exists (fun i -> Core.Engine.damaged_key engine (key i)) (List.init 64 Fun.id))

let test_engine_degraded_scan_is_typed () =
  let engine = build_engine () in
  Core.Engine.flush engine;
  Core.Engine.force_internal_compaction engine;
  let pm = Core.Engine.pm engine in
  let region =
    match Pmem.live_regions pm with r :: _ -> r | [] -> Alcotest.fail "no region"
  in
  Pmem.corrupt_region ~len:64 ~mode:`Zero pm region ~off:0;
  (match Core.Engine.scan_range_checked engine ~start:"" ~stop:"zzzz" with
  | Ok _ -> () (* the rot may sit in a partition the scan widened past *)
  | Error e ->
      check Alcotest.bool "partial result carried" true
        (e.Core.Engine.scan_quarantined <> []));
  (* either way: quarantined now, and the next scan is whole *)
  match Core.Engine.scan_range_checked engine ~start:"" ~stop:"zzzz" with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "scan still degraded after quarantine"

(* --- Engine scrub: salvage + lost ranges ----------------------------------- *)

let test_engine_scrub_salvages () =
  let engine = build_engine () in
  Core.Engine.flush engine;
  Core.Engine.force_internal_compaction engine;
  let pm = Core.Engine.pm engine in
  let region =
    match Pmem.live_regions pm with r :: _ -> r | [] -> Alcotest.fail "no region"
  in
  Pmem.corrupt_region ~len:32 ~mode:`Zero pm region ~off:0;
  let report = Core.Engine.scrub engine in
  check Alcotest.int "one corrupt PM table" 1 report.Core.Engine.corrupt_pm_tables;
  check Alcotest.bool "salvaged or dropped" true
    (report.Core.Engine.salvaged + report.Core.Engine.dropped = 1);
  check Alcotest.bool "lost range recorded" true (report.Core.Engine.lost_ranges <> []);
  check Alcotest.bool "salvage metric" true
    ((Core.Engine.metrics engine).Core.Metrics.salvaged >= report.Core.Engine.salvaged);
  (* after the salvage the store is clean again *)
  let again = Core.Engine.scrub engine in
  check Alcotest.int "re-scrub clean (pm)" 0 again.Core.Engine.corrupt_pm_tables;
  check Alcotest.int "re-scrub clean (sst)" 0 again.Core.Engine.corrupt_sstables

let test_engine_scrub_rate_limit_charges_clock () =
  let engine = build_engine () in
  Core.Engine.flush engine;
  Core.Engine.force_internal_compaction engine;
  let clock = Pmem.clock (Core.Engine.pm engine) in
  let t0 = Sim.Clock.now clock in
  ignore (Core.Engine.scrub ~rate_limit_mb_s:0.001 engine);
  let slow = Sim.Clock.now clock -. t0 in
  let t1 = Sim.Clock.now clock in
  ignore (Core.Engine.scrub engine);
  let fast = Sim.Clock.now clock -. t1 in
  check Alcotest.bool "rate limit stretches the scrub" true (slow > fast *. 10.)

(* --- Scrubber: WAL and manifest legs --------------------------------------- *)

let test_scrubber_sees_wal_rot () =
  let engine = build_engine ~ops:40 () in
  (* no flush: everything acked lives in the durable WAL *)
  let ssd = Core.Engine.ssd engine in
  let wal = Option.get (Core.Engine.wal engine) in
  let file = Option.get (Ssd.find_file ssd (Core.Wal.file_id wal)) in
  Ssd.corrupt_file ssd file ~off:(Ssd.durable_size file / 2);
  let report = Core.Scrubber.run engine in
  check Alcotest.bool "wal rot detected" true
    (match report.Core.Scrubber.wal with
    | Some s -> s.Core.Wal.corrupt_records > 0 || s.Core.Wal.torn_tail
    | None -> false);
  check Alcotest.bool "report not clean" true (not (Core.Scrubber.clean report))

let test_scrubber_sees_manifest_rot () =
  let engine = build_engine () in
  Core.Engine.flush engine;
  let ssd = Core.Engine.ssd engine in
  let cur, _ = Ssd.root_slots ssd in
  let file = Option.get (Ssd.find_file ssd (Option.get cur)) in
  Ssd.corrupt_file ssd file ~off:(Ssd.file_size file / 2);
  let report = Core.Scrubber.run engine in
  check Alcotest.bool "newest slot flagged" true report.Core.Scrubber.manifest_rotted;
  check Alcotest.bool "report not clean" true (not (Core.Scrubber.clean report))

(* --- Golden on-media bytes ---------------------------------------------- *)

(* Digests of the bytes each codec stores for fixed seeded inputs: a
   PM-table region, an SSTable file and a serialized Bloom filter. Any
   change to the stored format or to a checksum kernel moves a digest, and
   tables written by older builds would no longer reopen — so a mismatch
   here is a format change, never something to re-pin silently. *)

let golden_entries () =
  let rng = Util.Xoshiro.create 1234 in
  let record i =
    Util.Kv.entry
      ~key:(Util.Keys.record_key ~table_id:(i mod 3) ~row_id:(i * 7))
      ~seq:(i + 1)
      (Util.Xoshiro.string rng (1 + Util.Xoshiro.int rng 300))
  in
  let index i =
    Util.Kv.entry
      ~key:
        (Util.Keys.index_key ~table_id:5 ~index_id:2
           ~column:(Printf.sprintf "city-%02d" (i mod 11)) ~row_id:i)
      ~seq:(1000 + i)
      (Util.Xoshiro.string rng 8)
  in
  let ycsb i =
    if i mod 13 = 0 then Util.Kv.tombstone ~key:(Util.Keys.ycsb_key i) ~seq:(2000 + i)
    else
      Util.Kv.entry ~key:(Util.Keys.ycsb_key i) ~seq:(2000 + i)
        (Util.Xoshiro.string rng (Util.Xoshiro.int rng 40))
  in
  (* Version pileup: one key with more versions than a group holds. *)
  let pileup v =
    Util.Kv.entry ~key:(Util.Keys.record_key ~table_id:1 ~row_id:77) ~seq:(3000 + v)
      (Printf.sprintf "version-%d" v)
  in
  let entries =
    Array.concat
      [ Array.init 150 record; Array.init 60 index; Array.init 90 ycsb; Array.init 20 pileup ]
  in
  Array.sort Util.Kv.compare_entry entries;
  entries

let digest s = Digest.to_hex (Digest.string s)

let test_golden_pm_table_region () =
  let pm = Pmem.create (Sim.Clock.create ()) in
  let tbl = Pmtable.Pm_table.build pm (golden_entries ()) in
  let region = Option.get (Pmem.find_region pm (Pmtable.Pm_table.region_id tbl)) in
  let bytes = Pmem.unsafe_peek region ~off:0 ~len:(Pmem.region_len region) in
  check Alcotest.string "pm table region digest" "795c3a602871217430d579c61e2d7be5" (digest bytes)

let test_golden_sstable_file () =
  let ssd = Ssd.create (Sim.Clock.create ()) in
  let tbl = Sstable.build ~block_bytes:1024 ssd (golden_entries ()) in
  let file = Option.get (Ssd.find_file ssd (Sstable.file_id tbl)) in
  let bytes = Ssd.pread ssd file ~off:0 ~len:(Ssd.file_size file) in
  check Alcotest.string "sstable file digest" "19bc049c800b3ec9260460bcd04991e1" (digest bytes)

let test_golden_bloom () =
  let keys = Array.to_list (Array.map (fun (e : Util.Kv.entry) -> e.key) (golden_entries ())) in
  let bloom = Bloom.of_keys ~bits_per_key:10 keys in
  check Alcotest.string "bloom digest" "cb24c03e954dc897740c41af55433d42" (digest (Bloom.serialize bloom))

(* --- Corruption sweep ------------------------------------------------------- *)

let sweep_config points =
  Fault.Corruption_sweep.config ~seed:17 ~ops:250 ~points small_config

let test_corruption_sweep_clean () =
  let report = Fault.Corruption_sweep.sweep (sweep_config 8) in
  check Alcotest.int "no skipped points" 0 report.Fault.Corruption_sweep.skipped;
  check Alcotest.bool "sweep clean" true (Fault.Corruption_sweep.clean report);
  List.iter
    (fun (p : Fault.Corruption_sweep.point) ->
      check Alcotest.bool "every injection detected" true p.Fault.Corruption_sweep.detected)
    report.Fault.Corruption_sweep.points

(* The falsification half: disable checksum verification — the exact
   "skip the verify" regression this subsystem exists to catch — and the
   sweep must come back dirty. *)
let test_corruption_sweep_catches_planted_bug () =
  Fun.protect
    ~finally:(fun () ->
      Pmtable.Pm_table.verify_checksums := true;
      Sstable.verify_checksums := true)
    (fun () ->
      Pmtable.Pm_table.verify_checksums := false;
      Sstable.verify_checksums := false;
      let report = Fault.Corruption_sweep.sweep (sweep_config 8) in
      check Alcotest.bool "planted bug caught" true
        (not (Fault.Corruption_sweep.clean report));
      check Alcotest.bool "violations reported" true
        (Fault.Corruption_sweep.violation_count report > 0))

(* The first-key peek steers a lookup through tied slots: rot in the
   peeked bytes once sent it past its key, a silent miss until the next
   scrub. Keys here tie on their 24-byte slots and differ in their tails;
   flipping the first suffix byte of group 2's first key makes that group
   look as if it started after every key it holds. A get of a key in the
   group must raise, never answer None. *)
let test_peek_rot_never_misses () =
  let pm = Pmem.create (Sim.Clock.create ()) in
  let key i = Printf.sprintf "t0001%02d%s%06d" (i / 40) (String.make 30 'x') i in
  let entries =
    Array.init 80 (fun i -> Util.Kv.entry ~key:(key i) ~seq:(i + 1) (Printf.sprintf "v%d" i))
  in
  let t = Pmtable.Pm_table.build pm entries in
  let region = Option.get (Pmem.find_region pm (Pmtable.Pm_table.region_id t)) in
  let probe = entries.(19) in
  check Alcotest.bool "clean read" true (Pmtable.Pm_table.get t probe.key = Some probe);
  let entry_len, _, _ = pm_layout region in
  let group2 =
    u32_at (Pmem.unsafe_peek region ~off:(entry_len + (2 * pm_record_width)) ~len:pm_record_width) 24
  in
  (* past the one-byte suffix length: the first byte of the stored suffix *)
  Pmem.corrupt_region pm region ~off:(group2 + 1);
  match Pmtable.Pm_table.get t probe.key with
  | Some e when e = probe -> ()
  | Some _ -> Alcotest.fail "wrong answer under peek rot"
  | None -> Alcotest.fail "silent miss under peek rot"
  | exception Pmtable.Integrity.Corrupted { layer; index; _ } ->
      check Alcotest.string "the rotten group's layer" "entry" layer;
      check Alcotest.int "the rotten group" 2 index

let () =
  Alcotest.run "integrity"
    [
      ( "tables",
        [
          Alcotest.test_case "pm table verify + salvage" `Quick
            test_pm_table_verify_salvage;
          Alcotest.test_case "sstable verify + salvage" `Quick
            test_sstable_verify_salvage;
        ] );
      ( "memo",
        [
          Alcotest.test_case "pm group rot after read" `Quick
            test_memo_pm_group_rot_after_read;
          Alcotest.test_case "pm record rot after read" `Quick
            test_memo_pm_record_rot_after_read;
          Alcotest.test_case "pm crash revert rechecks" `Quick
            test_memo_pm_crash_revert_rechecks;
          Alcotest.test_case "sstable rot after read" `Quick
            test_memo_sstable_rot_after_read;
          Alcotest.test_case "warm_cache checks blocks" `Quick
            test_warm_cache_checks_blocks;
          Alcotest.test_case "scrub after memo hits" `Quick test_scrub_after_memo_hits;
          Alcotest.test_case "seeded: pm group rot before read" `Quick
            test_seed_pm_group_rot_before_read;
          Alcotest.test_case "seeded: pm record rot before read" `Quick
            test_seed_pm_record_rot_before_read;
          Alcotest.test_case "seeded: sstable rot before read" `Quick
            test_seed_sstable_rot_before_read;
          Alcotest.test_case "seeded: crash revert rechecks" `Quick
            test_seed_pm_crash_revert_rechecks;
          Alcotest.test_case "seeded: scrub rechecks" `Quick test_seed_scrub_rechecks;
          Alcotest.test_case "seeded only on equal bytes" `Quick test_seed_needs_equal_bytes;
          QCheck_alcotest.to_alcotest prop_memo_pm_matches_fresh;
          QCheck_alcotest.to_alcotest prop_memo_sstable_matches_fresh;
        ] );
      ( "engine",
        [
          Alcotest.test_case "quarantine on rotten table" `Quick
            test_engine_quarantines_rotten_table;
          Alcotest.test_case "degraded scan is typed" `Quick
            test_engine_degraded_scan_is_typed;
          Alcotest.test_case "scrub salvages" `Quick test_engine_scrub_salvages;
          Alcotest.test_case "scrub rate limit" `Quick
            test_engine_scrub_rate_limit_charges_clock;
        ] );
      ( "scrubber",
        [
          Alcotest.test_case "wal rot" `Quick test_scrubber_sees_wal_rot;
          Alcotest.test_case "manifest rot" `Quick test_scrubber_sees_manifest_rot;
        ] );
      ( "golden bytes",
        [
          Alcotest.test_case "pm table region" `Quick test_golden_pm_table_region;
          Alcotest.test_case "sstable file" `Quick test_golden_sstable_file;
          Alcotest.test_case "bloom filter" `Quick test_golden_bloom;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "clean on a healthy stack" `Quick
            test_corruption_sweep_clean;
          Alcotest.test_case "peek rot raises, never misses" `Quick test_peek_rot_never_misses;
          Alcotest.test_case "catches planted verify-skip bug" `Quick
            test_corruption_sweep_catches_planted_bug;
        ] );
    ]
