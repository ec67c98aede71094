(* Tests for the four level-0 table structures: model equivalence for every
   kind, ordering, ranges, version semantics, compression accounting, and
   the cost asymmetries the paper's Fig. 6 relies on. *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let all_kinds =
  [
    ("pm", Pmtable.Table.Pm_compressed);
    ("array", Pmtable.Table.Array_plain);
    ("snappy", Pmtable.Table.Array_snappy);
    ("snappy-group", Pmtable.Table.Array_snappy_group);
  ]

let make_dev () =
  let clock = Sim.Clock.create () in
  (clock, Pmem.create clock)

(* Entries over mixed database/YCSB keys with duplicate keys (versions). *)
let make_entries n =
  let rng = Util.Xoshiro.create 71 in
  let entries = ref [] in
  for seq = 1 to n do
    let key =
      match Util.Xoshiro.int rng 3 with
      | 0 -> Util.Keys.record_key ~table_id:(Util.Xoshiro.int rng 3) ~row_id:(Util.Xoshiro.int rng (n / 2))
      | 1 ->
          Util.Keys.index_key ~table_id:(Util.Xoshiro.int rng 3) ~index_id:(Util.Xoshiro.int rng 2)
            ~column:("c" ^ Util.Keys.fixed_int ~width:4 (Util.Xoshiro.int rng 50))
            ~row_id:(Util.Xoshiro.int rng (n / 2))
      | _ -> Util.Keys.ycsb_key (Util.Xoshiro.int rng (n / 2))
    in
    let kind = if Util.Xoshiro.int rng 10 = 0 then Util.Kv.Delete else Util.Kv.Put in
    entries := Util.Kv.entry ~kind ~key ~seq (Util.Xoshiro.string rng 24) :: !entries
  done;
  List.sort Util.Kv.compare_entry !entries

(* Reference: newest version per key. *)
let newest_by_key entries =
  let model = Hashtbl.create 64 in
  List.iter
    (fun (e : Util.Kv.entry) ->
      match Hashtbl.find_opt model e.key with
      | Some (prev : Util.Kv.entry) when prev.seq >= e.seq -> ()
      | _ -> Hashtbl.replace model e.key e)
    entries;
  model

let test_model_equivalence (name, kind) () =
  let _, dev = make_dev () in
  let entries = make_entries 600 in
  let tbl = Pmtable.Table.build dev ~kind (Array.of_list entries) in
  let model = newest_by_key entries in
  Hashtbl.iter
    (fun key (expected : Util.Kv.entry) ->
      match Pmtable.Table.get tbl key with
      | Some got ->
          check Alcotest.int (name ^ " newest seq for " ^ key) expected.seq got.Util.Kv.seq
      | None -> Alcotest.failf "%s lost key %s" name key)
    model;
  check (Alcotest.option Alcotest.string) (name ^ " absent key") None
    (Option.map (fun (e : Util.Kv.entry) -> e.key) (Pmtable.Table.get tbl "zzz-absent"))

let test_iter_sorted_and_complete (name, kind) () =
  let _, dev = make_dev () in
  let entries = make_entries 400 in
  let tbl = Pmtable.Table.build dev ~kind (Array.of_list entries) in
  let got = Array.to_list (Pmtable.Table.to_array tbl) in
  check Alcotest.int (name ^ " count") (List.length entries) (List.length got);
  check Alcotest.bool (name ^ " identical stream") true
    (List.for_all2 (fun (a : Util.Kv.entry) b -> a = b) entries got)

let test_range (name, kind) () =
  let _, dev = make_dev () in
  let entries = make_entries 400 in
  let tbl = Pmtable.Table.build dev ~kind (Array.of_list entries) in
  let start = "t0001" and stop = "t0002" in
  let expected =
    List.filter (fun (e : Util.Kv.entry) -> e.key >= start && e.key < stop) entries
  in
  let got = ref [] in
  Pmtable.Table.range tbl ~start ~stop (fun e -> got := e :: !got);
  let got = List.rev !got in
  check Alcotest.int (name ^ " range count") (List.length expected) (List.length got);
  check Alcotest.bool (name ^ " range stream") true
    (List.for_all2 (fun (a : Util.Kv.entry) b -> a = b) expected got)

let test_metadata (name, kind) () =
  let _, dev = make_dev () in
  let entries = make_entries 100 in
  let tbl = Pmtable.Table.build dev ~kind (Array.of_list entries) in
  let first = List.hd entries and last = List.nth entries (List.length entries - 1) in
  check Alcotest.string (name ^ " min key") first.Util.Kv.key (Pmtable.Table.min_key tbl);
  check Alcotest.string (name ^ " max key") last.Util.Kv.key (Pmtable.Table.max_key tbl);
  check Alcotest.int (name ^ " count") (List.length entries) (Pmtable.Table.count tbl);
  let min_seq, max_seq = Pmtable.Table.seq_range tbl in
  check Alcotest.bool (name ^ " seq range sane") true (min_seq >= 1 && max_seq <= 600)

let test_free_releases (name, kind) () =
  let _, dev = make_dev () in
  let entries = make_entries 100 in
  let before = Pmem.used dev in
  let tbl = Pmtable.Table.build dev ~kind (Array.of_list entries) in
  check Alcotest.bool (name ^ " allocates") true (Pmem.used dev > before);
  Pmtable.Table.free tbl;
  check Alcotest.int (name ^ " frees") before (Pmem.used dev)

(* Version spill across group boundaries: many versions of one key. *)
let test_version_pileup (name, kind) () =
  let _, dev = make_dev () in
  let hot = Util.Keys.record_key ~table_id:1 ~row_id:42 in
  let entries =
    List.init 50 (fun i -> Util.Kv.entry ~key:hot ~seq:(50 - i) (Printf.sprintf "v%d" (50 - i)))
    @ [ Util.Kv.entry ~key:(Util.Keys.record_key ~table_id:1 ~row_id:100) ~seq:99 "other" ]
  in
  let entries = List.sort Util.Kv.compare_entry entries in
  let tbl = Pmtable.Table.build dev ~kind (Array.of_list entries) in
  (match Pmtable.Table.get tbl hot with
  | Some e -> check Alcotest.int (name ^ " newest of pileup") 50 e.Util.Kv.seq
  | None -> Alcotest.failf "%s lost hot key" name);
  match Pmtable.Table.get tbl (Util.Keys.record_key ~table_id:1 ~row_id:100) with
  | Some e -> check Alcotest.string (name ^ " other key") "other" e.Util.Kv.value
  | None -> Alcotest.failf "%s lost other key" name

let test_single_entry (name, kind) () =
  let _, dev = make_dev () in
  let e = Util.Kv.entry ~key:"only" ~seq:1 "v" in
  let tbl = Pmtable.Table.build dev ~kind [| e |] in
  check Alcotest.bool (name ^ " found") true (Pmtable.Table.get tbl "only" <> None);
  check Alcotest.bool (name ^ " absent below") true (Pmtable.Table.get tbl "aaa" = None);
  check Alcotest.bool (name ^ " absent above") true (Pmtable.Table.get tbl "zzz" = None)

let test_empty_rejected (name, kind) () =
  let _, dev = make_dev () in
  check Alcotest.bool (name ^ " empty raises") true
    (try ignore (Pmtable.Table.build dev ~kind [||]); false with Invalid_argument _ -> true)

(* --- Paper-specific properties ------------------------------------------- *)

let test_pm_table_compresses () =
  let _, dev = make_dev () in
  (* 120-byte index-style keys, like the paper's index-table dataset. *)
  let entries =
    List.init 512 (fun i ->
        Util.Kv.entry
          ~key:
            (Util.Keys.index_key ~table_id:1 ~index_id:1
               ~column:("city-shanghai-pudong-" ^ Util.Keys.fixed_int ~width:8 (i / 7) ^ String.make 80 'x')
               ~row_id:i)
          ~seq:(i + 1) (Util.Xoshiro.string (Util.Xoshiro.create i) 16))
    |> List.sort Util.Kv.compare_entry
  in
  let tbl = Pmtable.Table.build dev ~kind:Pmtable.Table.Pm_compressed (Array.of_list entries) in
  let ratio =
    float_of_int (Pmtable.Table.byte_size tbl) /. float_of_int (Pmtable.Table.payload_bytes tbl)
  in
  check Alcotest.bool (Printf.sprintf "compression ratio %.2f < 0.85" ratio) true (ratio < 0.85)

let test_pm_table_faster_build_than_array () =
  let clock, dev = make_dev () in
  let entries = make_entries 2000 in
  let t0 = Sim.Clock.now clock in
  let pm_tbl = Pmtable.Table.build dev ~kind:Pmtable.Table.Pm_compressed (Array.of_list entries) in
  let pm_build = Sim.Clock.now clock -. t0 in
  let t1 = Sim.Clock.now clock in
  let arr_tbl = Pmtable.Table.build dev ~kind:Pmtable.Table.Array_plain (Array.of_list entries) in
  let array_build = Sim.Clock.now clock -. t1 in
  check Alcotest.bool "compressed table builds faster (fewer PM bytes)" true
    (pm_build < array_build);
  Pmtable.Table.free pm_tbl;
  Pmtable.Table.free arr_tbl

let test_snappy_read_slower_than_array () =
  let clock, dev = make_dev () in
  let entries = make_entries 1000 in
  let arr = Pmtable.Table.build dev ~kind:Pmtable.Table.Array_plain (Array.of_list entries) in
  let snap = Pmtable.Table.build dev ~kind:Pmtable.Table.Array_snappy (Array.of_list entries) in
  let probe_keys =
    List.filteri (fun i _ -> i mod 7 = 0) entries
    |> List.map (fun (e : Util.Kv.entry) -> e.key)
  in
  let time_gets tbl =
    let t0 = Sim.Clock.now clock in
    List.iter (fun k -> ignore (Pmtable.Table.get tbl k)) probe_keys;
    Sim.Clock.now clock -. t0
  in
  let arr_time = time_gets arr in
  let snap_time = time_gets snap in
  check Alcotest.bool "snappy reads slower (decompression per probe)" true
    (snap_time > arr_time)

let test_snappy_group_builds_faster_than_per_pair () =
  let clock, dev = make_dev () in
  let entries = make_entries 2000 in
  let t0 = Sim.Clock.now clock in
  ignore (Pmtable.Table.build dev ~kind:Pmtable.Table.Array_snappy (Array.of_list entries));
  let per_pair = Sim.Clock.now clock -. t0 in
  let t1 = Sim.Clock.now clock in
  ignore (Pmtable.Table.build dev ~kind:Pmtable.Table.Array_snappy_group (Array.of_list entries));
  let grouped = Sim.Clock.now clock -. t1 in
  check Alcotest.bool "group compression builds faster" true (grouped < per_pair)

let prop_pm_table_model =
  QCheck.Test.make ~name:"pm table get = model over random keysets" ~count:60
    QCheck.(list_of_size Gen.(int_range 1 150) (pair (string_of_size Gen.(int_range 1 24)) (string_of_size Gen.(int_range 0 30))))
    (fun pairs ->
      let _, dev = make_dev () in
      let entries =
        List.mapi (fun seq (key, value) -> Util.Kv.entry ~key ~seq value) pairs
        |> List.sort Util.Kv.compare_entry
      in
      let tbl = Pmtable.Table.build dev ~kind:Pmtable.Table.Pm_compressed (Array.of_list entries) in
      let model = newest_by_key entries in
      Hashtbl.fold
        (fun key (expected : Util.Kv.entry) acc ->
          acc
          &&
          match Pmtable.Table.get tbl key with
          | Some got -> got.Util.Kv.seq = expected.seq
          | None -> false)
        model true)

(* --- Format v2: persisted Bloom filters ----------------------------------- *)

let sorted_ycsb n =
  Array.init n (fun i ->
      Util.Kv.entry ~key:(Util.Keys.ycsb_key i) ~seq:(i + 1) (Printf.sprintf "v%05d" i))

let reopen dev t =
  let region = Option.get (Pmem.find_region dev (Pmtable.Pm_table.region_id t)) in
  Pmtable.Pm_table.open_existing dev region

let test_v1_roundtrip_no_bloom () =
  let _, dev = make_dev () in
  let t = Pmtable.Pm_table.build ~bloom_bits_per_key:0 dev (sorted_ycsb 300) in
  check Alcotest.bool "v1 build carries no bloom" false (Pmtable.Pm_table.has_bloom t);
  let r = reopen dev t in
  check Alcotest.bool "v1 reopens without bloom" false (Pmtable.Pm_table.has_bloom r);
  check Alcotest.int "count survives" 300 (Pmtable.Pm_table.count r);
  for i = 0 to 299 do
    match Pmtable.Pm_table.get r (Util.Keys.ycsb_key i) with
    | Some e -> check Alcotest.int "seq" (i + 1) e.Util.Kv.seq
    | None -> Alcotest.failf "v1 reopen lost rank %d" i
  done

let test_v2_roundtrip_with_bloom () =
  let _, dev = make_dev () in
  let t = Pmtable.Pm_table.build dev (sorted_ycsb 300) in
  check Alcotest.bool "v2 build carries bloom" true (Pmtable.Pm_table.has_bloom t);
  check Alcotest.bool "clean table verifies" true (Pmtable.Pm_table.verify t = []);
  let r = reopen dev t in
  check Alcotest.bool "v2 reopens with bloom" true (Pmtable.Pm_table.has_bloom r);
  for i = 0 to 299 do
    match Pmtable.Pm_table.get r (Util.Keys.ycsb_key i) with
    | Some e -> check Alcotest.int "seq" (i + 1) e.Util.Kv.seq
    | None -> Alcotest.failf "v2 reopen lost rank %d" i
  done;
  (* absent keys inside the range never come back present *)
  for i = 0 to 298 do
    check Alcotest.bool "absent stays absent" true
      (Pmtable.Pm_table.get r (Util.Keys.ycsb_key i ^ "x") = None)
  done

let test_bloom_screens_pm_reads () =
  let _, dev = make_dev () in
  let t = Pmtable.Pm_table.build dev (sorted_ycsb 1000) in
  let stats = Pmem.stats dev in
  let miss use_bloom =
    let r0 = stats.Pmem.reads in
    for i = 0 to 499 do
      ignore (Pmtable.Pm_table.get ~use_bloom t (Util.Keys.ycsb_key i ^ "x"))
    done;
    stats.Pmem.reads - r0
  in
  let with_bloom = miss true in
  let without_bloom = miss false in
  check Alcotest.bool
    (Printf.sprintf "bloom suppresses PM reads (%d < %d)" with_bloom without_bloom)
    true
    (with_bloom < without_bloom / 5);
  check Alcotest.bool "probes counted" true (!Pmtable.Pm_table.bloom_probes > 0);
  check Alcotest.bool "negatives counted" true (!Pmtable.Pm_table.bloom_negatives > 0)

(* A slice builds the very region the sub-array builds; entries outside
   the slice (here out of order) are never looked at. *)
let test_slice_build (name, kind) () =
  let _, dev = make_dev () in
  let entries = Array.of_list (make_entries 300) in
  let bytes tbl =
    let region = Option.get (Pmem.find_region dev (Pmtable.Table.region_id tbl)) in
    Pmem.unsafe_peek region ~off:0 ~len:(Pmem.region_len region)
  in
  let whole = Pmtable.Table.build dev ~kind (Array.sub entries 30 200) in
  let junk = Util.Kv.entry ~key:"zzz" ~seq:0 "" in
  let padded = Array.concat [ [| junk |]; entries; [| junk |] ] in
  let slice = Pmtable.Table.build ~pos:31 ~len:200 dev ~kind padded in
  check Alcotest.string (name ^ " same region bytes") (bytes whole) (bytes slice);
  check Alcotest.bool (name ^ " out-of-bounds slice raises") true
    (try ignore (Pmtable.Table.build ~pos:250 ~len:100 dev ~kind entries); false
     with Invalid_argument _ -> true)

(* A string of at least a chunk arriving on an empty staging buffer goes
   straight to the device as the one write (and line-aligned flush) its
   spill would have issued; anything else is staged as before. *)
let test_builder_direct_write () =
  let _, dev = make_dev () in
  let region = Pmem.alloc dev 20_000 in
  let flushes = ref [] in
  Pmem.set_flush_hook dev
    (Some
       (fun ~region_id:_ ~off ~len ->
         flushes := (off, len) :: !flushes;
         Pmem.Flush_ok));
  let writes () = (Pmem.stats dev).Pmem.writes in
  let b = Pmtable.Builder.create ~chunk:4096 dev region in
  let big = String.make 10_000 'x' and tail = String.make 5_000 'y' in
  Pmtable.Builder.add_string b big;
  check Alcotest.int "one write of the whole string" 1 (writes ());
  check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int)) "completed lines flushed"
    [ (0, 9984) ] !flushes;
  Pmtable.Builder.add_string b "abc";
  Pmtable.Builder.add_string b tail;
  check Alcotest.int "staged bytes spill as one write" 2 (writes ());
  check Alcotest.int "finish returns the length" 15_003 (Pmtable.Builder.finish b);
  check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int)) "each line flushed once"
    [ (0, 9984); (9984, 4992); (14976, 27) ] (List.rev !flushes);
  check Alcotest.string "bytes in order" (big ^ "abc" ^ tail)
    (Pmem.unsafe_peek region ~off:0 ~len:15_003)

(* --- In-place reads and carried hashes ------------------------------------ *)

let one_kb_table dev n =
  let rng = Util.Xoshiro.create 29 in
  let entries =
    Array.init n (fun i ->
        Util.Kv.entry ~key:(Util.Keys.ycsb_key i) ~seq:(i + 1) (Util.Xoshiro.string rng 1024))
  in
  Array.sort Util.Kv.compare_entry entries;
  (Pmtable.Pm_table.build dev entries, entries)

(* A group of eight 1 KB values is ~8 KB, past the minor heap's largest
   block: a get that copied it out of the region allocated it straight in
   the major heap. Reading in place allocates nothing there. *)
let test_get_allocates_nothing_in_major_heap () =
  let _, dev = make_dev () in
  let tbl, entries = one_kb_table dev 512 in
  let probe i = entries.((i * 37) mod 512) in
  for i = 0 to 63 do
    ignore (Sys.opaque_identity (Pmtable.Pm_table.get tbl (probe i).key))
  done;
  let _, promoted0, major0 = Gc.counters () in
  for i = 0 to 499 do
    let e = probe i in
    match Pmtable.Pm_table.get tbl e.key with
    | Some got when got = e -> ()
    | _ -> Alcotest.failf "wrong answer for %s" e.key
  done;
  let _, promoted1, major1 = Gc.counters () in
  check (Alcotest.float 0.0) "direct major-heap words over 500 gets" 0.0
    (major1 -. major0 -. (promoted1 -. promoted0))

let hashes_match tbl =
  Array.for_all
    (fun (e : Util.Kv.entry) -> e.key_hash = Util.Kv.key_hash e.key)
    (Pmtable.Pm_table.to_array tbl)

(* Decoded entries carry their key's hash: from the hashes recorded at
   build, and hashed afresh by a reopened handle. *)
let test_decoded_hashes () =
  let _, dev = make_dev () in
  let entries = Array.of_list (make_entries 400) in
  let tbl = Pmtable.Pm_table.build dev entries in
  check Alcotest.bool "after build" true (hashes_match tbl);
  let e = entries.(123) in
  check Alcotest.bool "get" true
    (match Pmtable.Pm_table.get tbl e.key with
    | Some got -> got.key_hash = Util.Kv.key_hash e.key
    | None -> false);
  let region = Option.get (Pmem.find_region dev (Pmtable.Pm_table.region_id tbl)) in
  let reopened = Pmtable.Pm_table.open_existing dev region in
  check Alcotest.bool "after reopen" true (hashes_match reopened);
  check Alcotest.bool "same entries" true
    (Pmtable.Pm_table.to_array tbl = Pmtable.Pm_table.to_array reopened)

(* Hashes recorded at build describe the sealed bytes only: once the
   region changes, decoded keys are hashed again. With checks off, a
   flipped key byte decodes into a different key, which must not carry
   the old key's hash. *)
let test_recorded_hashes_follow_generation () =
  let _, dev = make_dev () in
  let tbl, entries = one_kb_table dev 64 in
  let region = Option.get (Pmem.find_region dev (Pmtable.Pm_table.region_id tbl)) in
  Fun.protect
    ~finally:(fun () -> Pmtable.Pm_table.verify_checksums := true)
    (fun () ->
      Pmtable.Pm_table.verify_checksums := false;
      (* byte 1: the first byte of the first stored key suffix *)
      Pmem.corrupt_region dev region ~off:1;
      let got = Pmtable.Pm_table.to_array tbl in
      check Alcotest.bool "the rot reached a key" true (got.(0).key <> entries.(0).key);
      check Alcotest.bool "every decoded hash is its key's" true (hashes_match tbl))

let per_kind name f =
  List.map (fun (kname, kind) -> Alcotest.test_case (name ^ " [" ^ kname ^ "]") `Quick (f (kname, kind))) all_kinds

let () =
  Alcotest.run "pmtable"
    [
      ( "all kinds",
        per_kind "model equivalence" test_model_equivalence
        @ per_kind "iter sorted+complete" test_iter_sorted_and_complete
        @ per_kind "range" test_range
        @ per_kind "metadata" test_metadata
        @ per_kind "free releases" test_free_releases
        @ per_kind "version pileup" test_version_pileup
        @ per_kind "single entry" test_single_entry
        @ per_kind "empty rejected" test_empty_rejected
        @ per_kind "slice build" test_slice_build );
      ("builder", [ Alcotest.test_case "direct write of a full chunk" `Quick test_builder_direct_write ]);
      ( "in-place reads",
        [
          Alcotest.test_case "get allocates nothing in the major heap" `Quick
            test_get_allocates_nothing_in_major_heap;
          Alcotest.test_case "decoded hashes after build and reopen" `Quick test_decoded_hashes;
          Alcotest.test_case "recorded hashes follow the generation" `Quick
            test_recorded_hashes_follow_generation;
        ] );
      ( "paper properties",
        [
          Alcotest.test_case "pm table compresses index keys" `Quick test_pm_table_compresses;
          Alcotest.test_case "pm table builds faster than array" `Quick test_pm_table_faster_build_than_array;
          Alcotest.test_case "snappy reads slower than array" `Quick test_snappy_read_slower_than_array;
          Alcotest.test_case "snappy-group builds faster" `Quick test_snappy_group_builds_faster_than_per_pair;
          qtest prop_pm_table_model;
        ] );
      ( "format & bloom",
        [
          Alcotest.test_case "v1 roundtrip (no bloom)" `Quick test_v1_roundtrip_no_bloom;
          Alcotest.test_case "v2 roundtrip (bloom persisted)" `Quick
            test_v2_roundtrip_with_bloom;
          Alcotest.test_case "bloom screens PM reads" `Quick test_bloom_screens_pm_reads;
        ] );
    ]
