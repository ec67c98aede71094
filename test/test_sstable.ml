(* SSTable tests: builder/reader roundtrip, bloom-screened gets, block
   cache behaviour (the "SSTable in cache" configuration of Table I),
   ranges, and overlap metadata. *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let make () =
  let clock = Sim.Clock.create () in
  (clock, Ssd.create clock)

let entries n =
  List.init n (fun i ->
      Util.Kv.entry ~key:(Util.Keys.ycsb_key (i * 2)) ~seq:(i + 1) (Printf.sprintf "value-%05d" i))

let test_roundtrip () =
  let _, ssd = make () in
  let es = entries 500 in
  let sst = Sstable.build ssd (Array.of_list es) in
  check Alcotest.int "count" 500 (Sstable.count sst);
  check Alcotest.bool "stream identical" true
    (List.for_all2 (fun (a : Util.Kv.entry) b -> a = b) es (Array.to_list (Sstable.to_array sst)));
  List.iter
    (fun (e : Util.Kv.entry) ->
      match Sstable.get sst e.key with
      | Some got -> check Alcotest.string ("get " ^ e.key) e.value got.Util.Kv.value
      | None -> Alcotest.failf "lost %s" e.key)
    (List.filteri (fun i _ -> i mod 13 = 0) es)

let test_absent_keys () =
  let _, ssd = make () in
  let sst = Sstable.build ssd (Array.of_list (entries 100)) in
  (* odd ranks were never inserted *)
  check Alcotest.bool "absent inside range" true (Sstable.get sst (Util.Keys.ycsb_key 3) = None);
  check Alcotest.bool "absent below" true (Sstable.get sst "a" = None);
  check Alcotest.bool "absent above" true (Sstable.get sst "z" = None)

let test_bloom_saves_reads () =
  let _, ssd = make () in
  let sst = Sstable.build ssd (Array.of_list (entries 1000)) in
  let misses () =
    for i = 0 to 499 do
      ignore (Sstable.get sst (Util.Keys.ycsb_key ((i * 2) + 1)))
    done
  in
  let reads_before = (Ssd.stats ssd).Ssd.reads in
  misses ();
  let with_bloom = (Ssd.stats ssd).Ssd.reads - reads_before in
  let reads_before = (Ssd.stats ssd).Ssd.reads in
  for i = 0 to 499 do
    ignore (Sstable.get ~use_bloom:false sst (Util.Keys.ycsb_key ((i * 2) + 1)))
  done;
  let without_bloom = (Ssd.stats ssd).Ssd.reads - reads_before in
  check Alcotest.bool
    (Printf.sprintf "bloom suppresses device reads (%d < %d)" with_bloom without_bloom)
    true
    (with_bloom < without_bloom / 5)

let test_block_cache_latency () =
  let clock, ssd = make () in
  let sst = Sstable.build ssd (Array.of_list (entries 1000)) in
  let probe = Util.Keys.ycsb_key 500 in
  let timed f = snd (Sim.Clock.time clock f) in
  let cold = timed (fun () -> ignore (Sstable.get sst probe)) in
  Sstable.warm_cache sst;
  let warm = timed (fun () -> ignore (Sstable.get sst probe)) in
  check Alcotest.bool
    (Printf.sprintf "cache hit much faster (%.0fns vs %.0fns)" warm cold)
    true
    (warm < cold /. 5.0);
  Sstable.drop_cache sst;
  let cold2 = timed (fun () -> ignore (Sstable.get sst probe)) in
  check Alcotest.bool "dropping cache restores device reads" true (cold2 > warm *. 5.0)

let test_range () =
  let _, ssd = make () in
  let es = entries 300 in
  let sst = Sstable.build ssd (Array.of_list es) in
  let start = Util.Keys.ycsb_key 100 and stop = Util.Keys.ycsb_key 200 in
  let expected = List.filter (fun (e : Util.Kv.entry) -> e.key >= start && e.key < stop) es in
  let got = ref [] in
  Sstable.range sst ~start ~stop (fun e -> got := e :: !got);
  check Alcotest.int "range count" (List.length expected) (List.length !got)

let test_metadata_and_overlap () =
  let _, ssd = make () in
  let es = entries 50 in
  let sst = Sstable.build ssd (Array.of_list es) in
  check Alcotest.string "min" (Util.Keys.ycsb_key 0) (Sstable.min_key sst);
  check Alcotest.string "max" (Util.Keys.ycsb_key 98) (Sstable.max_key sst);
  check Alcotest.bool "overlap inside" true
    (Sstable.overlaps sst ~min:(Util.Keys.ycsb_key 10) ~max:(Util.Keys.ycsb_key 20));
  check Alcotest.bool "overlap outside" false
    (Sstable.overlaps sst ~min:(Util.Keys.ycsb_key 99) ~max:(Util.Keys.ycsb_key 200));
  (* a table bigger than one block splits *)
  let big = Sstable.build ssd (Array.of_list (entries 500)) in
  check Alcotest.bool "multi-block" true (Sstable.block_count big > 1)

let test_versions_within_table () =
  let _, ssd = make () in
  let es =
    [
      Util.Kv.entry ~key:"k" ~seq:9 "newest";
      Util.Kv.entry ~key:"k" ~seq:5 "older";
      Util.Kv.tombstone ~key:"m" ~seq:7;
    ]
    |> List.sort Util.Kv.compare_entry
  in
  let sst = Sstable.build ssd (Array.of_list es) in
  (match Sstable.get sst "k" with
  | Some e -> check Alcotest.string "newest version" "newest" e.Util.Kv.value
  | None -> Alcotest.fail "lost k");
  match Sstable.get sst "m" with
  | Some e -> check Alcotest.bool "tombstone surfaced" true (e.Util.Kv.kind = Util.Kv.Delete)
  | None -> Alcotest.fail "tombstone must be visible to reads"

let test_empty_rejected () =
  let _, ssd = make () in
  check Alcotest.bool "empty raises" true
    (try ignore (Sstable.build ssd [||]); false with Invalid_argument _ -> true)

(* Versions of one key must arrive newest first: [get] serves the first
   match, so an ascending-seq pair would serve the stale version. *)
let test_version_order_checked () =
  let _, ssd = make () in
  let stale = Util.Kv.entry ~key:"k" ~seq:1 "old" and fresh = Util.Kv.entry ~key:"k" ~seq:2 "new" in
  check Alcotest.bool "ascending seq within a key raises" true
    (try ignore (Sstable.build ssd [| stale; fresh |]); false with Invalid_argument _ -> true);
  check Alcotest.bool "descending key order raises" true
    (try ignore (Sstable.build ssd [| Util.Kv.entry ~key:"b" ~seq:1 "v"; Util.Kv.entry ~key:"a" ~seq:2 "v" |]); false
     with Invalid_argument _ -> true);
  let sst = Sstable.build ssd [| fresh; stale |] in
  check (Alcotest.option Alcotest.string) "newest served" (Some "new")
    (Option.map (fun (e : Util.Kv.entry) -> e.value) (Sstable.get sst "k"))

(* A slice builds the same file as the sub-array would, and only the slice
   is checked: out-of-order entries outside it do not matter. *)
let test_slice_build () =
  let _, ssd = make () in
  let es = Array.of_list (entries 300) in
  let whole = Sstable.build ssd (Array.sub es 40 200) in
  let junk = Util.Kv.entry ~key:"zzz" ~seq:0 "" in
  let padded = Array.concat [ [| junk |]; es; [| junk |] ] in
  let slice = Sstable.build ~pos:41 ~len:200 ssd padded in
  let bytes t =
    let f = Option.get (Ssd.find_file ssd (Sstable.file_id t)) in
    Ssd.pread ssd f ~off:0 ~len:(Ssd.file_size f)
  in
  check Alcotest.string "same file bytes" (bytes whole) (bytes slice);
  check Alcotest.bool "out-of-bounds slice raises" true
    (try ignore (Sstable.build ~pos:250 ~len:100 ssd es); false with Invalid_argument _ -> true)

let test_write_charged () =
  let clock, ssd = make () in
  let t0 = Sim.Clock.now clock in
  ignore (Sstable.build ssd (Array.of_list (entries 500)));
  check Alcotest.bool "build charges device time" true (Sim.Clock.now clock > t0);
  check Alcotest.bool "bytes accounted" true ((Ssd.stats ssd).Ssd.bytes_written > 0)

let prop_model =
  QCheck.Test.make ~name:"sstable get = model" ~count:60
    QCheck.(list_of_size Gen.(int_range 1 100) (pair (string_of_size Gen.(int_range 1 16)) (string_of_size Gen.(int_range 0 40))))
    (fun pairs ->
      let _, ssd = make () in
      let entries =
        List.mapi (fun seq (key, value) -> Util.Kv.entry ~key ~seq value) pairs
        |> List.sort Util.Kv.compare_entry
      in
      let sst = Sstable.build ssd (Array.of_list entries) in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (e : Util.Kv.entry) ->
          match Hashtbl.find_opt model e.key with
          | Some (p : Util.Kv.entry) when p.seq >= e.seq -> ()
          | _ -> Hashtbl.replace model e.key e)
        entries;
      Hashtbl.fold
        (fun key (expected : Util.Kv.entry) acc ->
          acc
          &&
          match Sstable.get sst key with
          | Some got -> got.Util.Kv.seq = expected.seq
          | None -> false)
        model true)


let test_checksum_detects_corruption () =
  let _, ssd = make () in
  let sst = Sstable.build ssd (Array.of_list (entries 200)) in
  (* healthy read first *)
  check Alcotest.bool "clean read works" true (Sstable.get sst (Util.Keys.ycsb_key 100) <> None);
  (* flip a byte inside the first data block *)
  let file = Option.get (Ssd.find_file ssd (Sstable.file_id sst)) in
  Ssd.corrupt_file ssd file ~off:10;
  check Alcotest.bool "corrupted block detected" true
    (try ignore (Sstable.get sst (Util.Keys.ycsb_key 0)); false
     with Sstable.Corrupted_block _ -> true);
  (* blocks further in are unaffected *)
  check Alcotest.bool "other blocks still readable" true
    (Sstable.get sst (Util.Keys.ycsb_key 398) <> None)

let () =
  Alcotest.run "sstable"
    [
      ( "sstable",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "absent keys" `Quick test_absent_keys;
          Alcotest.test_case "bloom saves reads" `Quick test_bloom_saves_reads;
          Alcotest.test_case "block cache latency" `Quick test_block_cache_latency;
          Alcotest.test_case "range" `Quick test_range;
          Alcotest.test_case "metadata + overlap" `Quick test_metadata_and_overlap;
          Alcotest.test_case "versions within table" `Quick test_versions_within_table;
          Alcotest.test_case "empty rejected" `Quick test_empty_rejected;
          Alcotest.test_case "version order checked" `Quick test_version_order_checked;
          Alcotest.test_case "slice build" `Quick test_slice_build;
          Alcotest.test_case "writes charged" `Quick test_write_charged;
          Alcotest.test_case "checksum detects corruption" `Quick test_checksum_detects_corruption;
          qtest prop_model;
        ] );
    ]
