(* Wall-clock micro-benchmarks (Bechamel) of the in-memory primitives, as a
   sanity layer under the simulated-time experiments: the three-layer PM
   table lookup (64 B values, and 1 KB values whose ~8 KB groups are probed
   repeatedly, the case the verification memo serves) and full decode, the
   plain array-table lookup, the SSTable point lookup, the LZ codec, the
   Bloom filter and the CRC32 kernel every stored block is checked with, and
   the compaction data plane: an 8-way merge and the PM-table and SSTable
   builds of a 4096-entry run. These measure real host nanoseconds, not
   simulated time. *)

(* Bechamel's toolkit has a [Compaction] module of its own. *)
module Merge = Compaction.Merge

open Bechamel
open Toolkit

let make_pm_fixture () =
  let clock = Sim.Clock.create () in
  let pm = Pmem.create ~params:{ Pmem.default_params with capacity = 64 * 1024 * 1024 } clock in
  let rng = Util.Xoshiro.create 9 in
  let entries =
    Array.init 4096 (fun i ->
        Util.Kv.entry
          ~key:(Util.Keys.record_key ~table_id:(i mod 4) ~row_id:(i * 2))
          ~seq:(i + 1)
          (Util.Xoshiro.string rng 64))
  in
  Array.sort Util.Kv.compare_entry entries;
  let pm_tbl = Pmtable.Pm_table.build pm entries in
  let arr_tbl = Pmtable.Array_table.build pm entries in
  (entries, pm_tbl, arr_tbl)

(* 1 KB values: each group of 8 spans ~8 KB; 16 hot keys are probed over
   and over, as a zipfian workload re-reads its hot groups. *)
let make_hot_fixture () =
  let clock = Sim.Clock.create () in
  let pm = Pmem.create ~params:{ Pmem.default_params with capacity = 64 * 1024 * 1024 } clock in
  let rng = Util.Xoshiro.create 23 in
  let entries =
    Array.init 1024 (fun i ->
        Util.Kv.entry ~key:(Util.Keys.ycsb_key i) ~seq:(i + 1) (Util.Xoshiro.string rng 1024))
  in
  let hot = Array.init 16 (fun i -> entries.(i * 61).Util.Kv.key) in
  (Pmtable.Pm_table.build pm entries, hot)

let make_sstable_fixture entries =
  let ssd = Ssd.create (Sim.Clock.create ()) in
  Sstable.build ssd entries

(* Eight sorted runs of 2048 entries over one keyspace, as internal
   compaction merges the unsorted tables into the sorted run. *)
let make_merge_runs () =
  let rng = Util.Xoshiro.create 31 in
  List.init 8 (fun r ->
      let run =
        Array.init 2048 (fun i ->
            Util.Kv.entry ~key:(Util.Keys.ycsb_key (Util.Xoshiro.int rng 20_000))
              ~seq:((r * 2048) + i + 1)
              (Util.Xoshiro.string rng 64))
      in
      Array.sort Util.Kv.compare_entry run;
      run)

let tests () =
  let entries, pm_tbl, arr_tbl = make_pm_fixture () in
  let hot_tbl, hot = make_hot_fixture () in
  let sst = make_sstable_fixture entries in
  let rng = Util.Xoshiro.create 17 in
  let key () = entries.(Util.Xoshiro.int rng 4096).Util.Kv.key in
  let sample = String.concat "" (List.init 64 (fun i -> Printf.sprintf "key%06d=value" i)) in
  let compressed = Compress.Lz.compress sample in
  let bloom = Bloom.of_keys ~bits_per_key:10 (Array.to_list (Array.map (fun e -> e.Util.Kv.key) entries)) in
  let fresh_bloom = Bloom.create ~bits_per_key:10 4096 in
  let block_64 = Util.Xoshiro.string rng 64 and block_4k = Util.Xoshiro.string rng 4096 in
  let runs = make_merge_runs () in
  let merge_clock = Sim.Clock.create () in
  let build_pm =
    Pmem.create ~params:{ Pmem.default_params with capacity = 64 * 1024 * 1024 } (Sim.Clock.create ())
  in
  let build_ssd = Ssd.create (Sim.Clock.create ()) in
  [
    Test.make ~name:"pm_table.get" (Staged.stage (fun () -> ignore (Pmtable.Pm_table.get pm_tbl (key ()))));
    Test.make ~name:"pm_table.get-1KB" (Staged.stage (fun () -> ignore (Pmtable.Pm_table.get hot_tbl hot.(Util.Xoshiro.int rng 16))));
    Test.make ~name:"sstable.get" (Staged.stage (fun () -> ignore (Sstable.get sst (key ()))));
    Test.make ~name:"array_table.get" (Staged.stage (fun () -> ignore (Pmtable.Array_table.get arr_tbl (key ()))));
    Test.make ~name:"lz.compress-1KB" (Staged.stage (fun () -> ignore (Compress.Lz.compress sample)));
    Test.make ~name:"lz.decompress-1KB" (Staged.stage (fun () -> ignore (Compress.Lz.decompress compressed)));
    Test.make ~name:"bloom.mem" (Staged.stage (fun () -> ignore (Bloom.mem bloom (key ()))));
    Test.make ~name:"bloom.add" (Staged.stage (fun () -> Bloom.add fresh_bloom (key ())));
    Test.make ~name:"crc32-64B" (Staged.stage (fun () -> ignore (Util.Crc32.string block_64)));
    Test.make ~name:"crc32-4KB" (Staged.stage (fun () -> ignore (Util.Crc32.string block_4k)));
    Test.make ~name:"pm_table.to_array-4096" (Staged.stage (fun () -> ignore (Pmtable.Pm_table.to_array pm_tbl)));
    Test.make ~name:"merge-8x2048" (Staged.stage (fun () -> ignore (Merge.merge ~clock:merge_clock runs)));
    Test.make ~name:"pm_table.build-4096" (Staged.stage (fun () -> Pmtable.Pm_table.free (Pmtable.Pm_table.build build_pm entries)));
    Test.make ~name:"sstable.build-4096" (Staged.stage (fun () -> Sstable.delete (Sstable.build build_ssd entries)));
  ]

let run () =
  Report.heading "Micro: wall-clock cost of core primitives (Bechamel)";
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:Measure.[| run |]
  in
  let rows =
    List.map
      (fun test ->
        let results = Benchmark.all cfg instances test in
        let name = Test.Elt.name (List.hd (Test.elements test)) in
        let analysis = Analyze.all ols Instance.monotonic_clock results in
        let estimate =
          Hashtbl.fold
            (fun _ v acc ->
              match Analyze.OLS.estimates v with
              | Some [ e ] -> e
              | _ -> acc)
            analysis 0.0
        in
        [ name; Printf.sprintf "%.0f ns/op" estimate ])
      (tests ())
  in
  Report.table ~header:[ "primitive"; "wall-clock cost" ] rows
