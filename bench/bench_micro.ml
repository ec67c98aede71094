(* Wall-clock micro-benchmarks (Bechamel) of the in-memory primitives, as a
   sanity layer under the simulated-time experiments: the three-layer PM
   table lookup (64 B values, and 1 KB values whose ~8 KB groups are probed
   repeatedly, the case the verification memo serves) and full decode, the
   plain array-table lookup, the SSTable point lookup, the LZ codec, the
   Bloom filter (by key, and by the hash an entry carries) and the CRC32
   kernel every stored block is checked with, and the compaction data
   plane: an 8-way merge and the PM-table and SSTable builds of a
   4096-entry run; the load generator's 1 KB value; and the
   first read of a freshly built table, which the memo seeded at build
   serves without a checksum pass. These measure real host nanoseconds,
   minor words and words allocated directly in the major heap per call,
   not simulated time. *)

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

(* Allocation counters: minor words from [Gc.minor_words] (Bechamel's
   allocation instance reads [Gc.quick_stat], and the minor count of
   [Gc.counters], which OCaml 5 only refreshes at minor collections), and
   direct major-heap words — blocks too large for the minor heap,
   allocated straight in the major heap: major words less the words
   promoted from the minor heap. *)
let alloc_counters () =
  let _, promoted, major = Gc.counters () in
  (Gc.minor_words (), major -. promoted)

(* The first lookup of a table right after its build: [tables] one-group
   tables of eight 1 KB values are built, then each is probed once, timing
   only the probes. Mean host ns, minor words and direct major-heap words
   per first read, over [rounds] rounds. *)
let first_read_after_build ?(tables = 128) ?(rounds = 20) () =
  let pm = Pmem.create ~params:{ Pmem.default_params with capacity = 64 * 1024 * 1024 } (Sim.Clock.create ()) in
  let rng = Util.Xoshiro.create 41 in
  let ns = ref 0.0 and words = ref 0.0 and major = ref 0.0 in
  for _ = 1 to rounds do
    let built =
      Array.init tables (fun t ->
          let entries =
            Array.init 8 (fun i ->
                Util.Kv.entry ~key:(Util.Keys.ycsb_key ((t * 8) + i)) ~seq:(i + 1)
                  (Util.Xoshiro.string rng 1024))
          in
          (Pmtable.Pm_table.build pm entries, entries.(3).Util.Kv.key))
    in
    let minor0, major0 = alloc_counters () and t0 = Unix.gettimeofday () in
    Array.iter (fun (tbl, k) -> ignore (Sys.opaque_identity (Pmtable.Pm_table.get tbl k))) built;
    ns := !ns +. ((Unix.gettimeofday () -. t0) *. 1e9);
    let minor1, major1 = alloc_counters () in
    words := !words +. (minor1 -. minor0);
    major := !major +. (major1 -. major0);
    Array.iter (fun (tbl, _) -> Pmtable.Pm_table.free tbl) built
  done;
  let calls = float_of_int (tables * rounds) in
  (!ns /. calls, !words /. calls, !major /. calls)

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
    ("pm_table.get", fun () -> ignore (Pmtable.Pm_table.get pm_tbl (key ())));
    ("pm_table.get-1KB", fun () -> ignore (Pmtable.Pm_table.get hot_tbl hot.(Util.Xoshiro.int rng 16)));
    ("sstable.get", fun () -> ignore (Sstable.get sst (key ())));
    ("array_table.get", fun () -> ignore (Pmtable.Array_table.get arr_tbl (key ())));
    ("lz.compress-1KB", fun () -> ignore (Compress.Lz.compress sample));
    ("lz.decompress-1KB", fun () -> ignore (Compress.Lz.decompress compressed));
    ("bloom.mem", fun () -> ignore (Bloom.mem bloom (key ())));
    ("bloom.add", fun () -> Bloom.add fresh_bloom (key ()));
    ( "bloom.add_hash",
      fun () -> Bloom.add_hash fresh_bloom entries.(Util.Xoshiro.int rng 4096).Util.Kv.key_hash );
    ("crc32-64B", fun () -> ignore (Util.Crc32.string block_64));
    ("crc32-4KB", fun () -> ignore (Util.Crc32.string block_4k));
    ("pm_table.to_array-4096", fun () -> ignore (Pmtable.Pm_table.to_array pm_tbl));
    ("merge-8x2048", fun () -> ignore (Merge.merge ~clock:merge_clock runs));
    ("pm_table.build-4096", fun () -> Pmtable.Pm_table.free (Pmtable.Pm_table.build build_pm entries));
    ("sstable.build-4096", fun () -> Sstable.delete (Sstable.build build_ssd entries));
    ("xoshiro.string-1KB", fun () -> ignore (Util.Xoshiro.string rng 1024));
  ]

(* Minor and direct major-heap words per call of [f]. *)
let words_per_call ?(calls = 200) f =
  let minor0, major0 = alloc_counters () in
  for _ = 1 to calls do
    f ()
  done;
  let minor1, major1 = alloc_counters () in
  let per x = x /. float_of_int calls in
  (per (minor1 -. minor0), per (major1 -. major0))

let run () =
  Report.heading "Micro: wall-clock cost of core primitives (Bechamel)";
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:Measure.[| run |]
  in
  let rows =
    List.map
      (fun (name, f) ->
        let results = Benchmark.all cfg instances (Test.make ~name (Staged.stage f)) in
        let analysis = Analyze.all ols Instance.monotonic_clock results in
        let estimate =
          Hashtbl.fold
            (fun _ v acc ->
              match Analyze.OLS.estimates v with
              | Some [ e ] -> e
              | _ -> acc)
            analysis 0.0
        in
        let minor, major = words_per_call f in
        [ name; Printf.sprintf "%.0f ns/op" estimate; Printf.sprintf "%.0f" minor; Printf.sprintf "%.0f" major ])
      (tests ())
  in
  let first_ns, first_words, first_major = first_read_after_build () in
  let first =
    [
      "pm_table.get-1KB first read after build";
      Printf.sprintf "%.0f ns/op" first_ns;
      Printf.sprintf "%.0f" first_words;
      Printf.sprintf "%.0f" first_major;
    ]
  in
  Report.table
    ~header:[ "primitive"; "wall-clock cost"; "minor words/op"; "major words/op" ]
    (rows @ [ first ])
