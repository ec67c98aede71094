(* Tests for the persistent-memory device simulator. *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let make () =
  let clock = Sim.Clock.create () in
  (clock, Pmem.create clock)

let test_alloc_free_accounting () =
  let _, dev = make () in
  let r1 = Pmem.alloc dev 1000 in
  let r2 = Pmem.alloc dev 2000 in
  check Alcotest.int "used" 3000 (Pmem.used dev);
  Pmem.free dev r1;
  check Alcotest.int "freed" 2000 (Pmem.used dev);
  Pmem.free dev r1;
  check Alcotest.int "double free is idempotent" 2000 (Pmem.used dev);
  Pmem.free dev r2;
  check Alcotest.int "all freed" 0 (Pmem.used dev)

let test_out_of_space () =
  let clock = Sim.Clock.create () in
  let dev = Pmem.create ~params:{ Pmem.default_params with capacity = 100 } clock in
  let _ = Pmem.alloc dev 80 in
  check Alcotest.bool "over-capacity raises" true
    (try ignore (Pmem.alloc dev 30); false with Pmem.Out_of_space _ -> true);
  (* and the failed alloc must not leak accounting *)
  check Alcotest.int "used unchanged" 80 (Pmem.used dev)

let test_write_read_roundtrip () =
  let _, dev = make () in
  let r = Pmem.alloc dev 64 in
  Pmem.write dev r ~off:10 "hello";
  check Alcotest.string "readback" "hello" (Pmem.read dev r ~off:10 ~len:5);
  check Alcotest.char "read_byte" 'e' (Pmem.read_byte dev r ~off:11)

let test_bounds_checked () =
  let _, dev = make () in
  let r = Pmem.alloc dev 16 in
  check Alcotest.bool "oob write raises" true
    (try Pmem.write dev r ~off:10 "longer than six"; false with Invalid_argument _ -> true);
  check Alcotest.bool "oob read raises" true
    (try ignore (Pmem.read dev r ~off:12 ~len:8); false with Invalid_argument _ -> true);
  Pmem.free dev r;
  check Alcotest.bool "use after free raises" true
    (try ignore (Pmem.read dev r ~off:0 ~len:1); false with Invalid_argument _ -> true)

let test_latency_charged () =
  let clock, dev = make () in
  let r = Pmem.alloc dev 4096 in
  let t0 = Sim.Clock.now clock in
  ignore (Pmem.read dev r ~off:0 ~len:64);
  let read_cost = Sim.Clock.now clock -. t0 in
  check Alcotest.bool "read charges access + bytes" true
    (read_cost >= Pmem.default_params.read_access_ns);
  let t1 = Sim.Clock.now clock in
  Pmem.write dev r ~off:0 (String.make 64 'x');
  let write_cost = Sim.Clock.now clock -. t1 in
  check Alcotest.bool "write slower than read" true (write_cost > read_cost)

let test_read_write_asymmetry_matches_optane () =
  (* The calibration must keep writes ~3x reads at small sizes. *)
  let p = Pmem.default_params in
  let read = p.read_access_ns +. (64.0 *. p.read_byte_ns) in
  let write = p.write_access_ns +. (64.0 *. p.write_byte_ns) in
  check Alcotest.bool "write/read between 2x and 5x" true
    (write /. read > 2.0 && write /. read < 5.0)

let test_stats_counters () =
  let _, dev = make () in
  let r = Pmem.alloc dev 1024 in
  Pmem.write dev r ~off:0 (String.make 100 'a');
  ignore (Pmem.read dev r ~off:0 ~len:50);
  ignore (Pmem.read dev r ~off:50 ~len:25);
  let s = Pmem.stats dev in
  check Alcotest.int "writes" 1 s.Pmem.writes;
  check Alcotest.int "bytes written" 100 s.Pmem.bytes_written;
  check Alcotest.int "reads" 2 s.Pmem.reads;
  check Alcotest.int "bytes read" 75 s.Pmem.bytes_read;
  Pmem.reset_stats dev;
  check Alcotest.int "reset" 0 (Pmem.stats dev).Pmem.reads

let test_crash_discards_unflushed () =
  let clock = Sim.Clock.create () in
  let dev = Pmem.create clock in
  Pmem.enable_crash_mode dev;
  let r = Pmem.alloc dev 32 in
  Pmem.write dev r ~off:0 "durable!";
  Pmem.flush dev r ~off:0 ~len:8;
  Pmem.drain dev;
  Pmem.write dev r ~off:8 "volatile";
  Pmem.crash dev;
  check Alcotest.string "flushed bytes survive" "durable!" (Pmem.unsafe_peek r ~off:0 ~len:8);
  check Alcotest.bool "unflushed bytes reverted" true
    (Pmem.unsafe_peek r ~off:8 ~len:8 <> "volatile");
  check Alcotest.int "durable watermark" 8 (Pmem.durable_upto r)

(* The generation moves with every change to a region's bytes — writes,
   a crash's revert (resurrected regions too) and injected rot — and with
   nothing else: readers memoize checksums against it. *)
let test_generation_tracks_byte_changes () =
  let _, dev = make () in
  Pmem.enable_crash_mode dev;
  let r = Pmem.alloc dev 64 in
  let g0 = Pmem.generation r in
  Pmem.write dev r ~off:0 "abcd";
  let g1 = Pmem.generation r in
  check Alcotest.bool "write bumps" true (g1 <> g0);
  ignore (Pmem.read dev r ~off:0 ~len:4);
  ignore (Pmem.read_byte dev r ~off:1);
  Pmem.flush dev r ~off:0 ~len:4;
  Pmem.drain dev;
  check Alcotest.int "read, flush and drain leave it" g1 (Pmem.generation r);
  Pmem.corrupt_region dev r ~off:2;
  let g2 = Pmem.generation r in
  check Alcotest.bool "corrupt bumps" true (g2 <> g1);
  Pmem.crash dev;
  let g3 = Pmem.generation r in
  check Alcotest.bool "crash revert bumps" true (g3 <> g2);
  let dead = Pmem.alloc dev 16 in
  Pmem.write dev dead ~off:0 "gone";
  Pmem.free dev dead;
  let gd = Pmem.generation dead in
  Pmem.crash dev;
  check Alcotest.bool "resurrected region bumps" true (Pmem.generation dead <> gd)

(* [with_view] is [read] without the copy: on two sanitized devices driven
   alike, one reading by copy and one by view, the bytes, the statistics,
   the clock bits and every pmsan counter agree — including a flagged
   read of a line left unpersisted at a commit point. *)
let test_view_matches_read () =
  let drive use_view =
    let clock = Sim.Clock.create () in
    let dev = Pmem.create clock in
    let san = Sanitize.Pmsan.create () in
    Pmem.set_sanitizer dev (Some san);
    let r = Pmem.alloc dev 4096 in
    Pmem.write dev r ~off:0 (String.init 4096 (fun i -> Char.chr (i land 0xff)));
    Pmem.flush dev r ~off:0 ~len:2048;
    Pmem.drain dev;
    Pmem.commit_point dev "test.seal";
    let read ~off ~len =
      if use_view then Pmem.with_view dev r ~off ~len (fun s pos -> String.sub s pos len)
      else Pmem.read dev r ~off ~len
    in
    let got = List.map (fun (off, len) -> read ~off ~len) [ (0, 64); (100, 900); (3000, 1096); (17, 0) ] in
    let oob = try ignore (read ~off:4000 ~len:200); "no error" with Invalid_argument m -> m in
    let s = Pmem.stats dev in
    ( got,
      oob,
      (s.Pmem.reads, s.Pmem.bytes_read, Int64.bits_of_float s.Pmem.read_time),
      Int64.bits_of_float (Sim.Clock.now clock),
      Sanitize.Pmsan.
        ( read_of_unpersisted san,
          error_count san,
          redundant_flushes san,
          commit_points san,
          List.length (findings san) ) )
  in
  let by_read = drive false and by_view = drive true in
  let got_r, oob_r, stats_r, clock_r, san_r = by_read
  and got_v, oob_v, stats_v, clock_v, san_v = by_view in
  check (Alcotest.list Alcotest.string) "bytes" got_r got_v;
  check Alcotest.string "bounds error" oob_r oob_v;
  check Alcotest.bool "stats" true (stats_r = stats_v);
  check Alcotest.int64 "clock bits" clock_r clock_v;
  check Alcotest.bool "pmsan counters" true (san_r = san_v);
  let unpersisted, _, _, _, _ = san_r in
  check Alcotest.bool "the unpersisted read was flagged" true (unpersisted > 0)

(* [inspect] sees the same bytes and leaves every counter alone. *)
let test_inspect_is_host_only () =
  let clock, dev = make () in
  let r = Pmem.alloc dev 64 in
  Pmem.write dev r ~off:0 "inspect me";
  let before = ((Pmem.stats dev).Pmem.reads, Sim.Clock.now clock) in
  check Alcotest.string "bytes" "inspect" (Pmem.inspect r ~off:0 ~len:7 (fun s pos -> String.sub s pos 7));
  check Alcotest.bool "no charge" true (before = ((Pmem.stats dev).Pmem.reads, Sim.Clock.now clock));
  check Alcotest.bool "bounds checked" true
    (try Pmem.inspect r ~off:60 ~len:8 (fun _ _ -> false) with Invalid_argument _ -> true)

let prop_roundtrip_random =
  QCheck.Test.make ~name:"write/read roundtrip at random offsets" ~count:200
    QCheck.(pair (string_of_size Gen.(int_range 1 64)) (int_range 0 100))
    (fun (data, off) ->
      let _, dev = make () in
      let r = Pmem.alloc dev 256 in
      if off + String.length data > 256 then true
      else begin
        Pmem.write dev r ~off data;
        Pmem.read dev r ~off ~len:(String.length data) = data
      end)

let () =
  Alcotest.run "pmem"
    [
      ( "pmem",
        [
          Alcotest.test_case "alloc/free accounting" `Quick test_alloc_free_accounting;
          Alcotest.test_case "out of space" `Quick test_out_of_space;
          Alcotest.test_case "write/read roundtrip" `Quick test_write_read_roundtrip;
          Alcotest.test_case "bounds checked" `Quick test_bounds_checked;
          Alcotest.test_case "latency charged" `Quick test_latency_charged;
          Alcotest.test_case "optane asymmetry" `Quick test_read_write_asymmetry_matches_optane;
          Alcotest.test_case "stats counters" `Quick test_stats_counters;
          Alcotest.test_case "crash discards unflushed" `Quick test_crash_discards_unflushed;
          Alcotest.test_case "generation tracks byte changes" `Quick
            test_generation_tracks_byte_changes;
          Alcotest.test_case "view matches read" `Quick test_view_matches_read;
          Alcotest.test_case "inspect is host-only" `Quick test_inspect_is_host_only;
          qtest prop_roundtrip_random;
        ] );
    ]
