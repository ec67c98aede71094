(* Unit and property tests for the util library. *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- Xoshiro ---------------------------------------------------------- *)

let test_xoshiro_deterministic () =
  let a = Util.Xoshiro.create 42 and b = Util.Xoshiro.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Util.Xoshiro.next_int64 a) (Util.Xoshiro.next_int64 b)
  done

let test_xoshiro_seed_sensitivity () =
  let a = Util.Xoshiro.create 1 and b = Util.Xoshiro.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Util.Xoshiro.next_int64 a <> Util.Xoshiro.next_int64 b then differs := true
  done;
  check Alcotest.bool "streams differ" true !differs

let test_xoshiro_bounds () =
  let rng = Util.Xoshiro.create 7 in
  for _ = 1 to 1000 do
    let v = Util.Xoshiro.int rng 17 in
    check Alcotest.bool "in range" true (v >= 0 && v < 17)
  done;
  for _ = 1 to 1000 do
    let f = Util.Xoshiro.float rng 3.5 in
    check Alcotest.bool "float in range" true (f >= 0.0 && f < 3.5)
  done

let test_xoshiro_uniformity () =
  (* Coarse chi-square-ish check: all buckets populated near expectation. *)
  let rng = Util.Xoshiro.create 3 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let b = Util.Xoshiro.int rng 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iter
    (fun c ->
      check Alcotest.bool "bucket near uniform" true
        (abs (c - (n / 10)) < n / 50))
    buckets

let test_shuffle_permutes () =
  let rng = Util.Xoshiro.create 5 in
  let arr = Array.init 50 Fun.id in
  Util.Xoshiro.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "is a permutation" (Array.init 50 Fun.id) sorted

(* The generator as it stood before its state moved into one unboxed
   buffer, kept verbatim: every bench, test and seed depends on its
   streams, so the current module must reproduce them call for call. *)
module Reference = struct
  type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

  let splitmix64 state =
    let open Int64 in
    state := add !state 0x9E3779B97F4A7C15L;
    let z = !state in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)

  let create seed =
    let state = ref (Int64.of_int seed) in
    let s0 = splitmix64 state in
    let s1 = splitmix64 state in
    let s2 = splitmix64 state in
    let s3 = splitmix64 state in
    { s0; s1; s2; s3 }

  let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

  let next_int64 t =
    let open Int64 in
    let result = mul (rotl (mul t.s1 5L) 7) 9L in
    let tmp = shift_left t.s1 17 in
    t.s2 <- logxor t.s2 t.s0;
    t.s3 <- logxor t.s3 t.s1;
    t.s1 <- logxor t.s1 t.s2;
    t.s0 <- logxor t.s0 t.s3;
    t.s2 <- logxor t.s2 tmp;
    t.s3 <- rotl t.s3 45;
    result

  (* Non-negative 62-bit int. *)
  let next_int t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

  let int t bound =
    if bound <= 0 then invalid_arg "Xoshiro.int: bound must be positive";
    next_int t mod bound

  let float t bound =
    let x = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
    (* 53 random bits mapped to [0, 1). *)
    x /. 9007199254740992.0 *. bound

  let bool t = Int64.logand (next_int64 t) 1L = 1L

  let string t len =
    String.init len (fun _ -> Char.chr (97 + int t 26))

  let shuffle t arr =
    for i = Array.length arr - 1 downto 1 do
      let j = int t (i + 1) in
      let tmp = arr.(i) in
      arr.(i) <- arr.(j);
      arr.(j) <- tmp
    done
end

(* Outputs of the reference generator for a few seeds: (seed, next_int64,
   next_int64, next_int, int 1e6, string 12, bool, float 1.0, shuffle of
   0..7), drawn in that order. *)
let xoshiro_golden =
  [
    (0, -7355399402456485196L, -4652746763540216534L, 475095844711627192, 535883,
     "woengpjphjle", false, 0x1.826dfb603398p-3, [| 0; 5; 2; 6; 7; 4; 1; 3 |]);
    (1, -5480124913605472059L, -8846382939111011094L, 2647595229880422725, 386345,
     "coffuwyfkzhj", true, 0x1.f7270f1b34c4ep-2, [| 1; 6; 3; 7; 4; 2; 5; 0 |]);
    (42, 1546998764402558742L, 6990951692964543102L, 3136146690562139752, 531048,
     "hiujpjmtjuda", true, 0x1.b3e966a9d8708p-1, [| 6; 7; 2; 4; 3; 0; 1; 5 |]);
    (2024, 1029197146548041518L, -4019475936553856923L, 332294759646991360, 434202,
     "dtwrtnkurnrn", true, 0x1.4e324425294dcp-1, [| 7; 6; 1; 5; 3; 4; 0; 2 |]);
    (-7, -935278008730389822L, -2984799092062921764L, 2079432460272961966, 52584,
     "xzftksxxltsh", false, 0x1.b35b2f6f68072p-2, [| 0; 4; 2; 7; 1; 5; 6; 3 |]);
  ]

let test_xoshiro_golden () =
  List.iter
    (fun (seed, a, b, c, d, e, f, g, perm) ->
      let r = Util.Xoshiro.create seed in
      let name what = Printf.sprintf "seed %d %s" seed what in
      check Alcotest.int64 (name "next_int64") a (Util.Xoshiro.next_int64 r);
      check Alcotest.int64 (name "next_int64 #2") b (Util.Xoshiro.next_int64 r);
      check Alcotest.int (name "next_int") c (Util.Xoshiro.next_int r);
      check Alcotest.int (name "int") d (Util.Xoshiro.int r 1_000_000);
      check Alcotest.string (name "string") e (Util.Xoshiro.string r 12);
      check Alcotest.bool (name "bool") f (Util.Xoshiro.bool r);
      check Alcotest.(float 0.0) (name "float") g (Util.Xoshiro.float r 1.0);
      let arr = Array.init 8 Fun.id in
      Util.Xoshiro.shuffle r arr;
      check Alcotest.(array int) (name "shuffle") perm arr)
    xoshiro_golden

type xoshiro_call =
  | Next_int64
  | Next_int
  | Int of int
  | Float of float
  | Bool
  | String of int
  | Shuffle of int

let pp_xoshiro_call = function
  | Next_int64 -> "next_int64"
  | Next_int -> "next_int"
  | Int b -> Printf.sprintf "int %d" b
  | Float b -> Printf.sprintf "float %h" b
  | Bool -> "bool"
  | String n -> Printf.sprintf "string %d" n
  | Shuffle n -> Printf.sprintf "shuffle %d" n

let xoshiro_calls_arb =
  let open QCheck.Gen in
  let call =
    frequency
      [
        (2, return Next_int64);
        (2, return Next_int);
        (3, map (fun b -> Int b) (int_range 1 (1 lsl 30)));
        (1, map (fun b -> Int b) (int_range 1 64));
        (2, map (fun b -> Float b) (float_range 0.0 1e6));
        (2, return Bool);
        (2, map (fun n -> String n) (int_range 0 2048));
        (1, map (fun n -> Shuffle n) (int_range 0 40));
      ]
  in
  QCheck.make
    ~print:(fun (seed, calls) ->
      Printf.sprintf "seed %d: %s" seed (String.concat "; " (List.map pp_xoshiro_call calls)))
    (pair int (list_size (int_range 0 60) call))

let prop_xoshiro_matches_reference =
  QCheck.Test.make ~name:"every call = the reference generator" ~count:300 xoshiro_calls_arb
    (fun (seed, calls) ->
      let r = Util.Xoshiro.create seed and ref_ = Reference.create seed in
      List.for_all
        (function
          | Next_int64 -> Util.Xoshiro.next_int64 r = Reference.next_int64 ref_
          | Next_int -> Util.Xoshiro.next_int r = Reference.next_int ref_
          | Int b -> Util.Xoshiro.int r b = Reference.int ref_ b
          | Float b ->
              Int64.bits_of_float (Util.Xoshiro.float r b)
              = Int64.bits_of_float (Reference.float ref_ b)
          | Bool -> Util.Xoshiro.bool r = Reference.bool ref_
          | String n -> String.equal (Util.Xoshiro.string r n) (Reference.string ref_ n)
          | Shuffle n ->
              let a = Array.init n Fun.id and b = Array.init n Fun.id in
              Util.Xoshiro.shuffle r a;
              Reference.shuffle ref_ b;
              a = b)
        calls)

(* Minor words allocated by [f ()], net of the measurement itself. *)
let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  let w1 = Gc.minor_words () in
  let w2 = Gc.minor_words () in
  w1 -. w0 -. (w2 -. w1)

let test_xoshiro_allocation () =
  let r = Util.Xoshiro.create 11 in
  let sink = ref 0 in
  let words_of name f =
    let w = minor_words (fun () -> for _ = 1 to 1000 do f () done) in
    check (Alcotest.float 0.0) (name ^ ": words for 1000 calls") 0.0 w
  in
  words_of "int" (fun () -> sink := !sink + Util.Xoshiro.int r 1000);
  words_of "next_int" (fun () -> sink := !sink + Util.Xoshiro.next_int r);
  words_of "bool" (fun () -> if Util.Xoshiro.bool r then incr sink);
  let s = ref "" in
  let w = minor_words (fun () -> s := Util.Xoshiro.string r 1024) in
  (* the result: a header plus 1024 bytes and their padding, in words *)
  let result = float_of_int (1 + (1024 / (Sys.word_size / 8)) + 1) in
  check Alcotest.bool
    (Printf.sprintf "string 1024: %.0f words, result alone %.0f" w result)
    true
    (w <= result +. 8.0);
  check Alcotest.int "string length" 1024 (String.length !s)

(* --- Zipf ------------------------------------------------------------- *)

let test_zipf_zeta () =
  check (Alcotest.float 1e-9) "zeta(1,x)=1" 1.0 (Util.Zipf.zeta 1 0.99);
  check (Alcotest.float 1e-6) "zeta(2,0)=2" 2.0 (Util.Zipf.zeta 2 0.0)

let test_zipf_skew_orders_ranks () =
  let rng = Util.Xoshiro.create 13 in
  let z = Util.Zipf.create ~theta:0.99 ~n:1000 rng in
  let counts = Array.make 1000 0 in
  for _ = 1 to 50_000 do
    let r = Util.Zipf.next z in
    counts.(r) <- counts.(r) + 1
  done;
  check Alcotest.bool "rank 0 dominates rank 100" true (counts.(0) > counts.(100));
  check Alcotest.bool "rank 0 gets a large share" true (counts.(0) > 50_000 / 20)

let test_zipf_uniform_theta0 () =
  let rng = Util.Xoshiro.create 17 in
  let z = Util.Zipf.create ~theta:0.0 ~n:100 rng in
  let counts = Array.make 100 0 in
  let n = 100_000 in
  for _ = 1 to n do
    counts.(Util.Zipf.next z) <- counts.(Util.Zipf.next z) + 1
  done;
  (* two draws per loop, so 2n total *)
  Array.iter
    (fun c -> check Alcotest.bool "near uniform" true (abs (c - (2 * n / 100)) < n / 25))
    counts

let prop_zipf_in_range =
  QCheck.Test.make ~name:"zipf ranks within [0,n)" ~count:200
    QCheck.(pair (int_range 1 500) (float_range 0.0 0.99))
    (fun (n, theta) ->
      let rng = Util.Xoshiro.create 29 in
      let z = Util.Zipf.create ~theta ~n rng in
      let ok = ref true in
      for _ = 1 to 100 do
        let r = Util.Zipf.next z in
        if r < 0 || r >= n then ok := false;
        let s = Util.Zipf.next_scrambled z in
        if s < 0 || s >= n then ok := false
      done;
      !ok)

(* --- Varint ----------------------------------------------------------- *)

let prop_varint_roundtrip =
  QCheck.Test.make ~name:"varint roundtrip" ~count:500
    QCheck.(int_bound max_int)
    (fun v ->
      let buf = Buffer.create 10 in
      Util.Varint.write buf v;
      let decoded, next = Util.Varint.read (Buffer.contents buf) 0 in
      decoded = v && next = Buffer.length buf && Util.Varint.size v = next)

let prop_varint_string_roundtrip =
  QCheck.Test.make ~name:"varint string roundtrip" ~count:500 QCheck.string (fun s ->
      let buf = Buffer.create 10 in
      Util.Varint.write_string buf s;
      let decoded, next = Util.Varint.read_string (Buffer.contents buf) 0 in
      decoded = s && next = Buffer.length buf)

let test_varint_negative_rejected () =
  check Alcotest.bool "negative raises" true
    (try
       Util.Varint.write (Buffer.create 1) (-1);
       false
     with Invalid_argument _ -> true)

let test_varint_truncated () =
  let buf = Buffer.create 4 in
  Util.Varint.write buf 300;
  let s = Buffer.contents buf in
  let truncated = String.sub s 0 (String.length s - 1) in
  check Alcotest.bool "truncated raises" true
    (try
       ignore (Util.Varint.read truncated 0);
       false
     with Failure _ -> true)

let test_varint_multibyte_concat () =
  let buf = Buffer.create 16 in
  List.iter (Util.Varint.write buf) [ 0; 1; 127; 128; 16384; 1 lsl 40 ];
  let s = Buffer.contents buf in
  let pos = ref 0 in
  List.iter
    (fun expected ->
      let v, next = Util.Varint.read s !pos in
      pos := next;
      check Alcotest.int "sequence value" expected v)
    [ 0; 1; 127; 128; 16384; 1 lsl 40 ]

(* --- Crc32 ------------------------------------------------------------ *)

let test_crc32_known_value () =
  (* Standard test vector: crc32("123456789") = 0xCBF43926. *)
  check Alcotest.int "known vector" 0xCBF43926 (Util.Crc32.string "123456789")

(* The full CRC-32/ISO-HDLC answer set: an implementation that gets any of
   these right by accident does not exist. *)
let test_crc32_known_vectors () =
  List.iter
    (fun (s, expect) ->
      check Alcotest.int (Printf.sprintf "crc32(%S)" s) expect (Util.Crc32.string s))
    [
      ("", 0x00000000);
      ("a", 0xE8B7BE43);
      ("abc", 0x352441C2);
      ("message digest", 0x20159D7F);
      ("The quick brown fox jumps over the lazy dog", 0x414FA339);
    ]

(* CRC-32 detects every single-bit error regardless of message length —
   the guarantee the storage formats' per-block checksums lean on. *)
let prop_crc32_single_bit_flip =
  QCheck.Test.make ~name:"any single-bit flip changes the crc" ~count:300
    QCheck.(pair (string_of_size Gen.(int_range 1 64)) (pair small_nat small_nat))
    (fun (s, (byte, bit)) ->
      let byte = byte mod String.length s and bit = bit mod 8 in
      let b = Bytes.of_string s in
      Bytes.set b byte (Char.chr (Char.code (Bytes.get b byte) lxor (1 lsl bit)));
      Util.Crc32.string s <> Util.Crc32.string (Bytes.to_string b))

let test_crc32_detects_flip () =
  let s = "hello, persistent memory" in
  let crc = Util.Crc32.string s in
  let corrupted = Bytes.of_string s in
  Bytes.set corrupted 3 'X';
  check Alcotest.bool "flip detected" true
    (crc <> Util.Crc32.string (Bytes.to_string corrupted))

let prop_crc32_incremental =
  QCheck.Test.make ~name:"crc of concatenation via update" ~count:200
    QCheck.(pair string string)
    (fun (a, b) ->
      (* update honours pos/len slicing (chaining is prop_crc32_chains). *)
      let s = a ^ b in
      Util.Crc32.update 0 s 0 (String.length a) = Util.Crc32.string a)

(* Differential check of the slicing-by-8 kernel against the textbook
   byte-at-a-time CRC it replaced, kept here as the reference: every start
   offset 0-7 and every length 0-70 (each unaligned head and tail of the
   8-byte loop), plus one run longer than 64 KiB, over seeded random bytes. *)
let reference_crc32 =
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
        done;
        !c)
  in
  fun crc s pos len ->
    let crc = ref (crc lxor 0xFFFFFFFF) in
    for i = pos to pos + len - 1 do
      crc := table.((!crc lxor Char.code s.[i]) land 0xff) lxor (!crc lsr 8)
    done;
    !crc lxor 0xFFFFFFFF

let random_bytes rng n = String.init n (fun _ -> Char.chr (Util.Xoshiro.int rng 256))

let test_crc32_matches_reference () =
  let rng = Util.Xoshiro.create 2024 in
  let s = random_bytes rng 256 in
  for pos = 0 to 7 do
    for len = 0 to 70 do
      let seed = if len mod 3 = 0 then 0 else Util.Crc32.string (random_bytes rng 5) in
      check Alcotest.int
        (Printf.sprintf "pos=%d len=%d" pos len)
        (reference_crc32 seed s pos len)
        (Util.Crc32.update seed s pos len)
    done
  done;
  let big = random_bytes rng ((64 * 1024) + 13) in
  check Alcotest.int "64 KiB + 13" (reference_crc32 0 big 0 (String.length big))
    (Util.Crc32.string big);
  check Alcotest.int "64 KiB unaligned slice"
    (reference_crc32 0 big 3 (String.length big - 8))
    (Util.Crc32.update 0 big 3 (String.length big - 8))

let prop_crc32_matches_reference =
  QCheck.Test.make ~name:"slicing-by-8 = byte-at-a-time" ~count:300
    QCheck.(pair (string_of_size Gen.(int_range 0 200)) small_nat)
    (fun (s, cut) ->
      let pos = cut mod (String.length s + 1) in
      let len = String.length s - pos in
      Util.Crc32.update 0 s pos len = reference_crc32 0 s pos len
      && Util.Crc32.string s = reference_crc32 0 s 0 (String.length s))

(* Feeding a previous result back in continues the checksum. *)
let prop_crc32_chains =
  QCheck.Test.make ~name:"update chains across calls" ~count:200
    QCheck.(pair string string)
    (fun (a, b) ->
      Util.Crc32.update (Util.Crc32.string a) b 0 (String.length b)
      = Util.Crc32.string (a ^ b))

let test_crc32_rejects_bad_range () =
  let raises name f =
    check Alcotest.bool name true
      (match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  let s = "0123456789" in
  raises "negative len" (fun () -> Util.Crc32.update 0 s 0 (-1));
  raises "negative pos" (fun () -> Util.Crc32.update 0 s (-1) 2);
  raises "past the end" (fun () -> Util.Crc32.update 0 s 4 7);
  raises "pos past the end" (fun () -> Util.Crc32.update 0 s 11 0);
  check Alcotest.int "empty range at the end" 0 (Util.Crc32.update 0 s 10 0)

(* --- Histogram ---------------------------------------------------------- *)

let test_histogram_mean_minmax () =
  let h = Util.Histogram.create () in
  List.iter (Util.Histogram.record h) [ 100.0; 200.0; 300.0 ];
  check (Alcotest.float 1e-9) "mean" 200.0 (Util.Histogram.mean h);
  check (Alcotest.float 1e-9) "min" 100.0 (Util.Histogram.min h);
  check (Alcotest.float 1e-9) "max" 300.0 (Util.Histogram.max h);
  check Alcotest.int "count" 3 (Util.Histogram.count h)

let test_histogram_percentile_accuracy () =
  let h = Util.Histogram.create () in
  for i = 1 to 10_000 do
    Util.Histogram.record h (float_of_int i)
  done;
  let p50 = Util.Histogram.percentile h 50.0 in
  let p999 = Util.Histogram.percentile h 99.9 in
  check Alcotest.bool "p50 within 5%" true (Float.abs (p50 -. 5000.0) /. 5000.0 < 0.05);
  check Alcotest.bool "p99.9 within 5%" true (Float.abs (p999 -. 9990.0) /. 9990.0 < 0.05)

let test_histogram_merge () =
  let a = Util.Histogram.create () and b = Util.Histogram.create () in
  Util.Histogram.record a 10.0;
  Util.Histogram.record b 1000.0;
  Util.Histogram.merge a b;
  check Alcotest.int "merged count" 2 (Util.Histogram.count a);
  check (Alcotest.float 1e-9) "merged max" 1000.0 (Util.Histogram.max a);
  check Alcotest.int "source unchanged" 1 (Util.Histogram.count b)

let test_histogram_empty () =
  let h = Util.Histogram.create () in
  check (Alcotest.float 1e-9) "empty mean" 0.0 (Util.Histogram.mean h);
  check (Alcotest.float 1e-9) "empty percentile" 0.0 (Util.Histogram.percentile h 99.0)

let prop_histogram_percentile_bounded =
  QCheck.Test.make ~name:"percentiles within [min,max]" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 100) (float_range 1.0 1e9))
    (fun values ->
      let h = Util.Histogram.create () in
      List.iter (Util.Histogram.record h) values;
      List.for_all
        (fun q ->
          let p = Util.Histogram.percentile h q in
          p >= Util.Histogram.min h -. 1e-9 && p <= Util.Histogram.max h +. 1e-9)
        [ 0.0; 50.0; 90.0; 99.0; 99.9; 100.0 ])

let test_histogram_stddev () =
  let h = Util.Histogram.create () in
  check (Alcotest.float 1e-9) "empty stddev" 0.0 (Util.Histogram.stddev h);
  (* 100,100,100 has zero spread; 0,10,20 has population stddev sqrt(200/3). *)
  List.iter (Util.Histogram.record h) [ 100.0; 100.0; 100.0 ];
  check (Alcotest.float 1e-6) "constant stddev" 0.0 (Util.Histogram.stddev h);
  let g = Util.Histogram.create () in
  List.iter (Util.Histogram.record g) [ 0.0; 10.0; 20.0 ];
  check (Alcotest.float 1e-6) "known stddev" (sqrt (200.0 /. 3.0)) (Util.Histogram.stddev g)

let test_histogram_buckets () =
  let h = Util.Histogram.create () in
  check Alcotest.int "empty has no buckets" 0 (List.length (Util.Histogram.buckets h));
  for i = 1 to 1000 do
    Util.Histogram.record h (float_of_int i)
  done;
  let buckets = Util.Histogram.buckets h in
  check Alcotest.int "bucket counts total the samples" 1000
    (List.fold_left (fun acc (_, c) -> acc + c) 0 buckets);
  let bounds = List.map fst buckets in
  check Alcotest.bool "upper bounds strictly ascending" true
    (List.for_all2 (fun a b -> a < b) (List.filteri (fun i _ -> i < List.length bounds - 1) bounds)
       (List.tl bounds));
  check Alcotest.bool "all counts positive" true (List.for_all (fun (_, c) -> c > 0) buckets);
  check Alcotest.bool "last bound covers max" true
    (List.nth bounds (List.length bounds - 1) >= Util.Histogram.max h)

let prop_histogram_percentile_monotone =
  QCheck.Test.make ~name:"percentile monotone in q" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 200) (float_range 1.0 1e9))
    (fun values ->
      let h = Util.Histogram.create () in
      List.iter (Util.Histogram.record h) values;
      let qs = [ 0.0; 10.0; 25.0; 50.0; 75.0; 90.0; 99.0; 99.9; 100.0 ] in
      let ps = List.map (Util.Histogram.percentile h) qs in
      let rec nondecreasing = function
        | a :: (b :: _ as rest) -> a <= b +. 1e-9 && nondecreasing rest
        | _ -> true
      in
      nondecreasing ps)

let prop_histogram_merge_preserves_percentiles =
  QCheck.Test.make ~name:"merge equals recording the union" ~count:100
    QCheck.(pair
              (list_of_size Gen.(int_range 1 100) (float_range 1.0 1e9))
              (list_of_size Gen.(int_range 1 100) (float_range 1.0 1e9)))
    (fun (xs, ys) ->
      let a = Util.Histogram.create () and b = Util.Histogram.create () in
      let u = Util.Histogram.create () in
      List.iter (Util.Histogram.record a) xs;
      List.iter (Util.Histogram.record b) ys;
      List.iter (Util.Histogram.record u) (xs @ ys);
      Util.Histogram.merge a b;
      List.for_all
        (fun q ->
          Float.abs (Util.Histogram.percentile a q -. Util.Histogram.percentile u q)
          <= 1e-9 *. Float.abs (Util.Histogram.percentile u q))
        [ 0.0; 50.0; 99.0; 100.0 ]
      && Float.abs (Util.Histogram.stddev a -. Util.Histogram.stddev u)
         <= 1e-6 *. Float.max 1.0 (Util.Histogram.stddev u))

(* --- Kv ----------------------------------------------------------------- *)

let entry_gen =
  QCheck.Gen.(
    map3
      (fun key seq (kind, value) ->
        Util.Kv.entry ~kind:(if kind then Util.Kv.Put else Util.Kv.Delete) ~key ~seq value)
      (string_size (int_range 1 40))
      (int_range 0 1_000_000)
      (pair bool (string_size (int_range 0 200))))

let entry_arb = QCheck.make ~print:(Fmt.to_to_string Util.Kv.pp) entry_gen

let prop_kv_roundtrip =
  QCheck.Test.make ~name:"kv encode/decode roundtrip" ~count:500 entry_arb (fun e ->
      let buf = Buffer.create 64 in
      Util.Kv.encode buf e;
      let decoded, next = Util.Kv.decode (Buffer.contents buf) 0 in
      decoded = e && next = Buffer.length buf && Util.Kv.encoded_size e = next)

let prop_kv_order_newest_first =
  QCheck.Test.make ~name:"same key orders by seq descending" ~count:200
    QCheck.(pair (int_range 0 1000) (int_range 0 1000))
    (fun (s1, s2) ->
      let a = Util.Kv.entry ~key:"k" ~seq:s1 "x" in
      let b = Util.Kv.entry ~key:"k" ~seq:s2 "y" in
      let c = Util.Kv.compare_entry a b in
      if s1 = s2 then c = 0 else if s1 > s2 then c < 0 else c > 0)

let test_kv_order_key_major () =
  let a = Util.Kv.entry ~key:"a" ~seq:1 "" in
  let b = Util.Kv.entry ~key:"b" ~seq:999 "" in
  check Alcotest.bool "key dominates" true (Util.Kv.compare_entry a b < 0)

(* A run of entries stored with a shared key prefix stripped, as the PM
   table stores a group: the cursor decoders must rebuild every full key. *)
let prefixed_run_arb =
  QCheck.make
    ~print:(fun (prefix, es, _) ->
      Printf.sprintf "prefix=%S entries=[%s]" prefix
        (String.concat "; " (List.map (Fmt.to_to_string Util.Kv.pp) es)))
    QCheck.Gen.(
      triple (string_size (int_range 0 6)) (list_size (int_range 1 12) entry_gen) small_nat)

let encode_all ?strip es =
  let buf = Buffer.create 256 in
  List.iter (Util.Kv.encode ?strip buf) es;
  Buffer.contents buf

let with_prefix prefix es =
  List.map
    (fun (e : Util.Kv.entry) -> Util.Kv.entry ~kind:e.kind ~key:(prefix ^ e.key) ~seq:e.seq e.value)
    es

let prop_kv_decode_from_prefix =
  QCheck.Test.make ~name:"encode ~strip / decode_from ~key_prefix roundtrip" ~count:300
    prefixed_run_arb (fun (prefix, es, _) ->
      let full = with_prefix prefix es in
      let raw = encode_all ~strip:(String.length prefix) full in
      let cur = Util.Cursor.create raw 0 in
      let decoded = List.map (fun _ -> Util.Kv.decode_from ~key_prefix:prefix cur) es in
      raw = encode_all es && decoded = full && Util.Cursor.pos cur = String.length raw)

(* The one-image encoder writes exactly the Buffer encoder's bytes into an
   image sized by [stripped_size]. *)
let prop_kv_encode_at =
  QCheck.Test.make ~name:"encode_at into a stripped_size image = encode" ~count:300
    prefixed_run_arb (fun (prefix, es, _) ->
      let full = with_prefix prefix es in
      let strip = String.length prefix in
      let size = List.fold_left (fun acc e -> acc + Util.Kv.stripped_size ~strip e) 0 full in
      let image = Bytes.create size in
      let stop = List.fold_left (fun pos e -> Util.Kv.encode_at ~strip image pos e) 0 full in
      stop = size && Bytes.to_string image = encode_all ~strip full)

let prop_kv_find_from =
  QCheck.Test.make ~name:"find_from = first decoded match" ~count:300 prefixed_run_arb
    (fun (prefix, es, pick) ->
      let raw = encode_all es in
      let full = with_prefix prefix es in
      let probe =
        if pick mod 4 = 3 then prefix ^ "absent\255"
        else (List.nth full (pick mod List.length full)).key
      in
      Util.Kv.find_from ~skip:(String.length prefix) ~key_hash:(Util.Kv.key_hash probe)
        (Util.Cursor.create raw 0) ~count:(List.length es) probe
      = List.find_opt (fun (e : Util.Kv.entry) -> e.key = probe) full)

let sign c = compare c 0

let prop_cursor_compare_string =
  QCheck.Test.make ~name:"Cursor.compare_string = String.compare" ~count:500
    QCheck.(pair (string_of_size Gen.(int_range 0 8)) (string_of_size Gen.(int_range 0 8)))
    (fun (s, key) ->
      let buf = Buffer.create 16 in
      Util.Varint.write_string buf s;
      let cur = Util.Cursor.create (Buffer.contents buf) 0 in
      sign (Util.Cursor.compare_string cur key) = sign (String.compare s key)
      && Util.Cursor.pos cur = Buffer.length buf)

(* The SSTable point lookup: the first match of a sorted run, with one
   visit (one decode charge) per entry up to the match or the first
   greater key, as a full decode that stops there would make. *)
let prop_kv_find_sorted =
  QCheck.Test.make ~name:"find_sorted = first match, visits up to it" ~count:300
    prefixed_run_arb (fun (_, es, pick) ->
      let es = List.sort Util.Kv.compare_entry es in
      let raw = encode_all es in
      let probe =
        if pick mod 4 = 3 then (List.nth es (pick mod List.length es)).key ^ "\000"
        else (List.nth es (pick mod List.length es)).key
      in
      let visits = ref 0 in
      let found =
        Util.Kv.find_sorted ~key_hash:(Util.Kv.key_hash probe) (Util.Cursor.create raw 0)
          ~count:(List.length es) probe ~visit:(fun () -> incr visits)
      in
      let rec expected_visits n = function
        | [] -> n
        | (e : Util.Kv.entry) :: rest ->
            if String.compare e.key probe >= 0 then n + 1 else expected_visits (n + 1) rest
      in
      found = List.find_opt (fun (e : Util.Kv.entry) -> e.key = probe) es
      && !visits = expected_visits 0 es)

(* A cursor bounded at [stop] inside a larger buffer — a PM table reading
   a group in place, followed by the next layer's bytes — decodes and
   fails exactly as one over a copy of the slice. *)
let prop_cursor_stop_matches_copy =
  QCheck.Test.make ~name:"Cursor ~stop = cursor over the copied slice" ~count:500
    QCheck.(triple entry_arb small_nat (string_of_size Gen.(int_range 0 16)))
    (fun (e, cut, junk) ->
      let buf = Buffer.create 64 in
      Util.Kv.encode buf e;
      let raw = Buffer.contents buf in
      let cut = cut mod (String.length raw + 1) in
      let outcome c = match Util.Kv.decode_from c with d -> Ok (d, Util.Cursor.pos c) | exception Failure m -> Error m in
      outcome (Util.Cursor.create ~stop:(3 + cut) ("pad" ^ raw ^ junk) 3)
      = Result.map (fun (d, pos) -> (d, pos + 3)) (outcome (Util.Cursor.create (String.sub raw 0 cut) 0)))

(* A length varint that decodes to a negative int (bit 62 set) is
   malformed input, not a string length. *)
let test_negative_length_rejected () =
  let raw = "\x80\x80\x80\x80\x80\x80\x80\x80\x40rest" in
  check Alcotest.bool "decodes negative" true (fst (Util.Varint.read raw 0) < 0);
  let fails f = match f () with _ -> false | exception Failure _ -> true in
  check Alcotest.bool "read_string" true (fails (fun () -> Util.Varint.read_string raw 0));
  check Alcotest.bool "Kv.decode" true (fails (fun () -> Util.Kv.decode raw 0));
  check Alcotest.bool "find_from" true
    (fails (fun () ->
         Util.Kv.find_from ~skip:0 ~key_hash:(Util.Kv.key_hash "k") (Util.Cursor.create raw 0)
           ~count:1 "k"));
  check Alcotest.bool "find_sorted" true
    (fails (fun () ->
         Util.Kv.find_sorted ~key_hash:(Util.Kv.key_hash "k") (Util.Cursor.create raw 0)
           ~count:1 "k" ~visit:ignore))

let test_kv_decode_truncated () =
  let raw = encode_all [ Util.Kv.entry ~key:"key-0001" ~seq:300 (String.make 200 'v') ] in
  for len = 0 to String.length raw - 1 do
    check Alcotest.bool
      (Printf.sprintf "truncated at %d raises" len)
      true
      (match Util.Kv.decode (String.sub raw 0 len) 0 with
      | _ -> false
      | exception Failure _ -> true)
  done

(* --- Keys ----------------------------------------------------------------- *)

let test_keys_fixed_int () =
  check Alcotest.string "padded" "0042" (Util.Keys.fixed_int ~width:4 42);
  check Alcotest.bool "overflow raises" true
    (try ignore (Util.Keys.fixed_int ~width:2 1234); false with Invalid_argument _ -> true)

let test_keys_order_preserved () =
  let k1 = Util.Keys.record_key ~table_id:1 ~row_id:99 in
  let k2 = Util.Keys.record_key ~table_id:1 ~row_id:100 in
  let k3 = Util.Keys.record_key ~table_id:2 ~row_id:0 in
  check Alcotest.bool "row order" true (String.compare k1 k2 < 0);
  check Alcotest.bool "table order" true (String.compare k2 k3 < 0)

let test_keys_index_prefix () =
  let k = Util.Keys.index_key ~table_id:3 ~index_id:1 ~column:"cityX" ~row_id:7 in
  let p = Util.Keys.index_scan_prefix ~table_id:3 ~index_id:1 ~column:"cityX" in
  check Alcotest.bool "scan prefix matches" true (Util.Keys.is_prefix ~prefix:p k)

let test_keys_prefix_successor () =
  let p = "abc" in
  let succ = Util.Keys.prefix_successor p in
  check Alcotest.bool "successor above prefix range" true
    (String.compare succ (p ^ "\xff\xff\xff") > 0);
  check Alcotest.bool "successor tight" true (String.compare succ "abd" <= 0);
  check Alcotest.bool "all-0xff raises" true
    (try ignore (Util.Keys.prefix_successor "\xff"); false with Invalid_argument _ -> true)

let prop_common_prefix =
  QCheck.Test.make ~name:"common_prefix_len is a common prefix" ~count:300
    QCheck.(pair string string)
    (fun (a, b) ->
      let n = Util.Keys.common_prefix_len a b in
      n <= min (String.length a) (String.length b)
      && String.sub a 0 n = String.sub b 0 n
      && (n = min (String.length a) (String.length b) || a.[n] <> b.[n]))

let () =
  Alcotest.run "util"
    [
      ( "xoshiro",
        [
          Alcotest.test_case "deterministic" `Quick test_xoshiro_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_xoshiro_seed_sensitivity;
          Alcotest.test_case "bounds" `Quick test_xoshiro_bounds;
          Alcotest.test_case "uniformity" `Quick test_xoshiro_uniformity;
          Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutes;
          Alcotest.test_case "golden streams" `Quick test_xoshiro_golden;
          qtest prop_xoshiro_matches_reference;
          Alcotest.test_case "steps allocate nothing" `Quick test_xoshiro_allocation;
        ] );
      ( "zipf",
        [
          Alcotest.test_case "zeta" `Quick test_zipf_zeta;
          Alcotest.test_case "skew orders ranks" `Quick test_zipf_skew_orders_ranks;
          Alcotest.test_case "theta=0 uniform" `Quick test_zipf_uniform_theta0;
          qtest prop_zipf_in_range;
        ] );
      ( "varint",
        [
          qtest prop_varint_roundtrip;
          qtest prop_varint_string_roundtrip;
          Alcotest.test_case "negative rejected" `Quick test_varint_negative_rejected;
          Alcotest.test_case "truncated input" `Quick test_varint_truncated;
          Alcotest.test_case "multibyte concat" `Quick test_varint_multibyte_concat;
        ] );
      ( "crc32",
        [
          Alcotest.test_case "known vector" `Quick test_crc32_known_value;
          Alcotest.test_case "known vector set" `Quick test_crc32_known_vectors;
          Alcotest.test_case "detects bit flip" `Quick test_crc32_detects_flip;
          qtest prop_crc32_incremental;
          qtest prop_crc32_single_bit_flip;
          Alcotest.test_case "matches byte-at-a-time reference" `Quick
            test_crc32_matches_reference;
          qtest prop_crc32_matches_reference;
          qtest prop_crc32_chains;
          Alcotest.test_case "rejects out-of-range pos/len" `Quick
            test_crc32_rejects_bad_range;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "mean/min/max" `Quick test_histogram_mean_minmax;
          Alcotest.test_case "percentile accuracy" `Quick test_histogram_percentile_accuracy;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
          Alcotest.test_case "empty histogram" `Quick test_histogram_empty;
          Alcotest.test_case "stddev" `Quick test_histogram_stddev;
          Alcotest.test_case "buckets" `Quick test_histogram_buckets;
          qtest prop_histogram_percentile_bounded;
          qtest prop_histogram_percentile_monotone;
          qtest prop_histogram_merge_preserves_percentiles;
        ] );
      ( "kv",
        [
          qtest prop_kv_roundtrip;
          qtest prop_kv_order_newest_first;
          Alcotest.test_case "key-major order" `Quick test_kv_order_key_major;
          qtest prop_kv_decode_from_prefix;
          qtest prop_kv_encode_at;
          qtest prop_kv_find_from;
          qtest prop_cursor_compare_string;
          qtest prop_kv_find_sorted;
          qtest prop_cursor_stop_matches_copy;
          Alcotest.test_case "truncated entry raises" `Quick test_kv_decode_truncated;
          Alcotest.test_case "negative length rejected" `Quick test_negative_length_rejected;
        ] );
      ( "keys",
        [
          Alcotest.test_case "fixed_int" `Quick test_keys_fixed_int;
          Alcotest.test_case "order preserved" `Quick test_keys_order_preserved;
          Alcotest.test_case "index prefix" `Quick test_keys_index_prefix;
          Alcotest.test_case "prefix successor" `Quick test_keys_prefix_successor;
          qtest prop_common_prefix;
        ] );
    ]
