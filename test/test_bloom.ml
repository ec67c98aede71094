(* Bloom filter tests: never a false negative, reasonable false-positive
   rate at the RocksDB-standard 10 bits/key. *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let prop_no_false_negatives =
  QCheck.Test.make ~name:"no false negatives" ~count:300
    QCheck.(list_of_size Gen.(int_range 0 200) (string_of_size Gen.(int_range 0 30)))
    (fun keys ->
      let t = Bloom.of_keys ~bits_per_key:10 keys in
      List.for_all (Bloom.mem t) keys)

let test_false_positive_rate () =
  let n = 10_000 in
  let t = Bloom.create ~bits_per_key:10 n in
  for i = 0 to n - 1 do
    Bloom.add t (Printf.sprintf "present-%d" i)
  done;
  let fp = ref 0 in
  let probes = 10_000 in
  for i = 0 to probes - 1 do
    if Bloom.mem t (Printf.sprintf "absent-%d" i) then incr fp
  done;
  (* 10 bits/key gives ~1% theoretical; allow generous slack. *)
  let rate = float_of_int !fp /. float_of_int probes in
  check Alcotest.bool (Printf.sprintf "fp rate %.4f < 0.03" rate) true (rate < 0.03)

(* The read-path acceptance bound: at 10 bits/key the false-positive rate
   stays under 2% even at 100k random keys (theory ~1.2%). *)
let test_false_positive_rate_100k () =
  let n = 100_000 in
  let rng = Util.Xoshiro.create 7 in
  let keys = Array.init n (fun _ -> Util.Xoshiro.string rng 16) in
  let t = Bloom.of_keys ~bits_per_key:10 (Array.to_list keys) in
  Array.iter
    (fun k -> if not (Bloom.mem t k) then Alcotest.failf "false negative for %S" k)
    keys;
  let fp = ref 0 in
  let probes = 100_000 in
  for _ = 1 to probes do
    (* 24-byte probes cannot collide with the 16-byte members *)
    if Bloom.mem t (Util.Xoshiro.string rng 24) then incr fp
  done;
  let rate = float_of_int !fp /. float_of_int probes in
  check Alcotest.bool (Printf.sprintf "fp rate %.4f < 0.02 at 100k keys" rate) true
    (rate < 0.02)

let test_more_bits_fewer_false_positives () =
  let build bits =
    let t = Bloom.create ~bits_per_key:bits 2000 in
    for i = 0 to 1999 do
      Bloom.add t (Printf.sprintf "k%d" i)
    done;
    let fp = ref 0 in
    for i = 0 to 9999 do
      if Bloom.mem t (Printf.sprintf "miss%d" i) then incr fp
    done;
    !fp
  in
  check Alcotest.bool "16 bits beats 4 bits" true (build 16 < build 4)

let test_empty_filter_rejects () =
  let t = Bloom.create ~bits_per_key:10 100 in
  check Alcotest.bool "nothing matches" false (Bloom.mem t "anything")

let test_size_scales () =
  let small = Bloom.create ~bits_per_key:10 100 in
  let large = Bloom.create ~bits_per_key:10 10_000 in
  check Alcotest.bool "bigger n, bigger filter" true
    (Bloom.size_bytes large > Bloom.size_bytes small)

(* The stepped probe sequence sets exactly the bits of the
   (h1 + i*h2) mod nbits reference, for random keys and filter sizes; the
   serialized form is varint nbits, varint k, then the bit bytes. *)
let prop_stepping_matches_reference =
  QCheck.Test.make ~name:"stepped probes = (h1 + i*h2) mod nbits" ~count:300
    QCheck.(
      pair (int_range 1 20)
        (list_of_size Gen.(int_range 0 300) (string_of_size Gen.(int_range 0 24))))
    (fun (bits_per_key, keys) ->
      let t = Bloom.of_keys ~bits_per_key keys in
      let s = Bloom.serialize t in
      let nbits, pos = Util.Varint.read s 0 in
      let k, pos = Util.Varint.read s pos in
      let reference = Bytes.make ((nbits + 7) / 8) '\000' in
      let bits key =
        let h1, h2 = Bloom.hashes key in
        List.init k (fun i -> (h1 + (i * h2)) mod nbits)
      in
      let is_set bit = Char.code (Bytes.get reference (bit / 8)) land (1 lsl (bit mod 8)) <> 0 in
      List.iter
        (fun key ->
          List.iter
            (fun bit ->
              let byte = Char.code (Bytes.get reference (bit / 8)) in
              Bytes.set reference (bit / 8) (Char.chr (byte lor (1 lsl (bit mod 8)))))
            (bits key))
        keys;
      String.sub s pos (String.length s - pos) = Bytes.to_string reference
      && List.for_all
           (fun key ->
             let probe = key ^ "#" in
             Bloom.mem t key && Bloom.mem t probe = List.for_all is_set (bits probe))
           keys)

let () =
  Alcotest.run "bloom"
    [
      ( "bloom",
        [
          qtest prop_no_false_negatives;
          qtest prop_stepping_matches_reference;
          Alcotest.test_case "false positive rate" `Quick test_false_positive_rate;
          Alcotest.test_case "false positive rate at 100k keys" `Quick
            test_false_positive_rate_100k;
          Alcotest.test_case "bits/key tradeoff" `Quick test_more_bits_fewer_false_positives;
          Alcotest.test_case "empty filter" `Quick test_empty_filter_rejects;
          Alcotest.test_case "size scales" `Quick test_size_scales;
        ] );
    ]
