(* Deterministic PRNG (xoshiro256** with splitmix64 seeding).

   All randomness in the repository flows through this module so that every
   experiment and test is reproducible from a single integer seed.

   The four state words live in one 32-byte buffer read and written as raw
   int64s, and the step is inlined into every consumer, so its arithmetic
   stays unboxed: [next_int], [int] and [bool] allocate nothing, and
   [string] allocates only its result. (Four mutable [int64] record fields
   would box a fresh value on every store.) *)

type t = Bytes.t

(* Bounds-checked native-endian accessors, as primitives: a [val]-exported
   wrapper could box its [int64]. The byte order never leaves the module. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create seed =
  let state = ref (Int64.of_int seed) in
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    set64 t (8 * i) (splitmix64 state)
  done;
  t

let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] step t =
  let open Int64 in
  let s0 = get64 t 0 and s1 = get64 t 8 in
  let s2 = get64 t 16 and s3 = get64 t 24 in
  let s2 = logxor s2 s0 and s3 = logxor s3 s1 in
  let s1' = logxor s1 s2 and s0' = logxor s0 s3 in
  set64 t 0 s0';
  set64 t 8 s1';
  set64 t 16 (logxor s2 (shift_left s1 17));
  set64 t 24 (rotl s3 45);
  mul (rotl (mul s1 5L) 7) 9L

let next_int64 t = step t

(* Non-negative 62-bit int. *)
let[@inline] next_int t = Int64.to_int (Int64.shift_right_logical (step t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Xoshiro.int: bound must be positive";
  next_int t mod bound

let float t bound =
  let x = Int64.to_float (Int64.shift_right_logical (step t) 11) in
  (* 53 random bits mapped to [0, 1). *)
  x /. 9007199254740992.0 *. bound

let bool t = Int64.logand (step t) 1L = 1L

let string t len =
  let b = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.set b i (Char.chr (97 + (next_int t mod 26)))
  done;
  Bytes.unsafe_to_string b

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
