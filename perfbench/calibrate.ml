(* The machine's current speed, from a fixed host workload.

   Host time on a shared machine drifts with the machine, not only with
   the program: the identical run has taken 9.3 s and, minutes later,
   12.6 s, and here rounds of identical work vary by 10-20% within one
   run (README.md). Before a front-door call, once [interval_s] of host
   time has passed, the benchmark runs a short slice of this kernel, so
   kernel and store see the same machine; each phase's host times are
   scaled by the reference time over the median slice time of that
   phase. A machine that runs everything 30% slower leaves the scaled
   figures where they were, while a program that got slower still moves
   them.

   The kernel uses the standard library only — no code of the store — so
   no change to the store can move it: a byte-wise generate-and-checksum
   loop and random access over a buffer larger than the L2 cache. *)

let buffer = Bytes.make (1 lsl 20) 'x'
let scratch = Bytes.create 256

(* One slice: ~0.5 ms on the reference machine. It allocates nothing, so
   its time never includes garbage-collection work the store left due. *)
let slice () =
  let acc = ref 0 and x = ref 0x2545F491 in
  for _ = 1 to 240 do
    for j = 0 to 255 do
      x := (!x * 1103515245) + 12345;
      Bytes.unsafe_set scratch j (Char.unsafe_chr ((!x lsr 16) land 0xff))
    done;
    let h = ref 0 in
    for j = 0 to 255 do
      h := ((!h lsl 5) - !h + Char.code (Bytes.unsafe_get scratch j)) land 0x3fffffff
    done;
    for _ = 1 to 64 do
      x := (!x * 1103515245) + 12345;
      let i = (!x lsr 8) land (Bytes.length buffer - 1) in
      Bytes.unsafe_set buffer i (Char.unsafe_chr ((Char.code (Bytes.unsafe_get buffer i) + !h) land 0xff))
    done;
    acc := !acc + !h
  done;
  ignore (Sys.opaque_identity !acc)

(* Seconds of one slice on the reference machine (a 2-vCPU x86-64 VM at
   2.1 GHz, OCaml 5.1.1), where the median slice took 0.42-0.7 ms. Only
   ratios of scaled figures mean anything; this fixes their unit. *)
let reference_s = 0.0005

(* Host time between slices. *)
let interval_s = 0.025

type t = {
  times : Checked.Samples.t;
  mutable spent_s : float;  (** host seconds in slices, to subtract from wall time *)
  mutable next_s : float;
}

let create () = { times = Checked.Samples.create (); spent_s = 0.0; next_s = 0.0 }

(* Run a slice when [interval_s] has passed since the last one. The
   slice's host time and words — its bookkeeping included — are kept out
   of every ledger span, and nothing is allocated before the ledger's
   boundary, so allocation per op repeats exactly. *)
let tick t ledger =
  if Ledger.now_ns () /. 1e9 >= t.next_s then begin
    Ledger.boundary ledger;
    let t0 = Ledger.now_ns () in
    slice ();
    let t1 = Ledger.now_ns () in
    let dt = (t1 -. t0) /. 1e9 in
    Checked.Samples.add t.times dt;
    t.spent_s <- t.spent_s +. dt;
    t.next_s <- (t1 /. 1e9) +. interval_s;
    Ledger.restart ledger
  end

(* Reference over the median slice time since the last [speed]: above 1
   on a machine faster than the reference, below 1 on a slower one. Host
   times of the phase just ended are multiplied by it. *)
let speed t =
  let n = Checked.Samples.count t.times in
  let v = if n = 0 then 1.0 else reference_s /. Checked.Samples.percentile t.times 50.0 in
  t.times.n <- 0;
  v
