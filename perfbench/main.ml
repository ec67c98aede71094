(* The repository benchmark: one command per workload, on two clocks.

     python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

   [--trace 0] runs the workload in fresh stores, one round per
   [Workloads.round_s] nominal seconds of [--seconds], each round with
   its own generator seed derived from [--seed], tracing off, and prints
   the end-to-end metrics: simulated ones pooled over the rounds, host
   ones as medians over them. The round count depends only on
   [--seconds], so a seed always gives the same simulated results.

   [--trace 1] runs the first round three ways: untraced for the
   per-layer counters; with [Obs.Attr] and the benchmark's own span sink
   for per-layer host time and attributed simulated time (its simulated
   results must equal the untraced round's bit for bit); and, on a
   durable workload, in crash mode, crashing and recovering after the
   measured phase and reading every acknowledged key back.

   Every answer the store gives is checked. The last line of output is
   one JSON object; the exit code is 0 only when every check passed. *)

module Samples = Checked.Samples

let now_s () = Ledger.now_ns () /. 1e9

let median = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* --- Public counters ----------------------------------------------------- *)

(* Cumulative counters, summed over the store's engines; the shared
   devices, cache and router are read once. *)
let counters (s : Workloads.store) =
  let sum f = Array.fold_left (fun a e -> a +. f e) 0.0 s.engines in
  let met f = sum (fun e -> float_of_int (f (Core.Engine.metrics e))) in
  let metf f = sum (fun e -> f (Core.Engine.metrics e)) in
  let pipe f = sum (fun e -> f (Core.Engine.pipeline_stats e)) in
  let stage i = pipe (fun p -> p.Compaction.Pipeline.stage_busy_total.(i)) /. 1e6 in
  let pm = Pmem.stats s.pm and ssd = Ssd.stats s.ssd in
  let cache f = match s.cache with Some c -> float_of_int (f c) | None -> 0.0 in
  let router f = match s.router with Some r -> f r | None -> 0.0 in
  let i = float_of_int in
  [
    ("user_bytes_written", met (fun m -> m.Core.Metrics.user_bytes_written));
    ("user_bytes_read", met (fun m -> m.Core.Metrics.user_bytes_read));
    ("memtable.reads_served", met (fun m -> m.Core.Metrics.reads_from_memtable));
    ("pm.reads_served", met (fun m -> m.Core.Metrics.reads_from_pm));
    ("ssd.reads_served", met (fun m -> m.Core.Metrics.reads_from_ssd));
    ("compaction.minor", met (fun m -> m.Core.Metrics.minor_compactions));
    ("compaction.internal", met (fun m -> m.Core.Metrics.internal_compactions));
    ("compaction.major", met (fun m -> m.Core.Metrics.major_compactions));
    ("compaction.internal_sim_ms", metf (fun m -> m.Core.Metrics.internal_compaction_time) /. 1e6);
    ("compaction.major_sim_ms", metf (fun m -> m.Core.Metrics.major_compaction_time) /. 1e6);
    ("engine.write_stalls", met (fun m -> m.Core.Metrics.write_stalls));
    ("pmtable.bloom_probes", i !Pmtable.Pm_table.bloom_probes);
    ("pmtable.bloom_negatives", i !Pmtable.Pm_table.bloom_negatives);
    ("pmem.bytes_written", i pm.Pmem.bytes_written);
    ("pmem.bytes_read", i pm.Pmem.bytes_read);
    ("pmem.flushes", i pm.Pmem.flushes);
    ("pmem.write_ms", pm.Pmem.write_time /. 1e6);
    ("pmem.read_ms", pm.Pmem.read_time /. 1e6);
    ("pmem.flush_ms", pm.Pmem.flush_time /. 1e6);
    ("ssd.reads", i ssd.Ssd.reads);
    ("ssd.writes", i ssd.Ssd.writes);
    ("ssd.bytes_read", i ssd.Ssd.bytes_read);
    ("ssd.bytes_written", i ssd.Ssd.bytes_written);
    ("ssd.read_ms", ssd.Ssd.read_time /. 1e6);
    ("ssd.write_ms", ssd.Ssd.write_time /. 1e6);
    ("cache.hits", cache Cache.Block_cache.hits);
    ("cache.misses", cache Cache.Block_cache.misses);
    ("cache.evictions", cache Cache.Block_cache.evictions);
    ("pipeline.runs", pipe (fun p -> i p.Compaction.Pipeline.runs));
    ("pipeline.rebate_ms", pipe (fun p -> p.Compaction.Pipeline.rebate_total_ns) /. 1e6);
    ("pipeline.queue_wait_ms", pipe (fun p -> p.Compaction.Pipeline.queue_wait_total) /. 1e6);
    ("pipeline.stage_busy.read", stage 0);
    ("pipeline.stage_busy.merge", stage 1);
    ("pipeline.stage_busy.build", stage 2);
    ("pipeline.stage_busy.write", stage 3);
    ("shard.dispatched", router (fun r -> i (Shard.Router.dispatched r)));
    ("shard.gc_batches", router (fun r -> i (Shard.Router.gc_batches r)));
    ("shard.gc_synced", router (fun r -> i (Shard.Router.gc_synced_entries r)));
    ("shard.stall_count", router (fun r -> i (Shard.Router.stall_count r)));
    ("shard.stall_ms", router (fun r -> Shard.Router.stall_ns r /. 1e6));
    ("shard.soft_delays", router (fun r -> i (Shard.Router.soft_delays r)));
  ]

let sanitizer_findings (s : Workloads.store) =
  match Pmem.sanitizer s.pm with
  | Some san -> Sanitize.Pmsan.error_count san + Sanitize.Pmsan.redundant_flushes san
  | None -> 0

(* --- One round ----------------------------------------------------------- *)

type mode = Timed | Traced | Crash

type round = {
  checker : Checked.t;
  speed : float;  (** the measured phase's calibration: reference / slice time *)
  setup_s : float;
  setup_speed : float;  (** the set-up phase's calibration *)
  ops : int;
  front_ns : float;  (** host ns inside front-door calls *)
  wall_s : float;  (** host wall time of the measured phase *)
  step_host : Samples.t;  (** host ns per step *)
  words : float;  (** minor words allocated inside front-door calls *)
  step_sim : Samples.t;  (** simulated ns per step *)
  sim_ns : float;  (** simulated duration of the measured phase *)
  layer : (string * float) list;  (** counter deltas over the measured phase *)
  space_bytes : float;
  logical_bytes : float;
  findings : int;
  attr : (Obs.Attr.snapshot * float) option;  (** with its coverage *)
  recovery : (float * float * int) option;  (** sim ms, host ms, lost keys *)
}

let measure ~(w : Workloads.t) ~(store : Workloads.store) ~ck ~step ~ops ~plant =
  let step_host = Samples.create () and step_sim = Samples.create () in
  let words = ref 0.0 in
  let run_step (client : Checked.client) sink i =
    client.req <- i;
    client.step <- Ledger.new_acc ();
    if plant && i = ops - 1 then ck.Checked.drop_next_put <- true;
    let sim0 = Sim.Clock.now store.clock in
    step sink;
    Samples.add step_sim (Sim.Clock.now store.clock -. sim0);
    Samples.add step_host client.step.ns;
    words := !words +. client.step.words
  in
  (match store.router with
  | None ->
      let client = Checked.new_client () in
      let sink = Checked.sink ck client store.sink in
      for i = 0 to ops - 1 do
        run_step client sink i
      done
  | Some r ->
      (* closed-loop clients as coroutines on one OS thread *)
      let sched =
        Coroutine.Scheduler.create ~cores:1
          ~policy:(Coroutine.Scheduler.Cooperative { switch_cost = 0.0 })
          (Sim.Des.create store.clock) store.ssd
      in
      Shard.Router.enable_group_commit r sched;
      for c = 0 to w.clients - 1 do
        Coroutine.Scheduler.spawn ~name:(Printf.sprintf "client-%d" c) sched 0 (fun () ->
            let client = Checked.new_client () in
            let sink = Checked.sink ck client store.sink in
            let i = ref c in
            while !i < ops do
              run_step client sink !i;
              i := !i + w.clients;
              Coroutine.Co.yield ()
            done)
      done;
      ignore (Coroutine.Scheduler.run_to_completion sched);
      Shard.Router.disable_group_commit r);
  (step_host, step_sim, !words)

let run_round ~(w : Workloads.t) ~seed ~size ~mode ~plant =
  Gc.compact ();
  let t0 = now_s () in
  let store = Workloads.create w in
  if mode = Crash then begin
    Pmem.enable_crash_mode store.pm;
    Ssd.enable_crash_mode store.ssd
  end;
  let ledger = Ledger.create () and cal = Calibrate.create () in
  let ck = Checked.create ~ledger ~clock:store.clock ~tick:(fun () -> Calibrate.tick cal ledger) in
  let step = w.setup ~seed ~size (Checked.sink ck (Checked.new_client ()) store.sink) in
  let setup_s = now_s () -. t0 -. cal.spent_s in
  let setup_speed = Calibrate.speed cal in
  let before = counters store in
  Checked.reset_timing ck;
  if mode = Traced then begin
    Obs.Attr.enable ~clock:store.clock;
    Obs.Trace.enable ~io:false ~clock:store.clock (Ledger.trace_sink ledger)
  end;
  let ops = Workloads.scaled size w.ops in
  Ledger.reset ~keep:(mode = Traced) ledger;
  let wall0 = now_s () -. cal.spent_s and sim0 = Sim.Clock.now store.clock in
  let step_host, step_sim, words = measure ~w ~store ~ck ~step ~ops ~plant in
  let sim_ns = Sim.Clock.now store.clock -. sim0 and wall_s = now_s () -. cal.spent_s -. wall0 in
  let speed = Calibrate.speed cal in
  let attr =
    if mode = Traced then begin
      let snap = Obs.Attr.snapshot () and op_ns = Obs.Attr.op_ns () in
      let coverage = if op_ns > 0.0 then Obs.Attr.accounted_ns () /. op_ns else 0.0 in
      Obs.Trace.disable ();
      Obs.Attr.disable ();
      Some (snap, coverage)
    end
    else None
  in
  (* Host time outside every front-door call — generators, checking,
     scheduling between calls — is the benchmark's, not the store's. *)
  let front_ns = Samples.sum step_host in
  let after = counters store in
  let layer = List.map (fun (k, v) -> (k, v -. List.assoc k before)) after in
  let debt =
    Array.fold_left
      (fun a e -> a +. float_of_int (Core.Engine.compaction_debt_bytes e))
      0.0 store.engines
  in
  (* logical_bytes reads every structure, so it comes after every other
     counter has been read *)
  let sum f = Array.fold_left (fun a e -> a +. float_of_int (f e)) 0.0 store.engines in
  let space_bytes = sum Core.Engine.space_bytes in
  let logical_bytes = sum Core.Engine.logical_bytes in
  let findings = sanitizer_findings store in
  ignore (Checked.read_back ck store.sink.get);
  let recovery =
    if mode = Crash then begin
      Pmem.crash store.pm;
      Ssd.crash store.ssd;
      let clock = Pmem.clock store.pm in
      let sim0 = Sim.Clock.now clock and h0 = now_s () in
      let recovered = Workloads.recover w ~pm:store.pm ~ssd:store.ssd in
      let sim_ms = (Sim.Clock.now clock -. sim0) /. 1e6
      and host_ms = (now_s () -. h0) *. 1e3 *. speed in
      let lost = Checked.read_back ck recovered.sink.get in
      Workloads.close recovered;
      Some (sim_ms, host_ms, lost)
    end
    else begin
      (* a crashed store is gone: only the recovered one is closed *)
      Workloads.close store;
      None
    end
  in
  {
    checker = ck;
    speed;
    setup_s;
    setup_speed;
    ops;
    front_ns;
    wall_s;
    step_host;
    words;
    step_sim;
    sim_ns;
    layer = ("engine.debt_bytes", debt) :: layer;
    space_bytes;
    logical_bytes;
    findings;
    attr;
    recovery;
  }

(* --- Metrics -------------------------------------------------------------- *)

let us samples p = Samples.percentile samples p /. 1e3
let ratio a b = if b > 0.0 then a /. b else 0.0
let total f rounds = List.fold_left (fun a r -> a +. f r) 0.0 rounds
let layer name r = List.assoc name r.layer
let kind_samples rounds k = Samples.concat (List.map (fun r -> r.checker.Checked.sim_lat.(k)) rounds)

(* Simulated results, pooled over [rounds]: every latency sample, every
   byte and every simulated second counts once. *)
let sim_metrics rounds =
  let ops = total (fun r -> float_of_int r.ops) rounds in
  let step = Samples.concat (List.map (fun r -> r.step_sim) rounds) in
  let w = kind_samples rounds 0 and g = kind_samples rounds 1 and s = kind_samples rounds 2 in
  let bytes names = total (fun r -> List.fold_left (fun a n -> a +. layer n r) 0.0 names) rounds in
  [
    ("sim_ops_per_s", ops /. (total (fun r -> r.sim_ns) rounds /. 1e9));
    ("sim_op_p50_us", us step 50.0);
    (* per-round p99, averaged: the pooled p99 of a deterministic cost
       model sits on one device-cost value for most seeds *)
    ( "sim_op_p99_us",
      total (fun r -> us r.step_sim 99.0) rounds /. float_of_int (List.length rounds) );
    ("sim_write_mean_us", Samples.mean w /. 1e3);
    ("front.put.sim_p50_us", us w 50.0);
    ("front.put.sim_p99_us", us w 99.0);
    ("front.get.sim_p50_us", us g 50.0);
    ("front.get.sim_p99_us", us g 99.0);
    ("front.scan.sim_p50_us", us s 50.0);
    ("front.scan.sim_p99_us", us s 99.0);
    ( "waf",
      ratio (bytes [ "pmem.bytes_written"; "ssd.bytes_written" ]) (bytes [ "user_bytes_written" ]) );
    ("engine.raf", ratio (bytes [ "pmem.bytes_read"; "ssd.bytes_read" ]) (bytes [ "user_bytes_read" ]));
    ("space_amp", ratio (total (fun r -> r.space_bytes) rounds) (total (fun r -> r.logical_bytes) rounds));
  ]

(* Sample counts behind the latency metrics; a percentile is reported
   only with >= 10 samples beyond p99. *)
let min_latency_samples = 1000

let latency_counts rounds =
  let n k = Samples.count (kind_samples rounds k) in
  let steps = total (fun r -> float_of_int (Samples.count r.step_host)) rounds in
  [
    ("host_op_p99_us", int_of_float steps);
    ("sim_op_p50_us", int_of_float steps);
    ("sim_op_p99_us", int_of_float steps);
    ("sim_write_mean_us", n 0);
    ("front.put.sim_p50_us", n 0);
    ("front.put.sim_p99_us", n 0);
    ("front.get.sim_p50_us", n 1);
    ("front.get.sim_p99_us", n 1);
    ("front.scan.sim_p50_us", n 2);
    ("front.scan.sim_p99_us", n 2);
  ]

(* Host metrics at the reference machine speed (see Calibrate); the
   [raw_*] variants are the wall clock as read. *)
let raw_host_ops_per_s r = float_of_int r.ops /. (r.front_ns /. 1e9)
let host_ops_per_s r = raw_host_ops_per_s r /. r.speed
let heap_mb words = float_of_int words *. float_of_int (Sys.word_size / 8) /. 1048576.0


let end_to_end rounds =
  let med f = median (List.map f rounds) in
  [
    ("setup_s", med (fun r -> r.setup_s *. r.setup_speed));
    ("host_ops_per_s", med host_ops_per_s);
    ("host_op_p99_us", med (fun r -> us r.step_host 99.0 *. r.speed));
    ("alloc_words_per_op", total (fun r -> r.words) rounds /. total (fun r -> float_of_int r.ops) rounds);
    ("peak_heap_mb", heap_mb (Gc.quick_stat ()).Gc.top_heap_words);
  ]
  @ List.filter (fun (k, _) -> List.mem_assoc k Spec.(named end_to_end)) (sim_metrics rounds)

let per_layer (w : Workloads.t) ~untraced:a ~traced:b ~crash =
  let snap, coverage =
    match b.attr with Some x -> x | None -> invalid_arg "per_layer: untraced round"
  in
  let attr_ms phase =
    Option.fold ~none:0.0 ~some:(fun ns -> ns /. 1e6) (List.assoc_opt phase snap.Obs.Attr.op_phases)
  in
  let totals name = Ledger.totals b.checker.ledger name in
  let per_call name f =
    let t = totals name in
    if t.count > 0 then f t.sum /. float_of_int t.count else 0.0
  in
  let front kind =
    [
      (Printf.sprintf "front.%s.calls" kind, float_of_int (totals kind).count);
      (Printf.sprintf "front.%s.host_us" kind, per_call kind (fun s -> s.ns *. b.speed /. 1e3));
      (Printf.sprintf "front.%s.words" kind, per_call kind (fun s -> s.words));
    ]
  in
  let background name =
    let t = totals name in
    [
      (name ^ ".count", float_of_int t.count);
      (name ^ ".host_ms", t.sum.ns *. b.speed /. 1e6);
      (name ^ ".words", t.sum.words);
    ]
  in
  let counts = latency_counts [ a ] in
  let latencies =
    List.map
      (fun (name, v) ->
        match List.assoc_opt name counts with
        | Some n when n < min_latency_samples ->
            Printf.printf "  %s omitted: %d samples < %d\n" name n min_latency_samples;
            (name, 0.0)
        | _ -> (name, v))
      (List.filter (fun (name, _) -> List.mem_assoc name Spec.(named per_layer)) (sim_metrics [ a ]))
  in
  let recover_sim, recover_host, lost =
    match crash with
    | Some { recovery = Some (s, h, l); _ } -> (s, h, float_of_int l)
    | _ ->
        Printf.printf "  recover.* and durability.lost_keys: %s is not durable\n" w.name;
        (0.0, 0.0, 0.0)
  in
  let derived =
    front "put" @ front "get" @ front "scan" @ latencies
    @ [ ("bench.overhead_s", (a.wall_s -. (a.front_ns /. 1e9)) *. a.speed) ]
    @ background "flush" @ background "internal_compaction" @ background "major_compaction"
    @ [
        ("attr.memtable_probe_ms", attr_ms Obs.Attr.Memtable_probe);
        ( "wal.syncs",
          float_of_int
            (Option.value ~default:0 (List.assoc_opt Obs.Attr.Wal_sync snap.Obs.Attr.phase_counts)) );
        ("attr.wal_stage_ms", attr_ms Obs.Attr.Wal_stage);
        ("attr.wal_sync_ms", attr_ms Obs.Attr.Wal_sync);
        ("attr.pm_bloom_ms", attr_ms Obs.Attr.Pm_bloom);
        ("attr.pm_read_ms", attr_ms Obs.Attr.Pm_read);
        ("attr.cache_hit_ms", attr_ms Obs.Attr.Cache_hit);
        ("attr.ssd_read_ms", attr_ms Obs.Attr.Ssd_read);
        ("attr.stall_wait_ms", attr_ms Obs.Attr.Stall_wait);
        ("attr.group_commit_wait_ms", attr_ms Obs.Attr.Group_commit_wait);
        ("attr.admission_stall_ms", attr_ms Obs.Attr.Admission_stall);
        ("attr.router_dispatch_ms", attr_ms Obs.Attr.Router_dispatch);
        ("attr.sched_wait_ms", attr_ms Obs.Attr.Sched_wait);
        ("attr.coverage", coverage);
        ("trace.host_overhead", host_ops_per_s b /. host_ops_per_s a);
        ("sanitize.findings", float_of_int (a.findings + b.findings));
        ("recover.sim_ms", recover_sim);
        ("recover.host_ms", recover_host);
        ("durability.lost_keys", lost);
        ( "pmtable.bloom_filter_rate",
          ratio (layer "pmtable.bloom_negatives" a) (layer "pmtable.bloom_probes" a) );
        ( "cache.hit_ratio",
          ratio (layer "cache.hits" a) (layer "cache.hits" a +. layer "cache.misses" a) );
        ("shard.gc_mean_batch", ratio (layer "shard.gc_synced" a) (layer "shard.gc_batches" a));
      ]
  in
  List.map
    (fun (m : Spec.metric) ->
      (m.name, match List.assoc_opt m.name derived with Some v -> v | None -> layer m.name a))
    Spec.per_layer

(* --- Provenance ----------------------------------------------------------- *)

let fingerprints_file = "perfbench/fingerprints.json"

let recorded_fingerprint name =
  match In_channel.with_open_bin fingerprints_file In_channel.input_all with
  | text -> Option.bind (Obs.Json.member name (Obs.Json.parse text)) Obs.Json.to_string_opt
  | exception Sys_error _ -> None

let print_provenance (w : Workloads.t) ~seed ~seeds ~commit rounds =
  let fp = Core.Config.fingerprint w.config in
  let count f = Obs.Json.Int (int_of_float (total f rounds)) in
  let calls k = count (fun r -> float_of_int r.checker.Checked.calls.(k)) in
  Printf.printf "provenance %s\n"
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("workload", Obs.Json.String w.name);
            ("config", Obs.Json.String w.config.Core.Config.name);
            ("fingerprint", Obs.Json.String fp);
            ("seed", Obs.Json.Int seed);
            ("round_seeds", Obs.Json.List (List.map (fun s -> Obs.Json.Int s) seeds));
            ("commit", Obs.Json.String commit);
            ("ocaml", Obs.Json.String Sys.ocaml_version);
            ( "measured_ops",
              Obs.Json.Obj
                [
                  ("steps", count (fun r -> float_of_int r.ops));
                  ("put", calls 0);
                  ("get", calls 1);
                  ("scan", calls 2);
                ] );
          ]));
  match recorded_fingerprint w.name with
  | Some f when String.equal f fp -> ()
  | Some f ->
      Printf.printf "CONFIG CHANGE: %s fingerprint %s, recorded %s in %s\n" w.name fp f
        fingerprints_file
  | None ->
      Printf.printf "CONFIG CHANGE: %s has no recorded fingerprint in %s\n" w.name
        fingerprints_file

(* --- Modes ---------------------------------------------------------------- *)

type outcome = {
  metrics : (string * float) list;
  samples : (string * int) list;
  problems : string list;
  checkers : Checked.t list;
}

(* Round [k]'s generator seed: disjoint across run seeds. *)
let round_seed seed k = (seed * 1000) + k

let timed_mode ~(w : Workloads.t) ~seed ~size ~seconds ~plant ~commit =
  let count = max 1 (int_of_float (Float.round (seconds /. w.round_s))) in
  let seeds = List.init count (round_seed seed) in
  let rounds = List.map (fun s -> run_round ~w ~seed:s ~size ~mode:Timed ~plant) seeds in
  print_provenance w ~seed ~seeds ~commit rounds;
  List.iter2
    (fun s r ->
      let sim = sim_metrics [ r ] in
      Printf.printf
        "round seed=%d speed=%.3f setup_speed=%.3f raw_setup_s=%.3f raw_host_ops_per_s=%.1f \
         raw_host_op_p99_us=%.1f words_per_op=%.1f sim_ops_per_s=%.1f waf=%.3f flushes=%.0f \
         internal=%.0f major=%.0f\n"
        s r.speed r.setup_speed r.setup_s (raw_host_ops_per_s r) (us r.step_host 99.0)
        (r.words /. float_of_int r.ops)
        (List.assoc "sim_ops_per_s" sim) (List.assoc "waf" sim) (layer "compaction.minor" r)
        (layer "compaction.internal" r) (layer "compaction.major" r))
    seeds rounds;
  let findings = List.fold_left (fun a r -> a + r.findings) 0 rounds in
  {
    metrics = end_to_end rounds;
    samples = latency_counts rounds;
    problems =
      (if findings > 0 then [ Printf.sprintf "%d persistence-ordering sanitizer findings" findings ]
       else []);
    checkers = List.map (fun r -> r.checker) rounds;
  }

let traced_mode ~(w : Workloads.t) ~seed ~size ~plant ~commit =
  let rseed = round_seed seed 0 in
  let round mode = run_round ~w ~seed:rseed ~size ~mode ~plant in
  let a = round Timed in
  let b = round Traced in
  let crash = if w.config.Core.Config.durable then Some (round Crash) else None in
  print_provenance w ~seed ~seeds:[ rseed ] ~commit [ a ];
  (try Sys.mkdir "perfbench/out" 0o755 with Sys_error _ -> ());
  let trace_path = Printf.sprintf "perfbench/out/trace-%s.jsonl" w.name in
  Ledger.write_spans b.checker.ledger trace_path;
  Printf.printf "spans written to %s\n" trace_path;
  let moved =
    List.filter_map
      (fun ((k, va), (_, vb)) ->
        if Float.equal va vb then None else Some (Printf.sprintf "%s %.17g vs %.17g" k va vb))
      (List.combine (sim_metrics [ a ]) (sim_metrics [ b ]))
  in
  let lost = match crash with Some { recovery = Some (_, _, l); _ } -> l | _ -> 0 in
  let problems =
    (if moved = [] then [] else [ "tracing moved simulated results: " ^ String.concat ", " moved ])
    @ (if a.findings + b.findings > 0 then [ "persistence-ordering sanitizer findings" ] else [])
    @
    if lost > 0 then [ Printf.sprintf "%d acknowledged keys lost across crash and recovery" lost ]
    else []
  in
  {
    metrics = per_layer w ~untraced:a ~traced:b ~crash;
    samples = latency_counts [ a ];
    problems;
    checkers = List.map (fun r -> r.checker) (a :: b :: Option.to_list crash);
  }

(* --- Output --------------------------------------------------------------- *)

let print_metric samples (name, value) =
  Printf.printf "  %-28s %18.6f %-6s%s\n" name value (Spec.unit_of name)
    (match List.assoc_opt name samples with Some n -> Printf.sprintf "  (n=%d)" n | None -> "")

let result_line ~correct ~attempted ~failed metrics =
  let open Obs.Json in
  print_endline
    (to_string
       (Obj
          [
            ("correct", Bool correct);
            ("attempted", Int attempted);
            ("failed", Int failed);
            ( "metrics",
              Obj
                (List.map
                   (fun (name, v) ->
                     (name, Obj [ ("value", Float v); ("unit", String (Spec.unit_of name)) ]))
                   metrics) );
          ]))

let write_fingerprints path =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        (Obs.Json.to_string
           (Obs.Json.Obj
              (List.map
                 (fun (w : Workloads.t) ->
                   (w.name, Obs.Json.String (Core.Config.fingerprint w.config)))
                 Workloads.all)));
      output_char oc '\n')

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref (float_of_int Spec.run_seconds) and trace = ref 0 in
  let smoke = ref false and plant = ref "" and commit = ref "unknown" in
  let spec_file = ref "" and fingerprint_file = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N generator seed");
      ("--seconds", Arg.Set_float seconds, "S measure for S seconds (one round per round_s)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the traced per-layer run (1)");
      ("--smoke", Arg.Set smoke, " tiny sizes, one round, every metric of both modes");
      ("--plant", Arg.Set_string plant, "drop_put lose the last measured step's write");
      ("--commit", Arg.Set_string commit, "SHA git commit recorded in the provenance line");
      ("--write-spec", Arg.Set_string spec_file, "FILE write BENCHMARK.json and exit");
      ( "--write-fingerprints",
        Arg.Set_string fingerprint_file,
        "FILE record config fingerprints and exit" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  if !spec_file <> "" then begin
    Spec.write_benchmark_json !spec_file
      (List.map (fun (w : Workloads.t) -> (w.name, w.why)) Workloads.all);
    exit 0
  end;
  if !fingerprint_file <> "" then begin
    write_fingerprints !fingerprint_file;
    exit 0
  end;
  let w =
    match Workloads.find !workload with
    | Some w -> w
    | None ->
        prerr_endline
          ("perfbench: unknown workload '" ^ !workload ^ "'; one of "
          ^ String.concat ", " (List.map (fun (w : Workloads.t) -> w.name) Workloads.all));
        exit 2
  in
  let plant =
    match !plant with
    | "" -> false
    | "drop_put" -> true
    | p ->
        prerr_endline ("perfbench: unknown plant " ^ p);
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "perfbench: --trace takes 0 or 1";
    exit 2
  end;
  Sanitize.Control.enable ();
  let size = if !smoke then 0.05 else 1.0 in
  Printf.printf "perfbench workload=%s seed=%d seconds=%g trace=%d%s%s\n%!" w.name !seed !seconds
    !trace
    (if !smoke then " smoke" else "")
    (if plant then " plant=drop_put" else "");
  let timed seconds = timed_mode ~w ~seed:!seed ~size ~seconds ~plant ~commit:!commit in
  let traced () = traced_mode ~w ~seed:!seed ~size ~plant ~commit:!commit in
  let outcomes =
    if !smoke then [ timed 0.0; traced () ]
    else if !trace = 0 then [ timed !seconds ]
    else [ traced () ]
  in
  let metrics = List.concat_map (fun o -> o.metrics) outcomes in
  let samples = List.concat_map (fun o -> o.samples) outcomes in
  List.iter (print_metric samples) metrics;
  let checkers = List.concat_map (fun o -> o.checkers) outcomes in
  let attempted = List.fold_left (fun a (c : Checked.t) -> a + c.attempted) 0 checkers in
  let failed = List.fold_left (fun a (c : Checked.t) -> a + c.failed) 0 checkers in
  Printf.printf "  %-28s %18.6f (%d of %d checked answers)\n" "error_rate"
    (float_of_int failed /. float_of_int (max 1 attempted))
    failed attempted;
  List.iter (fun (c : Checked.t) -> Option.iter (Printf.printf "FAIL %s\n") c.first_failure) checkers;
  let problems = List.concat_map (fun o -> o.problems) outcomes in
  List.iter (Printf.printf "FAIL %s\n") problems;
  let correct = failed = 0 && problems = [] in
  result_line ~correct ~attempted ~failed metrics;
  exit (if correct then 0 else 1)
