(* What the benchmark reports: every metric's name, unit and direction,
   and the bound by which an end-to-end metric may worsen before a change
   counts as a regression. BENCHMARK.json at the repository root is
   generated from these tables ([--write-spec]). *)

type better = Lower | Higher

type metric = { name : string; unit_ : string; better : better; bound : float }

let m ?(bound = 0.0) name unit_ better = { name; unit_; better; bound }

(* Each bound is at least three times the metric's spread (interquartile
   range over median) across seeds measured on every workload (README.md).
   Host-clock metrics carry the widest: the machine drifts under them.
   Simulated metrics and allocation repeat exactly for a seed; their
   bounds cover how much the workloads' own work varies from seed to seed.
   Write latency is a mean: its median is one fixed device cost and its
   p99 flips between flush-only and compaction stalls from seed to seed
   (the per-kind p50/p99 are per-layer metrics). *)
let end_to_end =
  [
    m "setup_s" "s" Lower ~bound:0.25;
    m "host_ops_per_s" "ops/s" Higher ~bound:0.25;
    m "host_op_p99_us" "us" Lower ~bound:0.25;
    m "alloc_words_per_op" "words" Lower ~bound:0.25;
    m "peak_heap_mb" "MB" Lower ~bound:0.25;
    m "sim_ops_per_s" "ops/s" Higher ~bound:0.1;
    m "sim_op_p99_us" "us" Lower ~bound:0.1;
    m "sim_write_mean_us" "us" Lower ~bound:0.25;
    m "waf" "ratio" Lower ~bound:0.25;
    m "space_amp" "ratio" Lower ~bound:0.25;
  ]

let per_layer =
  [
    (* front door: Core.Engine / Shard.Router through Workload.Sink *)
    m "front.put.calls" "count" Higher;
    m "front.get.calls" "count" Higher;
    m "front.scan.calls" "count" Higher;
    m "front.put.host_us" "us" Lower;
    m "front.get.host_us" "us" Lower;
    m "front.scan.host_us" "us" Lower;
    m "front.put.words" "words" Lower;
    m "front.get.words" "words" Lower;
    m "front.scan.words" "words" Lower;
    m "sim_op_p50_us" "us" Lower;
    m "front.put.sim_p50_us" "us" Lower;
    m "front.put.sim_p99_us" "us" Lower;
    m "front.get.sim_p50_us" "us" Lower;
    m "front.get.sim_p99_us" "us" Lower;
    m "front.scan.sim_p50_us" "us" Lower;
    m "front.scan.sim_p99_us" "us" Lower;
    m "bench.overhead_s" "s" Lower;
    (* engine background work, self time of the engine's own spans *)
    m "flush.count" "count" Lower;
    m "flush.host_ms" "ms" Lower;
    m "flush.words" "words" Lower;
    m "internal_compaction.count" "count" Lower;
    m "internal_compaction.host_ms" "ms" Lower;
    m "internal_compaction.words" "words" Lower;
    m "major_compaction.count" "count" Lower;
    m "major_compaction.host_ms" "ms" Lower;
    m "major_compaction.words" "words" Lower;
    (* memtable *)
    m "memtable.reads_served" "count" Higher;
    m "attr.memtable_probe_ms" "ms" Lower;
    (* core.wal *)
    m "wal.syncs" "count" Lower;
    m "attr.wal_stage_ms" "ms" Lower;
    m "attr.wal_sync_ms" "ms" Lower;
    (* pmtable + bloom + compress.prefix *)
    m "pm.reads_served" "count" Higher;
    m "pmtable.bloom_probes" "count" Lower;
    m "pmtable.bloom_filter_rate" "ratio" Higher;
    m "attr.pm_bloom_ms" "ms" Lower;
    m "attr.pm_read_ms" "ms" Lower;
    (* pmem *)
    m "pmem.bytes_written" "bytes" Lower;
    m "pmem.bytes_read" "bytes" Lower;
    m "pmem.flushes" "count" Lower;
    m "pmem.write_ms" "ms" Lower;
    m "pmem.read_ms" "ms" Lower;
    m "pmem.flush_ms" "ms" Lower;
    (* cache *)
    m "cache.hits" "count" Higher;
    m "cache.misses" "count" Lower;
    m "cache.hit_ratio" "ratio" Higher;
    m "cache.evictions" "count" Lower;
    m "attr.cache_hit_ms" "ms" Lower;
    (* sstable + ssd *)
    m "ssd.reads_served" "count" Lower;
    m "ssd.reads" "count" Lower;
    m "ssd.writes" "count" Lower;
    m "ssd.bytes_read" "bytes" Lower;
    m "ssd.bytes_written" "bytes" Lower;
    m "ssd.read_ms" "ms" Lower;
    m "ssd.write_ms" "ms" Lower;
    m "attr.ssd_read_ms" "ms" Lower;
    m "engine.raf" "ratio" Lower;
    (* compaction: merge and cost model *)
    m "compaction.minor" "count" Lower;
    m "compaction.internal" "count" Lower;
    m "compaction.major" "count" Lower;
    m "compaction.internal_sim_ms" "ms" Lower;
    m "compaction.major_sim_ms" "ms" Lower;
    m "engine.write_stalls" "count" Lower;
    m "attr.stall_wait_ms" "ms" Lower;
    m "engine.debt_bytes" "bytes" Lower;
    (* compaction.pipeline + coroutine *)
    m "pipeline.runs" "count" Lower;
    m "pipeline.rebate_ms" "ms" Higher;
    m "pipeline.queue_wait_ms" "ms" Lower;
    m "pipeline.stage_busy.read" "ms" Lower;
    m "pipeline.stage_busy.merge" "ms" Lower;
    m "pipeline.stage_busy.build" "ms" Lower;
    m "pipeline.stage_busy.write" "ms" Lower;
    (* shard *)
    m "shard.dispatched" "count" Higher;
    m "shard.gc_batches" "count" Lower;
    m "shard.gc_mean_batch" "entries" Higher;
    m "shard.stall_count" "count" Lower;
    m "shard.stall_ms" "ms" Lower;
    m "shard.soft_delays" "count" Lower;
    m "attr.group_commit_wait_ms" "ms" Lower;
    m "attr.admission_stall_ms" "ms" Lower;
    m "attr.router_dispatch_ms" "ms" Lower;
    m "attr.sched_wait_ms" "ms" Lower;
    (* obs + sanitize: guards *)
    m "attr.coverage" "ratio" Higher;
    m "trace.host_overhead" "ratio" Higher;
    m "sanitize.findings" "count" Lower;
    (* core.manifest + core.wal recovery *)
    m "recover.sim_ms" "ms" Lower;
    m "recover.host_ms" "ms" Lower;
    m "durability.lost_keys" "count" Lower;
  ]

let named metrics = List.map (fun x -> (x.name, x)) metrics

let unit_of name =
  match List.assoc_opt name (named (end_to_end @ per_layer)) with
  | Some x -> x.unit_
  | None -> invalid_arg ("Spec.unit_of: " ^ name)

(* Seconds one run measures: rounds of 3.5-4 s each, so 5 or 6 of them —
   enough for the medians and pooled figures to steady (README.md), and
   4 + 22 x 4 runs fit well inside an hour. *)
let run_seconds = 20

let better_name = function Lower -> "lower" | Higher -> "higher"

(* BENCHMARK.json: one metric or workload per line, so diffs stay small.
   Names and units are plain ASCII ([A-Za-z0-9_./%-]); the workloads'
   [why] lines go through the JSON printer. *)
let write_benchmark_json path (workloads : (string * string) list) =
  let lines items f = String.concat ",\n" (List.map (fun x -> "    " ^ f x) items) in
  let metric ~with_bound x =
    Printf.sprintf "{\"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\"%s}" x.name x.unit_
      (better_name x.better)
      (if with_bound then Printf.sprintf ", \"bound\": %g" x.bound else "")
  in
  let workload (name, why) =
    Printf.sprintf "{\"name\": \"%s\", \"why\": %s}" name (Obs.Json.to_string (Obs.Json.String why))
  in
  Out_channel.with_open_bin path (fun oc ->
      Printf.fprintf oc
        "{\n\
        \  \"command\": [\"python3\", \"perfbench/run.py\"],\n\
        \  \"paths\": [\"perfbench\"],\n\
        \  \"run_seconds\": %d,\n\
        \  \"workloads\": [\n%s\n  ],\n\
        \  \"end_to_end\": [\n%s\n  ],\n\
        \  \"per_layer\": [\n%s\n  ]\n\
         }\n"
        run_seconds (lines workloads workload)
        (lines end_to_end (metric ~with_bound:true))
        (lines per_layer (metric ~with_bound:false)))
