(* The four workloads. Each builds its store from a named preset with
   explicit overrides ([sanitize = true] pinned), loads and warms it
   through the checked sink during set-up, and then runs a fixed number
   of closed-loop steps in the measured phase. The seed reaches only the
   generators. Why each workload exists, with the sizing measurements
   behind its numbers, is in README.md next to this file. *)

(* A store behind its front door, with the handles the per-layer counters
   are read from. *)
type store = {
  sink : Workload.Sink.t;
  clock : Sim.Clock.t;
  engines : Core.Engine.t array;
  router : Shard.Router.t option;
  pm : Pmem.t;
  ssd : Ssd.t;
  cache : Cache.Block_cache.t option;
}

type t = {
  name : string;
  why : string;
  config : Core.Config.t;
  boundaries : string list option;  (** [Some] routes through [Shard.Router] *)
  clients : int;  (** closed-loop client coroutines; 1 = plain calls *)
  ops : int;  (** measured steps at full size *)
  round_s : float;  (** nominal host seconds of one round, set-up included *)
  setup : seed:int -> size:float -> Workload.Sink.t -> Workload.Sink.t -> unit;
      (** load and warm up; returns the step function of the measured phase *)
}

let mib = Core.Config.mib
let scaled size n = max 1 (int_of_float (size *. float_of_int n))

let of_engine e =
  {
    sink = Workload.Sink.of_engine e;
    clock = Core.Engine.clock e;
    engines = [| e |];
    router = None;
    pm = Core.Engine.pm e;
    ssd = Core.Engine.ssd e;
    cache = Core.Engine.block_cache e;
  }

let of_router r =
  {
    sink = Shard.Router.sink r;
    clock = Shard.Router.clock r;
    engines = Shard.Router.engines r;
    router = Some r;
    pm = Shard.Router.pm r;
    ssd = Shard.Router.ssd r;
    cache = Shard.Router.block_cache r;
  }

let create w =
  match w.boundaries with
  | Some boundaries -> of_router (Shard.Router.create ~boundaries w.config)
  | None -> of_engine (Core.Engine.create w.config)

let recover w ~pm ~ssd =
  match w.boundaries with
  | Some boundaries -> of_router (Shard.Router.recover ~boundaries w.config ~pm ~ssd)
  | None -> of_engine (Core.Engine.recover w.config ~pm ~ssd)

let close s =
  match s.router with
  | Some r -> Shard.Router.close r
  | None -> ()

(* PMBlade with its level-0 budget and cost-model thresholds scaled to
   [pm_bytes] (the Fig 8a recipe: tau_m at 0.9 and tau_t at 0.6 of it). *)
let pmblade_with_pm ~name pm_bytes =
  let cfg = Core.Config.pmblade in
  {
    cfg with
    Core.Config.name;
    l0_capacity = pm_bytes;
    pm_params = { cfg.Core.Config.pm_params with Pmem.capacity = pm_bytes + mib 4 };
    l0_strategy =
      (match cfg.Core.Config.l0_strategy with
      | Core.Config.Cost_based p ->
          Core.Config.Cost_based
            { p with Compaction.Cost_model.tau_m = pm_bytes * 9 / 10; tau_t = pm_bytes * 6 / 10 }
      | s -> s);
    sanitize = true;
  }

let value_bytes = 1024

(* --- ingest_uniform ------------------------------------------------------ *)

let ingest_keys = 6_000

let ingest_uniform =
  {
    name = "ingest_uniform";
    why =
      "uniform 1 KB overwrites only: memtable, WAL, PM-table build, internal and major \
       compaction, pipeline replay and SSD writes do the work; reads stay idle";
    config =
      { (pmblade_with_pm ~name:"perfbench-ingest" (mib 5)) with durable = true; block_cache_mb = 8 };
    boundaries = None;
    clients = 1;
    ops = 24_000;
    round_s = 4.0;
    setup =
      (fun ~seed ~size sink ->
        let keys = scaled size ingest_keys in
        let rng = Util.Xoshiro.create seed in
        let overwrite (s : Workload.Sink.t) =
          s.put ~update:true
            ~key:(Util.Keys.ycsb_key (Util.Xoshiro.int rng keys))
            (Util.Xoshiro.string rng value_bytes)
        in
        for i = 0 to keys - 1 do
          sink.put ~update:false ~key:(Util.Keys.ycsb_key i) (Util.Xoshiro.string rng value_bytes)
        done;
        (* two keyspaces of overwrites: write amplification has levelled
           off before the measured phase starts *)
        for _ = 1 to 2 * keys do
          overwrite sink
        done;
        overwrite);
  }

(* --- read_zipf ----------------------------------------------------------- *)

let read_zipf =
  {
    name = "read_zipf";
    why =
      "YCSB-B zipfian 0.99 over twice the PM budget with a cache smaller than the SSD data: \
       memtable, blooms, PM tables, block cache and SSD serve reads";
    config = { (pmblade_with_pm ~name:"perfbench-read" (mib 6)) with block_cache_mb = 8 };
    boundaries = None;
    clients = 1;
    ops = 40_000;
    round_s = 3.5;
    setup =
      (fun ~seed ~size sink ->
        let y = Workload.Ycsb.create ~seed ~value_bytes () in
        Workload.Ycsb.load_sink y sink ~records:(scaled size 12_000);
        Workload.Ycsb.run_sink y sink Workload.Ycsb.B ~ops:(scaled size 10_000);
        fun s -> Workload.Ycsb.step_sink y s Workload.Ycsb.B);
  }

(* --- retail_pm ----------------------------------------------------------- *)

let retail_pm =
  {
    name = "retail_pm";
    why =
      "the online-retail mix whose data fits the 80 MB PM level-0: scans, small index writes, \
       prefix-compressed PM tables and internal compaction; no SSD reads";
    config = { Core.Config.pmblade with name = "perfbench-retail"; durable = true; sanitize = true };
    boundaries = None;
    clients = 1;
    ops = 8_000;
    round_s = 3.5;
    setup =
      (fun ~seed ~size sink ->
        let r = Workload.Retail.create ~seed () in
        Workload.Retail.load_sink r sink ~orders:(scaled size 1_000);
        fun s -> Workload.Retail.step_sink r s);
  }

(* --- sharded_ycsb_a ------------------------------------------------------ *)

let shards = 4
let sharded_records = 12_000

let sharded_ycsb_a =
  {
    name = "sharded_ycsb_a";
    why =
      "YCSB-A from 8 client coroutines through a 4-shard router with group commit and \
       admission control: the only workload that runs lib/shard and the scheduler";
    config =
      {
        Core.Config.pmblade with
        name = "perfbench-sharded";
        memtable_bytes = 16 * 1024;
        l0_run_table_bytes = 32 * 1024;
        l0_strategy = Core.Config.Conventional { max_tables = None; max_bytes = None };
        block_cache_mb = 8;
        durable = true;
        sanitize = true;
        shard_count = shards;
        group_commit_window_ns = 30_000.0;
        group_commit_max = 16;
        admission_soft_tables = 24;
        admission_hard_tables = 48;
      };
    boundaries = Some (Shard.Router.ycsb_boundaries ~records:sharded_records ~shards);
    clients = 8;
    ops = 40_000;
    round_s = 3.5;
    setup =
      (fun ~seed ~size sink ->
        let y = Workload.Ycsb.create ~seed ~value_bytes:400 () in
        Workload.Ycsb.load_sink y sink ~records:(scaled size sharded_records);
        fun s -> Workload.Ycsb.step_sink y s Workload.Ycsb.A);
  }

let all = [ ingest_uniform; read_zipf; retail_pm; sharded_ycsb_a ]
let find name = List.find_opt (fun w -> String.equal w.name name) all
