(* Fig. 8 — effect of the cost-based compaction models (§VI-B).

   (a) Write amplification of RocksDB / PMBlade-PM / PMBlade after an
       update-heavy load under different key distributions, split by device
       (the paper reports the PM and SSD components for PMBlade).

   (b) Fraction of reads served from PM under a 50r/50w workload by data
       skew: PMBlade's Eq. 3 keeps warm partitions in PM, the conventional
       whole-level-0 strategy periodically evicts everything.

   The paper loads 200 GB against an 80 GB PM level-0 (2.5x) and a dataset
   larger than PM; the scaled runs keep those ratios: 20 MB PM level-0,
   50 MB written, dataset footprint larger than PM. *)

let value_bytes = 1024
let written_bytes = 50 * 1024 * 1024
let keyspace = 24_000 (* ~24 MB footprint > PM budget *)

let pm_budget = 20 * 1024 * 1024
let tau_m = 18 * 1024 * 1024
let tau_t = 12 * 1024 * 1024

(* Shrink a variant's PM and thresholds to this experiment's scale. *)
let shrink (cfg : Core.Config.t) =
  {
    cfg with
    Core.Config.l0_capacity = pm_budget;
    pm_params = { Pmem.default_params with capacity = pm_budget + (4 * 1024 * 1024) };
    l0_strategy =
      (match cfg.Core.Config.l0_strategy with
      | Core.Config.Cost_based p ->
          Core.Config.Cost_based { p with Compaction.Cost_model.tau_m; tau_t }
      | Core.Config.Conventional { max_tables = Some _; _ } as s -> s
      | Core.Config.Conventional _ ->
          Core.Config.Conventional { max_tables = None; max_bytes = Some tau_m }
      | Core.Config.Matrix m -> Core.Config.Matrix m);
  }

let systems =
  [
    ("RocksDB", shrink Core.Config.rocksdb_like);
    ("PMBlade-PM", shrink Core.Config.pmblade_pm);
    ("PMBlade", shrink Core.Config.pmblade);
  ]

let load (cfg : Core.Config.t) ~theta =
  Report.note_config cfg;
  let eng = Core.Engine.create cfg in
  let rng = Util.Xoshiro.create 43 in
  let zipf = Util.Zipf.create ~theta ~n:keyspace rng in
  let writes = written_bytes / (value_bytes + 32) in
  for i = 1 to writes do
    let key = Util.Keys.ycsb_key (Util.Zipf.next_scrambled zipf) in
    Core.Engine.put ~update:(i > keyspace) eng ~key (Util.Xoshiro.string rng value_bytes)
  done;
  eng

let fig8a () =
  Report.heading "Fig 8a: write amplification by distribution";
  let distributions = [ ("uniform", 0.0); ("zipf 0.6", 0.6); ("zipf 0.99", 0.99) ] in
  let rows =
    List.concat_map
      (fun (dname, theta) ->
        List.map
          (fun (sname, cfg) ->
            let eng = load cfg ~theta in
            let user = Core.Engine.user_bytes eng in
            let pm_w = Core.Engine.pm_bytes_written eng in
            let ssd_w = Core.Engine.ssd_bytes_written eng in
            [
              dname;
              sname;
              Report.mb user;
              Report.mb pm_w;
              Report.mb ssd_w;
              Report.ratio (float_of_int (pm_w + ssd_w) /. float_of_int user);
            ])
          systems)
      distributions
  in
  Report.table
    ~header:[ "distribution"; "system"; "user bytes"; "PM written"; "SSD written"; "total WA" ]
    rows;
  Report.note "paper (uniform, 200 GB): RocksDB 2573 GB, PMBlade-PM 825 GB,";
  Report.note "PMBlade 359 GB (201 PM + 158 SSD) - PMBlade absorbs WA in PM."

(* The uniform PMBlade leg of Fig 8a on its own, as a host-cost gate: it
   times the load and counts minor words per put, and fails (exit 1) when
   the simulated digest moves — user, PM and SSD bytes and the bits of the
   final virtual clock, which every simulated cost feeds — or when the
   allocation per put exceeds [max_words_per_put]. *)
let leg_digest = (51_964_946, 257_909_900, 41_738_098, 0x41cebb4805b0f6fdL)
let max_words_per_put = 4_000.0

let fig8_leg () =
  Report.heading "Fig 8a leg: uniform keys, PMBlade — host cost";
  let cfg = shrink Core.Config.pmblade in
  let puts = written_bytes / (value_bytes + 32) in
  let w0 = Gc.minor_words () and t0 = Unix.gettimeofday () in
  let eng = load cfg ~theta:0.0 in
  let host_s = Unix.gettimeofday () -. t0 and words = Gc.minor_words () -. w0 in
  let words_per_put = words /. float_of_int puts in
  let digest =
    ( Core.Engine.user_bytes eng,
      Core.Engine.pm_bytes_written eng,
      Core.Engine.ssd_bytes_written eng,
      Int64.bits_of_float (Sim.Clock.now (Core.Engine.clock eng)) )
  in
  let show (user, pm, ssd, clock) = Printf.sprintf "user %d  PM %d  SSD %d  clock %Lx" user pm ssd clock in
  Report.table ~header:[ "puts"; "host s"; "minor words/put"; "simulated digest" ]
    [ [ string_of_int puts; Printf.sprintf "%.2f" host_s; Printf.sprintf "%.0f" words_per_put; show digest ] ];
  let failures =
    (if digest <> leg_digest then [ "simulated digest moved; expected " ^ show leg_digest ] else [])
    @
    if words_per_put > max_words_per_put then
      [ Printf.sprintf "%.0f minor words per put exceeds %.0f" words_per_put max_words_per_put ]
    else []
  in
  if failures <> [] then begin
    List.iter (Printf.printf "  FAIL: %s\n") failures;
    exit 1
  end

let fig8b () =
  Report.heading "Fig 8b: fraction of reads served from PM vs data skew (50r/50w)";
  let skews = [ 0.0; 0.3; 0.6; 0.9; 0.99 ] in
  let measure (cfg : Core.Config.t) theta =
    Report.note_config cfg;
    let eng = Core.Engine.create cfg in
    let rng = Util.Xoshiro.create 53 in
    let zipf = Util.Zipf.create ~theta ~n:keyspace rng in
    let ops = 64_000 in
    for i = 1 to ops do
      let key = Util.Keys.ycsb_key (Util.Zipf.next_scrambled zipf) in
      if i land 1 = 0 then ignore (Core.Engine.get eng key)
      else Core.Engine.put ~update:true eng ~key (Util.Xoshiro.string rng value_bytes)
    done;
    let m = Core.Engine.metrics eng in
    Core.Metrics.reset_read_sources m;
    for _ = 1 to 4_000 do
      ignore (Core.Engine.get eng (Util.Keys.ycsb_key (Util.Zipf.next_scrambled zipf)))
    done;
    Core.Metrics.pm_hit_ratio m
  in
  let rows =
    List.map
      (fun theta ->
        let pmblade = measure (shrink Core.Config.pmblade) theta in
        let pmblade_pm = measure (shrink Core.Config.pmblade_pm) theta in
        [ Printf.sprintf "%.2f" theta; Report.pct pmblade; Report.pct pmblade_pm ])
      skews
  in
  Report.table ~header:[ "data skew"; "PMBlade"; "PMBlade-PM" ] rows;
  Report.note "paper: hit rate rises with skew; the cost model keeps warm data";
  Report.note "in PM (+34%% at skew 0 vs the conventional strategy)."
