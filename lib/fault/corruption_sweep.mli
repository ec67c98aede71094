(** Systematic bit-rot exploration.

    Each point runs the seeded workload into a fresh engine, stages the
    store so the target structure exists, injects one seeded corruption
    ({!Plan.inject_corruption}) cycling over the four targets and both
    damage modes, and demands the stack answers for it. PM-table and
    SSTable points read every golden key back before the injection and
    again after it, before any scrub: those foreground reads must be
    exact, typed-degraded, or inside a range they quarantined. Then the
    points are scrubbed live: the damage must appear in the scrub report
    (or have been quarantined by the foreground reads) and the salvaged
    engine must serve only exact, typed-degraded, or recorded-lost
    answers. WAL and manifest points additionally pull
    the plug and recover: recovery must survive — skipping and counting
    corrupt WAL records, falling back to the previous manifest slot — and
    the recovered engine is held to the same no-crash /
    no-silent-wrong-answer bar ({!Checker.check_corruption}).

    Same seed, same config -> the same victim bytes, the same failure. *)

type config = {
  seed : int;
  ops : int;
  keyspace : int;
  value_len : int;
  points : int;
  engine_config : Core.Config.t;
}

val config :
  ?seed:int ->
  ?ops:int ->
  ?keyspace:int ->
  ?value_len:int ->
  ?points:int ->
  Core.Config.t ->
  config
(** Defaults: seed 42, 300 ops over 64 keys, 24-byte values, 8 points
    (each target hit by both a bit flip and a zeroed range). Raises
    [Invalid_argument] unless the engine config is durable. *)

type point = {
  index : int;
  target : Plan.corruption_target;
  mode : Plan.corruption_mode;
  victim : string option;
      (** [None]: no eligible victim existed and the point was skipped *)
  detected : bool;
      (** the live scrub saw the damage, or a foreground read quarantined
          the victim first *)
  recovered : bool;  (** recovery survived (always true on live-only legs) *)
  violations : Checker.violation list;
}

type report = { points : point list; skipped : int; stats : Plan.stats }

val violation_count : report -> int

val clean : report -> bool
(** Every injected corruption was detected and every point recovered with
    zero violations. *)

val run_point : ?stats:Plan.stats -> config -> int -> point

val sweep : ?stats:Plan.stats -> ?progress:(point -> unit) -> config -> report
(** [progress] fires after each point (CLI live output). *)

val pp_point : point Fmt.t
val pp_report : report Fmt.t
