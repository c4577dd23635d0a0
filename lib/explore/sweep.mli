(** Parallel design-space sweep engine.

    Evaluates every point of a {!Grid.t} through the deterministic
    engine ({!Dssoc_runtime.Compiled_engine}), sharding points across a {!Pool} of OCaml 5
    domains, and aggregates the per-point reports into a result table
    in point-enumeration order.

    Determinism contract: the same grid produces bit-identical rows —
    and therefore byte-identical {!to_csv}/{!to_json} output — for
    any worker count, because every point's randomness comes from its
    own index-derived seed and result slots are written by index.
    The contract extends across processes and hosts: a point's result
    is content-addressed by {!point_digest} and may be served from a
    {!Cache.t} instead of being recomputed, and index shards
    ([?shard]) of one grid computed by separate processes merge
    ({!of_cache}) into a table byte-identical to a single-process
    run. *)

type row = {
  index : int;
  config : string;
  policy : string;
  workload : string;
  replicate : int;
  seed : int64;
  makespan_ns : int;
  job_count : int;
  task_count : int;
  sched_invocations : int;
  sched_ns : int;
  wm_overhead_ns : int;
  busy_energy_mj : float;
  energy_mj : float;
  max_ready_depth : int;  (** peak live ready-queue depth *)
  max_inflight : int;  (** peak dispatched-but-unmonitored task count *)
  mean_wait_us : float;  (** mean ready-to-dispatch latency over every dispatch *)
  p95_service_us : float;  (** p95 dispatch-to-completion latency of the completed tasks *)
  util_by_kind : (string * float) list;  (** mean utilisation per PE kind, sorted by kind *)
  verdict : Dssoc_runtime.Stats.verdict;
      (** [Completed] on fault-free grids; under a grid fault plan,
          whether the point completed, degraded or aborted *)
  completed_fraction : float;  (** tasks completed / tasks injected, 1.0 when fault-free *)
  task_retries : int;  (** resilient-dispatch retries (0 when fault-free) *)
  fabric_stall_ns : int;
      (** total ns DMA streams spent queued for a full interconnect
          FIFO (0 under {!Dssoc_soc.Fabric.Ideal}) *)
  crit_path_us : float;
      (** realized critical-path length over the task records
          ({!Dssoc_runtime.Stats.critical_path}) — equal to the
          makespan by construction; the interesting signal is its
          decomposition, below *)
  crit_path_dma_frac : float;
      (** fraction of the critical path spent in accelerator DMA
          phases — how interconnect-bound the binding chain is *)
}

type table = { grid_label : string; rows : row list  (** in point order *) }

type engine_kind = [ `Virtual | `Compiled ]
(** The engine name a sweep was asked for.  Both names evaluate points
    on the one deterministic engine; the name still keys the result
    cache ({!point_digest}), so shards written under either name stay
    valid. *)

val engine_name : engine_kind -> string

(** {1 Content addressing} *)

val point_digest : engine:engine_kind -> code_rev:string -> Grid.t -> Grid.point -> string
(** Stable digest of everything a point's row depends on: engine,
    [code_rev], platform configuration (structure, not just label),
    interconnect fabric, policy, the fully-instantiated workload
    trace, seed, jitter, reservation depth and the grid fault plan.
    Deliberately excludes the point index, so a grid grown with more
    replicates or cells re-uses every previously cached row.  The
    format tag is [dssoc-sweep-row/v3] (rows grew the critical-path
    columns and compiled points now carry real observability columns);
    v1/v2 rows never collide with v3 rows. *)

val row_payload : row -> string
(** Single-line JSON encoding of a row, floats as hex-float strings —
    {!row_of_payload} restores bit-identical values, so a cached row
    re-renders byte-identically in {!to_csv}. *)

val row_of_payload : string -> (row, string) result

(** {1 Running} *)

type stats = {
  points : int;  (** points this run covered (after shard filtering) *)
  cache_hits : int;
  cache_misses : int;  (** points actually evaluated *)
  plan_compiles : int;  (** plans compiled ({!Dssoc_runtime.Compiled_engine.compile}) *)
  plan_reuses : int;  (** points served by a memoized plan *)
  elapsed_ns : int;  (** wall clock, {!Dssoc_util.Mclock} *)
}

val run_stats :
  ?jobs:int ->
  ?engine:engine_kind ->
  ?cache:Cache.t ->
  ?shard:int * int ->
  ?on_row:(row -> unit) ->
  Grid.t ->
  table * stats
(** Evaluate the grid on [jobs] domains (default
    {!Pool.default_jobs}; clamped to at least 1).

    [engine] names the engine (default [`Virtual]); it keys the cache
    and nothing else.  Each grid cell is lowered through
    {!Dssoc_runtime.Compiled_engine} once per (config x policy x
    workload) per worker domain, and the plan is replayed for every
    replicate, under the grid fault plan if any (counted in [stats]).
    Runs are traced through the lowered observability hooks, which
    fill the metrics-derived [max_ready_depth], [max_inflight],
    [mean_wait_us], [p95_service_us] and the analytics-derived
    [crit_path_us], [crit_path_dma_frac] columns.

    [cache] consults the content-addressed store before evaluating a
    point and appends every newly computed row to it (flushed before
    returning), making warm re-sweeps near-free and aborted sweeps
    resumable.  [shard (i, n)] restricts the run to the deterministic
    index shard [{p | p.index mod n = i}] — combined with a cache,
    [n] separate processes cover the grid and {!of_cache} reassembles
    the full table.  [on_row] is called once per finished row
    (cached or computed), serialized but in completion order — the
    hook for streaming rows to disk as they complete.

    @raise Invalid_argument when a point's workload cannot run on its
    configuration (reported for the lowest failing point index,
    independent of worker count), or on a shard index outside
    [0 <= i < n]. *)

val run :
  ?jobs:int ->
  ?engine:engine_kind ->
  ?cache:Cache.t ->
  ?shard:int * int ->
  ?on_row:(row -> unit) ->
  Grid.t ->
  table
(** {!run_stats} without the stats. *)

val run_timed : ?jobs:int -> ?engine:engine_kind -> Grid.t -> table * int
(** [run] plus wall-clock nanoseconds ({!Dssoc_util.Mclock}) — kept
    out of {!table} so result tables stay byte-comparable across runs
    and worker counts. *)

val run_point : engine_kind:engine_kind -> Grid.t -> Grid.point -> row
(** Evaluate a single point (the unit of work {!run} shards); the
    engine name does not change the row.  A point is one untraced run:
    its row is read from that run's report: its counters, the
    ready-list, in-flight and wait figures the workload manager kept,
    the p95 of the records' service times and the critical path over
    the records ({!Dssoc_runtime.Stats.critical_path}). *)

val of_cache : ?engine:engine_kind -> cache:Cache.t -> Grid.t -> (table, string) result
(** Reassemble the grid's full table purely from cached rows — the
    [--merge] path joining shard stores.  [Error] describes missing
    points (some shard has not finished) or a corrupt row; no point is
    ever evaluated. *)

(** {1 Adaptive exploration} *)

type adaptive = {
  a_table : table;  (** every evaluated row, in point order *)
  a_frontier : row list;  (** rows on the final Pareto frontier, in point order *)
  a_exhaustive_points : int;  (** what {!run} would have evaluated *)
  a_survivors : int list;  (** arms alive after the last rung *)
  a_rungs : Frontier.rung list;
  a_stats : stats;
}

val arm_cell : Grid.t -> int -> string * string * string
(** [(config_label, policy, wl_label)] of an arm index (a grid cell in
    enumeration order). *)

val objectives_of_row : row -> Frontier.objectives
(** The sweep's three-objective view of a row.  An [Aborted] row maps
    to the worst possible vector so it can never sit on a frontier. *)

val run_adaptive :
  ?jobs:int ->
  ?engine:engine_kind ->
  ?cache:Cache.t ->
  ?on_row:(row -> unit) ->
  Grid.t ->
  adaptive
(** Successive-halving sweep ({!Frontier.successive_halving}): each
    (config x policy x workload) cell is an arm, replicates are the
    rung budget, and dominated arms are pruned between rungs — never
    an arm owning a current-frontier point.  Deterministic: the
    promotion order derives from [grid.base_seed], and arm [a]'s
    replicate [r] is exactly grid point [a * replicates + r], so
    adaptive runs share cache entries with exhaustive runs of the same
    grid. *)

(** {1 Serialization} *)

val csv_header : string

val csv_row : row -> string
(** One CSV line (no newline) — the streaming unit behind [--out]. *)

val to_csv : table -> string
(** One line per point; floats rendered with fixed precision; string
    fields RFC 4180-escaped via {!Dssoc_stats.Table.csv_field}. *)

val to_json : table -> Dssoc_json.Json.t

val pp : Format.formatter -> table -> unit
(** Human-readable per-point table. *)

type summary = {
  s_config : string;
  s_policy : string;
  s_workload : string;
  n : int;  (** replicates aggregated *)
  makespan_ms : Dssoc_stats.Quantile.boxplot;
  mean_energy_mj : float;
  mean_util_by_kind : (string * float) list;
}

val summarize : table -> summary list
(** Collapse replicates: one summary per (config, policy, workload)
    cell, in grid order. *)

val pp_summary : Format.formatter -> table -> unit
