(* A sweep row read from an observation bundle, as the sweep once read
   every row: the point runs traced, with a metrics registry and an
   event log; the queueing columns come from the registry's gauges and
   histograms and the critical-path columns from the analysis of the
   log.  The sweep now reads every column from one
   untraced run's report ([Sweep.row_of_report]); this is the
   reference it is compared with. *)

module Obs = Dssoc_obs.Obs
module Analyze = Dssoc_obs.Analyze
module Stats = Dssoc_runtime.Stats
module Scheduler = Dssoc_runtime.Scheduler
module Compiled_engine = Dssoc_runtime.Compiled_engine
module Engine_core = Dssoc_runtime.Engine_core
module Grid = Dssoc_explore.Grid
module Sweep = Dssoc_explore.Sweep

(* [None] when the run refuses the point (the sweep records an aborted
   row for it). *)
let row (grid : Grid.t) (p : Grid.point) =
  let metrics = Obs.Metrics.create () in
  let obs = Obs.make ~sink:(Obs.Sink.ring ()) ~metrics () in
  match
    let plan =
      Compiled_engine.compile ~config:p.Grid.config ~workload:p.Grid.workload
        ~policy:(Result.get_ok (Scheduler.find p.Grid.policy))
        ()
    in
    Compiled_engine.run ~obs ?fault:grid.Grid.fault plan
      {
        Engine_core.seed = p.Grid.seed;
        jitter = grid.Grid.jitter;
        reservation_depth = grid.Grid.reservation_depth;
      }
  with
  | exception Invalid_argument _ -> None
  | r ->
    let gauge_max name =
      match Obs.Metrics.find_gauge metrics name with
      | Some g -> Obs.Metrics.gauge_max g
      | None -> 0
    in
    let hist f name =
      match Obs.Metrics.find_histogram metrics name with
      | Some h -> Option.value ~default:0.0 (f h)
      | None -> 0.0
    in
    let cp = Analyze.critical_path (Analyze.of_events (Obs.recorded_events obs)) in
    Some
      {
        Sweep.index = p.Grid.index;
        config = p.Grid.config_label;
        policy = p.Grid.policy;
        workload = p.Grid.wl_label;
        replicate = p.Grid.replicate;
        seed = p.Grid.seed;
        makespan_ns = r.Stats.makespan_ns;
        job_count = r.Stats.job_count;
        task_count = r.Stats.task_count;
        sched_invocations = r.Stats.sched_invocations;
        sched_ns = r.Stats.sched_ns;
        wm_overhead_ns = r.Stats.wm_overhead_ns;
        busy_energy_mj = Stats.total_busy_energy_mj r;
        energy_mj = Stats.total_energy_mj r;
        max_ready_depth = gauge_max "ready_queue_depth";
        max_inflight = gauge_max "in_flight_tasks";
        mean_wait_us = hist Obs.Metrics.histogram_mean "task_wait_us";
        p95_service_us = hist (fun h -> Obs.Metrics.histogram_quantile h 0.95) "task_service_us";
        util_by_kind = Stats.mean_utilization_by_kind r;
        verdict = r.Stats.verdict;
        completed_fraction = Stats.completed_fraction r;
        task_retries = r.Stats.resilience.Stats.task_retries;
        fabric_stall_ns = r.Stats.fabric.Stats.fabric_stall_ns;
        crit_path_us = float_of_int cp.Analyze.cp_length_ns /. 1e3;
        crit_path_dma_frac = cp.Analyze.cp_dma_frac;
      }
