(** Deterministic virtual-time emulation engine.

    Reimplements the framework's three-component runtime (application
    handler, workload manager, resource managers) on top of a
    discrete-event simulation with a virtual nanosecond clock:

    - Manager threads are lightweight processes (OCaml effects) placed
      on modelled host cores according to the configuration (Section
      II-D).  A core running several manager threads processor-shares
      among them and pays a context-switch penalty, which reproduces
      the contention anomalies of Figs. 9 and 11.
    - Every duration comes from the run's {!Exec_model.t}, priced
      once per (node, PE) before the run: CPU task execution charges
      the estimate, scaled by the core class; accelerator execution
      splits into DMA-in / device compute / DMA-out, with the manager
      thread occupying its core only during the DMA phases (it
      "sleeps" while the device runs, as Section II-D describes).
    - The workload manager runs on the overlay core and is charged
      completion-monitoring, ready-list-update, scheduling and
      dispatch costs per loop iteration.
    - No kernel runs during the emulation: timing is pure in the cost
      metadata, and a report-only run's instances share one empty
      placeholder store.  {!run_detailed} gives each instance its own
      store and computes the real output data with {!Functional} from
      each task's recorded PE, so it stays checkable.

    Determinism: all randomness (execution-time jitter modelling
    run-to-run platform variance, and the RANDOM policy) flows from
    the seed.

    The workload-manager and resource-handler protocol itself lives in
    {!Engine_core}, and the discrete-event substrate (clock, event
    heap, processor-shared host cores, fabric ledger) in {!Des}, which
    the compiled engine shares.  This module only supplies the backend
    between them: effect threads that bridge the protocol's
    direct-style calls onto {!Des}, and modelled overhead charging. *)

type params = Engine_core.params = {
  seed : int64;
  jitter : float;
      (** stddev of the multiplicative Gaussian noise on modelled task
          times; [0.] gives perfectly repeatable runs, the default
          [0.03] gives the spread the paper's Fig. 9 box plots show
          across 50 iterations on real hardware *)
  reservation_depth : int;
      (** per-PE reservation-queue depth.  [0] reproduces the paper's
          released framework (no queues: the scheduler runs on every
          task completion and PEs stall until the next dispatch);
          [> 0] implements the future-work optimisation of Section
          III-C — the workload manager queues up to this many extra
          tasks on each PE and batches scheduling invocations, and the
          resource manager starts queued work without a round trip *)
}

val default_params : params
(** seed 1, jitter 0.03, no reservation queues. *)

val run :
  ?params:params ->
  ?obs:Dssoc_obs.Obs.t ->
  ?fault:Dssoc_fault.Fault.plan ->
  config:Dssoc_soc.Config.t ->
  workload:Dssoc_apps.Workload.t ->
  policy:Scheduler.policy ->
  unit ->
  Stats.report
(** Run the workload to completion and return the collected
    statistics.

    [obs] (default {!Dssoc_obs.Obs.disabled}) receives the engine-core
    event stream and metrics, timestamped with the virtual clock —
    event logs are therefore bit-identical for a given seed.  The
    backend additionally emits accelerator DMA-in / device-compute /
    DMA-out phase events and samples the event-heap depth gauge
    ([event_heap_depth]) once per WM tick.

    [fault] (default none) injects the plan's deterministic fault
    schedule and turns on the resilient-dispatch machinery
    (retries, quarantine, degradation — see {!Engine_core.workload_manager});
    the report's [verdict] and [resilience] fields record the outcome.
    Fault draws are keyed on the plan's own seed, not [params.seed].
    @raise Invalid_argument if some task supports no PE of the
    configuration, if a kernel does not resolve, if a fault rule
    targets no PE, or if a fabric price overflows
    ({!Dssoc_soc.Fabric.fixed_ns}) — all before the run starts
    ({!Exec_model.lower}). *)

val run_detailed :
  ?params:params ->
  ?obs:Dssoc_obs.Obs.t ->
  ?fault:Dssoc_fault.Fault.plan ->
  config:Dssoc_soc.Config.t ->
  workload:Dssoc_apps.Workload.t ->
  policy:Scheduler.policy ->
  unit ->
  Stats.report * Task.instance array
(** Like {!run} but also returns the executed instances (in workload
    order) with their final variable stores, computed after the run
    by {!Functional.fill_stores} — the functional-verification path. *)
