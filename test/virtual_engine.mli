(** The differential suite's reference engine: the deterministic
    virtual-time engine in direct style.

    It runs direct-style workload and resource managers (defined here,
    over a small backend record) as effect threads bridged onto the
    same discrete-event substrate ({!Dssoc_runtime.Des}) that the
    production engine ({!Dssoc_runtime.Compiled_engine}'s integer-pc
    machine, which the native engine also runs) uses for every
    deterministic run.
    The two protocols are written independently, so an exact-replay
    test that compares them (same records CSV, report, stores, JSONL
    event log and [Metrics.pp]) checks the pc machine against a second
    implementation of one semantics rather than against itself.  What
    never suspends is shared code — handlers, statistics, jitter
    draws, report assembly and the resilient-dispatch bookkeeping —
    and the tests pin the last of these separately to digests.

    - Manager threads are lightweight processes (OCaml effects) placed
      on modelled host cores according to the configuration; a core
      running several processor-shares among them.
    - Every duration comes from the run's
      {!Dssoc_runtime.Exec_model.t}: CPU execution charges the
      estimate, accelerator execution splits into DMA-in / device
      compute / DMA-out, with the manager thread occupying its core
      only during the DMA phases.
    - The workload manager runs on the overlay core and is charged
      completion-monitoring, ready-list-update, scheduling and
      dispatch costs per loop iteration.
    - No kernel runs during the emulation; {!run_detailed} computes
      the output data afterwards with {!Dssoc_runtime.Functional}.

    All randomness (execution-time jitter, the RANDOM policy) flows
    from the seed. *)

type params = Dssoc_runtime.Engine_core.params = {
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
  policy:Dssoc_runtime.Scheduler.policy ->
  unit ->
  Dssoc_runtime.Stats.report
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
    (retries, quarantine, degradation — see
    {!Dssoc_runtime.Engine_core.handle_failure});
    the report's [verdict] and [resilience] fields record the outcome.
    Fault draws are keyed on the plan's own seed, not [params.seed].
    @raise Invalid_argument if some task supports no PE of the
    configuration, if a kernel does not resolve, if a fault rule
    targets no PE, or if a fabric price overflows
    ({!Dssoc_soc.Fabric.fixed_ns}) — all before the run starts
    ({!Dssoc_runtime.Exec_model.lower}). *)

val instantiate :
  Dssoc_runtime.Exec_model.t -> fresh_stores:bool -> Dssoc_runtime.Task.instance array
(** Every instance of the lowering's workload up front, as the
    reference runs them: item [i] is instance [i], task ids dense from
    0.  With [fresh_stores] each gets its own initialised store;
    otherwise all share one empty placeholder. *)

val run_detailed :
  ?params:params ->
  ?obs:Dssoc_obs.Obs.t ->
  ?fault:Dssoc_fault.Fault.plan ->
  config:Dssoc_soc.Config.t ->
  workload:Dssoc_apps.Workload.t ->
  policy:Dssoc_runtime.Scheduler.policy ->
  unit ->
  Dssoc_runtime.Stats.report * Dssoc_runtime.Task.instance array
(** Like {!run} but also returns the executed instances (in workload
    order) with their final variable stores, computed after the run
    by {!Dssoc_runtime.Functional.fill_stores} — the
    functional-verification path. *)
