(** Native emulation engine: the framework running for real.

    One OCaml 5 domain per PE plays the resource-manager thread; the
    calling domain plays the workload manager.  Both run the shared
    {!Engine_core} protocol — the very same workload-manager loop and
    resource-handler state machine as the virtual engine — over a
    backend of mutex/condvar handler queues, a polling manager loop
    and the monotonic wall clock ({!Dssoc_util.Mclock}).

    Kernels execute for real and times are wall-clock measurements, so
    results vary with the machine — this engine demonstrates the
    framework is a genuine user-space runtime and cross-checks the
    virtual engine's functional outputs.  Hardware accelerators do not
    exist on the host, so an accelerator PE performs its DMA phases as
    real buffer copies and emulates device compute with a timed sleep
    of the modelled duration (substitution documented in DESIGN.md).

    Because kernels and manager overheads are real, {!params} shapes
    rather than determines a native run: the seed drives the RANDOM
    policy and the jitter on modelled device-compute sleeps, and
    [reservation_depth] configures the same per-PE reservation queues
    as the virtual engine. *)

val default_params : Engine_core.params
(** seed 7, no jitter, no reservation queues (the engine's historical
    behavior). *)

val run :
  ?params:Engine_core.params ->
  ?obs:Dssoc_obs.Obs.t ->
  ?fault:Dssoc_fault.Fault.plan ->
  config:Dssoc_soc.Config.t ->
  workload:Dssoc_apps.Workload.t ->
  policy:Scheduler.policy ->
  unit ->
  Stats.report
(** Run to completion using real domains.

    [obs] (default {!Dssoc_obs.Obs.disabled}) receives the engine-core
    event stream and metrics, timestamped with the monotonic clock
    (ns since run start).  DMA and device-compute phase events are
    emitted from the handler domains (the sink is mutex-protected);
    metrics are only updated by the workload-manager domain.

    [fault] (default none) injects the plan's deterministic fault
    schedule — the same schedule the virtual engine replays for the
    same plan, since draws are keyed on (task, attempt) rather than
    timing — and turns on resilient dispatch (see
    {!Engine_core.workload_manager}).

    Whatever happens — including a policy or kernel exception — every
    handler domain is stopped and joined before this function returns
    or re-raises; a poisoned run leaks no domains.  A kernel that
    raises in a handler domain stops the workload manager at its next
    poll, and its exception is the one re-raised.
    @raise Invalid_argument if some task supports no PE of the
    configuration, if a kernel does not resolve, if a fabric price
    overflows, or if a fault rule targets no PE — all before any
    domain spawns. *)

val run_detailed :
  ?params:Engine_core.params ->
  ?obs:Dssoc_obs.Obs.t ->
  ?fault:Dssoc_fault.Fault.plan ->
  config:Dssoc_soc.Config.t ->
  workload:Dssoc_apps.Workload.t ->
  policy:Scheduler.policy ->
  unit ->
  Stats.report * Task.instance array
(** Like {!run} but also returns the executed instances so callers can
    inspect final variable stores. *)
