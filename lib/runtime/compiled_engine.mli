(** The emulation engine: the one implementation of the runtime
    protocol.

    This module {e compiles} one (workload x platform x policy) triple
    into a {!type:plan} — the run's {!Exec_model.t} (each distinct
    spec's topology and per-(node, PE) prices, the classes every engine
    reads) plus the specialised policy — and then {!val:run}s the
    workload manager and the per-PE resource managers (Figs. 3-4 of the
    paper) as an integer program-counter state machine over the
    classes' price rows, with no per-event closure allocation.  The
    machine runs over a {!type:substrate}: {!Des} (virtual clock, event
    heap, shared host cores and fabric ledger) for every deterministic
    run — {!Emulator}'s [Virtual] engine, {!Dssoc_explore.Sweep} and
    the resident server — and OCaml 5 domains for {!Native_engine}
    ({!val:run_on}).

    Every input takes this one path: any seed, jitter, reservation
    depth and policy, traced or not, fault plan or not.  The five
    built-in policies are specialised into the loop; any other policy
    is called through its closure with a {!Scheduler.context} over the
    ready window.  A fault plan ([?fault] on {!val:run}) turns on
    resilient dispatch: attempts consult the plan, failures are retried
    with capped backoff or abort the run, PEs are quarantined, recover
    or die (a dead PE's reservation queue drains back to the ready
    list).  That bookkeeping is {!Engine_core}'s own
    ({!Engine_core.handle_failure} and its siblings); the machine adds
    only what suspends.  Observability is lowered into the loop rather
    than interpreted: a traced run emits the event log and populates
    the metrics registry, while an untraced run pays only one
    predictable branch per hook site.

    The test suite's reference engine implements the same semantics
    independently (direct-style managers over effect threads on
    {!Des}); its differential matrix pins exact replay.

    Every run draws its arrivals from one source ({!type:service}): a
    batch run's is the fixed stream of its workload ({!val:fixed}),
    the resident server's ({!val:serve}) admits arrivals as they come,
    and a service run can resume from a checkpoint.  Either way an
    instance is built from its class when it arrives, and the DAG is
    read from the class ([tp_succ], [tp_entry]).

    The machine holds an instance as a {!Task.state}: a class index and
    one int array of node fields, no record per task.  A task is an int
    handle (its instance's slot and its node), which the ready list and
    the handlers' queues carry; each ready-list slot caches the task's
    price row, so the policy loops read prices without dereferencing
    any record.  Records are written into the report's columns
    ({!Stats.columns}).  A {!Task.t} is built only where something
    outside the machine reads one: a custom policy's ready window, and
    the instances {!val:run_detailed} and {!val:run_on} return.  A
    report-only batch run or a {!val:serve} run builds none.

    On {!Des}, neither compilation nor {!val:run} executes a kernel:
    the loop is timing only, and a report-only run's instances share
    one empty placeholder store.  {!val:run_detailed} gives each
    instance its own store (a copy of its class's initialised store),
    keeps every instance and fills the stores after the run with
    {!Functional}. *)

type plan

val compile :
  config:Dssoc_soc.Config.t ->
  workload:Dssoc_apps.Workload.t ->
  policy:Scheduler.policy ->
  unit ->
  plan
(** Lower the triple into a plan.  The plan is immutable apart from
    internal scratch buffers: it can be kept, reused and interleaved
    with other plans — every {!val:run} starts from fresh instances.
    Observability is a per-run concern ([?obs] on {!val:run} /
    {!val:run_detailed}), and so is a fault plan: a plan stays a pure
    function of the triple.
    @raise Invalid_argument when some task supports no PE of the
    configuration or its kernel does not resolve on one of them (same
    validation as the native engine), or when a fabric latency
    overflows ({!Dssoc_soc.Fabric.fixed_ns}). *)

val compile_specs :
  config:Dssoc_soc.Config.t ->
  specs:Dssoc_apps.App_spec.t list ->
  policy:Scheduler.policy ->
  unit ->
  plan
(** A plan with no workload, for a resident service ({!val:serve})
    that builds its instances one at a time: class [k] of {!model} is
    the [k]-th spec's ({!Exec_model.lower_specs}).  Validation and
    exceptions are {!compile}'s. *)

val model : plan -> Exec_model.t
(** The plan's lowering. *)

val run :
  ?obs:Dssoc_obs.Obs.t ->
  ?fault:Dssoc_fault.Fault.plan ->
  plan ->
  Engine_core.params ->
  Stats.report
(** Execute one emulation of the plan over {!val:fixed} and assemble
    the report.  With
    [?obs], also emit the event log and metrics.  [fault] (default
    none) injects the plan's deterministic fault schedule and turns on
    resilient dispatch; the report's [verdict] and [resilience] fields
    record the outcome.
    @raise Invalid_argument when a fault rule targets no PE. *)

val run_detailed :
  ?obs:Dssoc_obs.Obs.t ->
  ?fault:Dssoc_fault.Fault.plan ->
  plan ->
  Engine_core.params ->
  Stats.report * Task.instance array
(** Like {!val:run}, but each instance gets its own store and the run
    keeps them all (an aborted run's arrivals never injected too),
    returning them in id order, as task records built from their final
    states ({!Exec_model.instance_of_state}), with their final stores
    ({!Functional.fill_stores}) for functional inspection. *)

(** {1 Substrates}

    The machine runs over a substrate: the clock, the blocking calls
    and the execution of a task, built once per run.  {!Des} is the
    substrate of every run above (and of {!serve}); {!Native_engine}
    builds one over OCaml 5 domains.  Threads are known by index:
    resource manager [i] is thread [i], the workload manager thread
    [n_pes].  A blocking call returns [true] when it suspended the
    thread, which the machine then resumes at [on_resume]; a substrate
    whose calls block the calling domain returns [false], and each
    thread's life is then one chain of tail calls from [on_start]. *)

type substrate = {
  s_now : unit -> int;  (** the clock, ns *)
  s_work : int -> int -> bool;
      (** [s_work th ns]: modelled work on the thread's host core (DMA
          that bypasses the fabric, WM costs); native: nothing *)
  s_sleep : int -> int -> bool;  (** [s_sleep th ns]: plain delay *)
  s_stream : int -> bytes:int -> int -> bool;
      (** [s_stream th ~bytes ns]: one DMA stream of [ns] link service,
          stalling while the fabric FIFO is full *)
  s_await : int -> bool;  (** block the thread until it is signalled *)
  s_await_until : int -> int -> bool;
      (** {!s_await}, also waking at the absolute time given *)
  s_signal : int -> unit;  (** wake the thread, or leave the signal pending *)
  s_lock : Engine_core.handler -> unit;
      (** held around every touch of the handler's queues and [h_stop] *)
  s_unlock : Engine_core.handler -> unit;
  s_jitter : int -> int -> int;  (** [s_jitter th ns]: one {!Engine_core.jittered} draw *)
  s_cpu : int -> Task.state -> int -> int -> bool;
      (** [s_cpu pe st j ns]: execute node [j] of the instance on CPU
          [pe], modelled at [ns] *)
  s_compute : int -> Task.state -> int -> int -> bool;
      (** [s_compute pe st j ns]: its device compute on accelerator [pe] *)
  s_charge : float -> bool;
      (** account WM bookkeeping, ns on the reference overlay core *)
  s_mark : unit -> int;  (** a token taken before a policy call and at a WM tick's top *)
  s_sched_done : int -> ready:int -> ops:int -> int;
      (** a policy call's cost, ns, which the WM then {!s_work}s *)
  s_tick_end : int -> busy:bool -> unit;
      (** close a WM tick, given its top's token; [busy] unless it
          started no scheduling round (it found nothing to do) *)
  s_counters : Engine_core.fabric_counters;  (** fabric contention so far *)
  s_run : on_start:(int -> unit) -> on_resume:(int -> unit) -> unit;
      (** run every thread to its end: [on_start th] starts thread
          [th], [on_resume th] continues a suspended one *)
}

val run_on :
  ?obs:Dssoc_obs.Obs.t ->
  ?fault:Dssoc_fault.Fault.plan ->
  config:Dssoc_soc.Config.t ->
  policy:Scheduler.policy ->
  Exec_model.t ->
  Engine_core.params ->
  (Engine_core.handler array -> Engine_core.wm_stats -> substrate) ->
  Stats.report * Task.instance array
(** {!val:run_detailed} of the lowering's workload, without
    {!Functional}, on the substrate the function builds, given the
    run's handlers and statistics once the engine's metrics are
    registered.  The engine PRNG (the RANDOM policy's) is seeded from
    [params].  Exceptions from the substrate's [s_run] propagate. *)

(** {1 Arrival sources}

    The workload manager injects instances from one source.  The source
    decides {e which} instances enter the run and when (a fixed stream,
    or a resident service's admission control, open-loop arrivals and
    watchdog); the workload manager keeps owning the ready list,
    dispatch and completion monitoring.  The engine holds an instance
    only from its injection to its completion or cancellation. *)

type service_ops = {
  so_inject : Task.state -> int;
      (** admit one instance now: emits the injection event, makes its
          entry tasks ready; returns how many tasks that was *)
  so_cancel : Task.state -> bool;
      (** watchdog abort, unless a task of the instance is Running (an
          in-flight task drains naturally first): the engine forgets the
          instance, withdrawing its Ready tasks from the ready list and
          its retries from the backoff queue, so none of its tasks runs
          again; [true] when it did *)
  so_ready_live : unit -> int;  (** ready-list length *)
  so_inflight : unit -> int;  (** dispatched-but-unmonitored count *)
  so_completed : unit -> int;
      (** instances completed so far in this run (cancelled ones never
          complete): a source can skip its completion harvest while
          this has not moved *)
}

type service = {
  sv_tick : service_ops -> now:int -> int;
      (** the injection step of every WM tick: inject the arrivals due
          (for a service, after admission control, completion
          harvesting and the watchdog); returns the number of tasks
          made ready (charged as one injection burst) *)
  sv_next : now:int -> int option;
      (** next source deadline (arrival or watchdog expiry), strictly
          in the future; [None] when only completions can wake the WM *)
  sv_finished : service_ops -> now:int -> bool;
      (** termination test, evaluated at the end of every tick *)
  sv_unarrived : unit -> int Seq.t;
      (** the classes (of {!model}) of the arrivals not injected yet,
          in instance-id order: under a fault plan, a PE death that
          leaves a task of one of them with no surviving PE aborts the
          run.  Only read when a PE dies. *)
}

val fixed : Exec_model.t -> service
(** The source of a batch run: workload item [i] is built as instance
    [i] ({!Exec_model.state}, task ids dense from 0 in item order)
    at the first tick at or after its arrival, and the run finishes
    once all have completed.  The instances share one empty
    placeholder store and the source keeps none, so each lives only
    from injection to completion. *)

(** At a quiescent instant (empty ready list, nothing in flight) the
    only engine state that matters for the future of a run is the
    virtual clock, the engine PRNG and the per-handler scheduling
    horizon — captured in {!resume_state}. *)

type handler_snapshot = { hs_busy_until : int; hs_busy_ns : int; hs_tasks_run : int }

type resume_state = {
  rs_clock : int;  (** virtual time of the quiescent instant *)
  rs_prng : int64 * int64 * int64 * int64;  (** {!Dssoc_util.Prng.state} *)
  rs_handlers : handler_snapshot array;  (** in placement order *)
}

type service_run = {
  sr_prng : int64 * int64 * int64 * int64;  (** engine PRNG state at the end *)
  sr_handlers : handler_snapshot array;
  sr_aborted : string option;  (** the fault plan's abort reason, if the run aborted *)
}

val serve :
  ?obs:Dssoc_obs.Obs.t ->
  ?fault:Dssoc_fault.Fault.plan ->
  ?resume:resume_state ->
  plan ->
  Engine_core.params ->
  service ->
  service_run
(** Run the workload manager over a source's arrivals, keeping no
    per-task records.  A resident service builds its instances itself,
    when it admits them, from the plan's classes ({!Exec_model.state}
    over {!model}; a shared placeholder store will do); ids are the
    source's, and the engine only reports them in events.  The engine
    keeps no array indexed by instance or task id, so a run's memory
    follows its instances in flight, not its window.  [fault] is
    {!val:run}'s; an aborted run stops once in-flight work has drained
    and reports its reason in [sr_aborted].  With [resume] the clock,
    engine PRNG and handler horizons start from the checkpointed values
    and the workload manager starts with the await on [sv_next] instead
    of a tick, reproducing the uninterrupted run's trajectory exactly.
    @raise Invalid_argument on a PE-count mismatch with [resume], or
    when a fault rule targets no PE. *)
