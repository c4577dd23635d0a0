(** The shared engine core: the workload-manager / resource-handler
    protocol in direct style, and the pieces every engine shares.

    The paper's runtime contract (Sections II-B/II-C, Figs. 3-4) is a
    single protocol: a workload manager injects arriving application
    instances, maintains the ready-task list, invokes a scheduling
    policy over a snapshot of ready tasks and PE states, dispatches
    assignments through per-PE resource handlers, and monitors their
    completions; each resource handler runs an [idle]/[run]/[complete]/
    [stop] state machine that executes dispatched tasks on its PE.

    This module implements that protocol in direct style,
    parameterized over a small {!type:backend} record — how to read
    the clock, block and wake the two kinds of actors, charge modelled
    workload-manager overhead, and actually execute a task on a PE.
    The native engine instantiates it over OCaml 5 domains
    (mutex/condvar, monotonic wall clock); the test suite's reference
    engine instantiates it over effect threads on {!Des}.  The
    deterministic engine, {!Compiled_engine}, replays the same protocol
    as an integer-pc machine and calls the non-suspending pieces it
    shares with {!workload_manager} — handlers, statistics, jitter,
    report assembly and the resilient-dispatch bookkeeping — from here.
    The resident server's arrival source plugs in there
    ({!Compiled_engine.serve}), not here. *)

(** {1 Parameters} *)

type params = {
  seed : int64;
      (** root of all engine randomness: execution-time jitter and the
          RANDOM policy's draws (both engines), equal seeds giving
          equal deterministic runs bit-for-bit *)
  jitter : float;
      (** stddev of the multiplicative Gaussian noise on modelled task
          times; [0.] gives perfectly repeatable deterministic runs, the
          default [0.03] gives the spread the paper's Fig. 9 box plots
          show across 50 iterations on real hardware.  The native
          engine applies it to the modelled device-compute sleep of
          accelerator PEs (its CPU kernels run for real and cannot be
          jittered). *)
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

val jittered : Dssoc_util.Prng.t -> jitter:float -> int -> int
(** Multiplicative Gaussian noise on a modelled duration: one
    [gaussian ~mu:1.0 ~sigma:jitter] draw, factor clamped below at
    0.1, result at 1 ns.  [jitter <= 0.] (or a non-positive duration)
    draws nothing and returns the input unchanged. *)

(** {1 Resource handlers} *)

type 'h handler = {
  h_pe : Dssoc_soc.Pe.t;
  h_index : int;  (** this handler's PE index (column of the price classes) *)
  h_capacity : int;  (** 1 + reservation-queue depth (1 = the paper's baseline) *)
  h_pending : Task.t Queue.t;  (** dispatched by the WM, not yet executed *)
  h_completed : Task.t Queue.t;  (** executed, awaiting WM bookkeeping *)
  mutable h_inflight : int;  (** pending + currently executing; WM-owned *)
  mutable h_stop : bool;
  mutable h_busy_ns : int;  (** occupancy (execution time), not queue residence *)
  mutable h_tasks_run : int;
  mutable h_busy_until : int;  (** EFT availability horizon; WM-owned *)
  mutable h_quarantined_until : int;
      (** fault state: 0 = healthy, [max_int] = permanently dead, else
          the emulation time the quarantine lifts; WM-owned *)
  h_backend : 'h;  (** backend-private per-handler state *)
}
(** One per PE.  The queues and [h_stop] are shared between the
    workload manager and the handler's resource manager and must only
    be touched under the backend's {!field:b_lock} (a no-op for the
    single-threaded deterministic engines); [h_inflight], [h_busy_until] and
    [h_quarantined_until] are written by the workload manager only,
    [h_busy_ns] and [h_tasks_run] by the resource manager only (read
    after join). *)

val make_handler :
  pe:Dssoc_soc.Pe.t -> index:int -> reservation_depth:int -> 'h -> 'h handler
(** Fresh idle handler with [h_capacity = 1 + max 0 reservation_depth]. *)

(** {1 Statistics accumulator} *)

type wm_stats = {
  mutable sched_invocations : int;
  mutable sched_ns : int;  (** modelled (virtual) or measured (native) *)
  mutable wm_ns : int;
  mutable records : Stats.task_record list;  (** newest first *)
  mutable faults : int;  (** failed or slowed execution attempts *)
  mutable retries : int;
  mutable quarantines : int;
  mutable pe_deaths : int;
  mutable aborted : string option;  (** first abort reason, if any *)
}

val make_stats : unit -> wm_stats

type fabric_counters = {
  mutable fc_streams : int;  (** DMA streams routed through the fabric *)
  mutable fc_stalls : int;  (** admissions that found the FIFO full *)
  mutable fc_stall_ns : int;  (** total time initiators spent queued *)
  mutable fc_max_inflight : int;  (** peak concurrent in-flight streams *)
}
(** Fabric contention accumulator, all zero under {!Dssoc_soc.Fabric.Ideal}.
    Virtual/compiled mutate it from the single event-loop thread; the
    native engine guards it with its fabric mutex. *)

val make_fabric_counters : unit -> fabric_counters

(** {1 Backends} *)

type 'h backend = {
  b_now : unit -> int;
      (** current time, ns: virtual clock or monotonic wall clock *)
  b_lock : 'h handler -> unit;  (** no-op when the backend is single-threaded *)
  b_unlock : 'h handler -> unit;
  b_handler_await : 'h handler -> unit;
      (** resource-manager side, called with the handler locked:
          return (lock re-held) once [h_stop] is set or work may be
          pending *)
  b_notify_handler : 'h handler -> unit;
      (** workload-manager side, called with the handler locked, after
          enqueueing work or setting [h_stop] *)
  b_wm_await : deadline:int option -> unit;
      (** workload-manager side: block until a completion notification
          or the absolute deadline (next instance arrival); a polling
          backend may return immediately *)
  b_notify_wm : unit -> unit;
      (** resource-manager side: a completion awaits monitoring (no-op
          for a polling backend) *)
  b_charge : float -> unit;
      (** account modelled workload-manager bookkeeping cost
          (monitoring, ready-list updates, dispatch), ns on the
          reference overlay core; a discrete-event backend scales it and
          occupies the overlay core, the native backend ignores it
          (its loop costs real time instead) *)
  b_execute : 'h handler -> Task.t -> unit;
      (** run one task on this handler's PE, returning when it is
          complete, priced from the run's {!Exec_model.t}; called
          without the handler lock.  Only the native backend runs the
          kernel. *)
  b_delay : 'h handler -> int -> unit;
      (** occupy the handler's PE for a modelled duration (ns) without
          running a kernel — fault-detection latency and slowdown
          tails; called without the handler lock.  A discrete-event backend
          advances its clock, the native backend sleeps scaled wall
          time. *)
  b_sched_start : unit -> int;
      (** opaque token taken immediately before a policy invocation *)
  b_sched_done : int -> ready:int -> ops:int -> int;
      (** close a policy invocation: given the token, the {e live}
          ready-list length and the policy's recorded elementary
          operations, return the scheduling cost (ns) to record —
          modelled ({!Scheduler.overhead_ns}, charged on the overlay
          core) for a discrete-event backend, measured wall time for the
          native one *)
  b_wm_tick_start : unit -> int;
  b_wm_tick_end : int -> unit;
      (** bracket one workload-manager loop iteration, for backends
          that measure (rather than charge) manager overhead *)
}

(** {1 The protocol} *)

val compile_fault :
  Dssoc_fault.Fault.plan option -> handlers:'h handler array -> Dssoc_fault.Fault.t
(** Compile a fault plan against the run's PE array ([None] gives
    {!Dssoc_fault.Fault.disabled}); shared by both backends so they
    replay identical fault schedules.
    @raise Invalid_argument when a rule targets no PE (surfaced by
    [Emulator.run] as an [Error]). *)

val resource_manager :
  ?obs:Dssoc_obs.Obs.t ->
  ?fault:Dssoc_fault.Fault.t ->
  model:Exec_model.t ->
  'h backend ->
  'h handler ->
  unit
(** The per-PE resource-manager body (Fig. 4): await dispatch, drain
    the pending queue — executing each task via {!field:b_execute},
    timestamping completion, accounting occupancy, parking the task on
    the completed queue and notifying the workload manager — then wait
    again; exit when [h_stop] is set.  Each engine runs one instance
    per handler on its own thread abstraction (spawned effect thread /
    domain).  With [obs] and a reservation queue, each pop from the
    pending queue emits a [Reservation_popped] event (sink only — this
    may run off the WM thread).

    With [fault], every attempt first consults {!Dssoc_fault.Fault.decide},
    which scales failure-detection latencies by the task's [model]
    estimate on this PE: a failing attempt occupies the PE for the modelled detection time
    but never reaches {!field:b_execute} (where the native backend runs
    the kernel, in place, so its outputs stay identical with and
    without retries), then parks the task with [last_failure] set for
    the workload manager to process.  Slowdowns execute once and
    append a modelled delay. *)

val workload_manager :
  ?obs:Dssoc_obs.Obs.t ->
  ?fault:Dssoc_fault.Fault.t ->
  'h backend ->
  handlers:'h handler array ->
  instances:Task.instance array ->
  model:Exec_model.t ->
  policy:Scheduler.policy ->
  prng:Dssoc_util.Prng.t ->
  stats:wm_stats ->
  unit
(** The workload-manager loop (Fig. 3): monitor completions (releasing
    successors and charging per-PE monitoring cost), inject arrived
    instances, and invoke the policy over a snapshot of the ready
    window and PE states ({!Scheduler.context}, whose estimates come
    from [model]'s classes) — once per completion at capacity 1, as
    the paper prescribes, or batched per sweep when reservation queues
    are configured.  The ready list is an array FIFO that deletes
    dispatched entries lazily; the charged O(n)/O(n²) policy cost
    follows a live-count accounting, not the FIFO's length, and a
    task listed twice (its stale entry revived by a retry) enters the
    snapshot once.  An assignment whose task is no longer Ready (a
    custom policy listed it twice) or whose PE does not exist or does
    not support the task is dropped, uncharged.  Returns once every
    instance has completed and all handlers have been told to stop.

    With [obs] (default {!Dssoc_obs.Obs.disabled}, a guaranteed no-op)
    the loop emits injection / ready / scheduler-invocation / dispatch
    / completion / reservation / WM-tick events and updates the engine
    metrics (ready-queue depth, in-flight count, per-PE queue depth,
    wait and service latency, scheduling cost) — all from this thread,
    timestamped with [b_now].

    With [fault] the loop becomes resilient: failed attempts are
    counted and retried with capped exponential backoff under a
    per-task attempt budget; failing PEs are quarantined (policies see
    them as unavailable) with timed recovery for transients and
    permanent removal for deaths — a dead PE's reservation queue
    drains back to the ready list and its tasks re-dispatch onto
    surviving PEs from their [platforms] lists; planned deaths fire
    proactively at their scheduled emulation time.  The run aborts
    (recorded in [stats.aborted], stopping dispatch and injection and
    draining in-flight work) when a task exhausts its attempt budget
    or loses every supporting PE. *)

(** {1 Resilient dispatch}

    The fault bookkeeping that never suspends, shared by
    {!workload_manager} and {!Compiled_engine}'s machine so that both
    run one implementation of it.  Each engine keeps only what
    suspends: the modelled PE time of an attempt and its own ready
    list. *)

val decide_attempt :
  fault:Dssoc_fault.Fault.t ->
  obs:Dssoc_obs.Obs.t ->
  'h handler ->
  Task.t ->
  now:int ->
  est_ns:int ->
  Dssoc_fault.Fault.decision
(** Consult the plan at the start of an attempt ({!Dssoc_fault.Fault.decide}
    for the task's current attempt): emits [Fault_injected] for a
    slowdown or failure and marks a failing task's [last_failure]. *)

type 'h resilience
(** A run's fault state: the compiled plan and the retry queue, plus
    the workload manager's pieces it updates. *)

val resilience :
  fault:Dssoc_fault.Fault.t ->
  obs:Dssoc_obs.Obs.t ->
  stats:wm_stats ->
  handlers:'h handler array ->
  unfinished:(unit -> (string * Dssoc_apps.App_spec.node) Seq.t) ->
  inflight:int ref ->
  make_ready:(Task.t -> unit) ->
  lock:('h handler -> unit) ->
  unlock:('h handler -> unit) ->
  'h resilience
(** [unfinished ()]: the app and node of every task that may still need
    a PE, in instance-id order, arrivals not injected yet included; a PE
    death aborts the run naming the first that no surviving PE supports.
    [inflight] is the workload manager's dispatched-but-unmonitored
    count, [make_ready] its ready-list insertion; [lock]/[unlock] guard
    a handler's pending queue while a dead PE's reservations drain. *)

val unfinished_nodes : Task.instance Seq.t -> (string * Dssoc_apps.App_spec.node) Seq.t
(** The app and node of each task not [Done], in order. *)

val handle_failure : 'h resilience -> 'h handler -> Task.t -> now:int -> bool
(** Monitor one completed attempt: [false] if it succeeded.  Otherwise
    clear its [last_failure], count the fault, kill or quarantine the
    PE as the failure dictates (a killed PE's reservation queue drains
    back to the ready list), then either queue a retry after a capped
    exponential backoff or abort the run (attempt budget spent, or no
    surviving PE supports the task), and return [true]. *)

val withdraw_retries : 'h resilience -> instance:int -> unit
(** Drop the instance's tasks that sleep out a retry backoff: a
    cancelled instance's retry is never released. *)

val pe_ok : 'h resilience -> 'h handler -> now:int -> bool
(** Neither quarantined nor at or past its planned death time. *)

val usable : 'h resilience -> 'h handler -> now:int -> bool
(** {!pe_ok} with room for one more dispatch. *)

val sweep_deaths : 'h resilience -> now:int -> unit
(** Kill every live PE whose planned death time has come. *)

val fault_tick : 'h resilience -> now:int -> bool
(** The fault timeline at the tail of a workload-manager iteration:
    {!sweep_deaths}, quarantine expiry, then the release of due
    retries (none once the run has aborted).  [true] when a PE
    recovered or a task was released, so a scheduling round follows. *)

val wm_deadline : 'h resilience -> int option -> int option
(** The workload manager's next wake-up under a plan: the earliest of
    the given deadline (the next arrival), the first retry release,
    and live PEs' quarantine lifts and planned deaths; [None] once the
    run has aborted (only in-flight completions wake it then). *)

(** {1 Report} *)

val report :
  host_name:string ->
  config:Dssoc_soc.Config.t ->
  policy:Scheduler.policy ->
  handlers:'h handler array ->
  instances:Task.instance array ->
  stats:wm_stats ->
  fabric:fabric_counters ->
  Stats.report
(** Assemble the run report: makespan, per-PE usage and energy,
    scheduling statistics, task records (oldest first), per-app
    latency summaries and fabric contention counters. *)
