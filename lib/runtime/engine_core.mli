(** What every engine shares: the run parameters, the per-PE resource
    handlers, the statistics accumulators, the resilient-dispatch
    bookkeeping and report assembly.

    The paper's runtime contract (Sections II-B/II-C, Figs. 3-4) is a
    single protocol: a workload manager injects arriving application
    instances, maintains the ready-task list, invokes a scheduling
    policy over a snapshot of ready tasks and PE states, dispatches
    assignments through per-PE resource handlers, and monitors their
    completions; each resource handler runs an [idle]/[run]/[complete]/
    [stop] state machine that executes dispatched tasks on its PE.

    That protocol is written once, as {!Compiled_engine}'s integer-pc
    machine, which runs over a substrate: {!Des} for every
    deterministic run, OCaml 5 domains for {!Native_engine}.  This
    module holds the pieces of it that never suspend, which the
    machine calls; the test suite's reference engine (a direct-style
    workload manager and resource managers over effect threads on
    {!Des}) calls the same ones. *)

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

type handler = {
  h_pe : Dssoc_soc.Pe.t;
  h_index : int;  (** this handler's PE index (column of the price classes) *)
  h_capacity : int;  (** 1 + reservation-queue depth (1 = the paper's baseline) *)
  h_pending : int Queue.t;  (** dispatched by the WM, not yet executed *)
  h_completed : int Queue.t;  (** executed, awaiting WM bookkeeping *)
  mutable h_failed : (int * Dssoc_fault.Fault.failure * int) list;
      (** the completed attempts that failed and await the WM: the
          task, its failure and the quarantine to impose on the PE (ns;
          [max_int] = permanent).  Empty without a fault plan. *)
  mutable h_inflight : int;  (** pending + currently executing; WM-owned *)
  mutable h_stop : bool;
  mutable h_busy_ns : int;  (** occupancy (execution time), not queue residence *)
  mutable h_tasks_run : int;
  mutable h_busy_until : int;  (** EFT availability horizon; WM-owned *)
  mutable h_quarantined_until : int;
      (** fault state: 0 = healthy, [max_int] = permanently dead, else
          the emulation time the quarantine lifts; WM-owned *)
}
(** One per PE.  Tasks travel through the queues as ints, each engine
    its own handles (the pc machine's name an instance slot and a node,
    the reference engine's are task ids).  The queues, [h_failed] and
    [h_stop] are shared between the
    workload manager and the handler's resource manager and must only
    be touched under the substrate's per-handler lock (a no-op on
    {!Des}, whose event loop runs one thread at a time);
    [h_inflight], [h_busy_until] and [h_quarantined_until] are written
    by the workload manager only, [h_busy_ns] and [h_tasks_run] by the
    resource manager only (read after the run). *)

val make_handler : pe:Dssoc_soc.Pe.t -> index:int -> reservation_depth:int -> handler
(** Fresh idle handler with [h_capacity = 1 + max 0 reservation_depth]. *)

(** {1 Statistics accumulator} *)

type wm_stats = {
  mutable sched_invocations : int;
  mutable sched_ns : int;  (** modelled (virtual) or measured (native) *)
  mutable wm_ns : int;
  records : Stats.columns;
      (** sized to the workload's task count, or empty when the run
          keeps no records *)
  mutable faults : int;  (** failed or slowed execution attempts *)
  mutable retries : int;
  mutable quarantines : int;
  mutable pe_deaths : int;
  mutable aborted : string option;  (** first abort reason, if any *)
  mutable last_completion : int;  (** latest instance completion, ns; 0 before any *)
  latencies : latency array;  (** per class of the run's lowering *)
  name_base : int array;  (** per class, its first node's name number *)
  mutable max_ready : int;  (** longest ready list after a task became ready *)
  mutable max_inflight : int;  (** most in-flight tasks after a dispatch *)
  mutable dispatches : int;
  wait_us : Float.Array.t;
      (** one cell: the ready-to-dispatch waits in us, summed in
          dispatch order (a float array, so adding allocates nothing) *)
}

and latency
(** A class's completed instances: their count, latency sum and max. *)

val make_stats : records:bool -> Exec_model.t -> wm_stats
(** Zeroed statistics for a run of the lowering's classes; with
    [records], columns for every task of its workload. *)

val note_ready : wm_stats -> ready:int -> unit
(** A task became ready, leaving [ready] tasks in the ready list. *)

val note_dispatch : wm_stats -> wait_ns:int -> inflight:int -> unit
(** A dispatch after a wait of [wait_ns], leaving [inflight] tasks in
    flight. *)

val record_completion :
  wm_stats ->
  cls:int ->
  node:int ->
  instance:int ->
  task:int ->
  pe_index:int ->
  ready_ns:int ->
  dispatched_ns:int ->
  completed_ns:int ->
  dma_ns:int ->
  unit
(** Append the record of the completed task, node [node] of a class-[cls]
    instance, to the columns. *)

val instance_completed : wm_stats -> cls:int -> arrival_ns:int -> now:int -> unit
(** Fold an instance's completion at [now] into the makespan and its
    class's latency count, sum and max. *)

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

(** {1 Fault plans} *)

val compile_fault :
  Dssoc_fault.Fault.plan option -> handlers:handler array -> Dssoc_fault.Fault.t
(** Compile a fault plan against the run's PE array ([None] gives
    {!Dssoc_fault.Fault.disabled}); every engine compiles it here, so
    they replay identical fault schedules.
    @raise Invalid_argument when a rule targets no PE (surfaced by
    [Emulator.run] as an [Error]). *)

(** {1 Resilient dispatch}

    The fault bookkeeping that never suspends, called by
    {!Compiled_engine}'s machine (and by the test suite's reference
    engine, so both run one implementation of it).  The machine keeps
    only what suspends: the PE time of an attempt and the ready list.
    These helpers take the ints they read of a task (its handle, id,
    instance, class, node and attempt count), never a task record, so
    each engine keeps its own task layout; they reach a task's status
    and the ready list through the [make_ready] and [blocked]
    callbacks a {!resilience} is built with.

    With a fault plan the workload manager becomes resilient: failed
    attempts are counted and retried with capped exponential backoff
    under a per-task attempt budget; failing PEs are quarantined
    (policies see them as unavailable) with timed recovery for
    transients and permanent removal for deaths — a dead PE's
    reservation queue drains back to the ready list and its tasks
    re-dispatch onto surviving PEs; planned deaths fire proactively at
    their scheduled emulation time.  The run aborts (recorded in
    [stats.aborted], stopping dispatch and injection and draining
    in-flight work) when a task exhausts its attempt budget or loses
    every supporting PE. *)

val decide_attempt :
  fault:Dssoc_fault.Fault.t ->
  obs:Dssoc_obs.Obs.t ->
  handler ->
  task:int ->
  attempt:int ->
  now:int ->
  est_ns:int ->
  Dssoc_fault.Fault.decision
(** Consult the plan at the start of attempt [attempt] of task id
    [task] ({!Dssoc_fault.Fault.decide}); emits [Fault_injected] for a
    slowdown or failure. *)

val finish_attempt : handler -> int -> Dssoc_fault.Fault.decision -> busy_ns:int -> unit
(** [finish_attempt h task d ~busy_ns], under the handler's lock: the
    attempt decided [d] ({!Dssoc_fault.Fault.Proceed} without a plan)
    occupied the PE [busy_ns] and is done.  Counts it as run unless it
    failed, in which case its failure joins [h_failed] for
    {!handle_failure}; then queues [task] on [h_completed]. *)

type resilience
(** A run's fault state: the compiled plan and the retry queue, plus
    the workload manager's pieces it updates. *)

val resilience :
  fault:Dssoc_fault.Fault.t ->
  obs:Dssoc_obs.Obs.t ->
  stats:wm_stats ->
  model:Exec_model.t ->
  handlers:handler array ->
  unfinished:(unit -> (int * int) Seq.t) ->
  inflight:int ref ->
  make_ready:(int -> unit) ->
  blocked:(int -> unit) ->
  lock:(handler -> unit) ->
  unlock:(handler -> unit) ->
  resilience
(** [unfinished ()]: the (class, node) of every task that may still
    need a PE, in instance-id order, arrivals not injected yet
    included; a PE death aborts the run naming the first that no
    surviving PE supports.  [inflight] is the workload manager's
    dispatched-but-unmonitored count; [make_ready] its ready-list
    insertion and [blocked] the status change of a task that waits out
    a retry backoff, both given the engine's task handle;
    [lock]/[unlock] guard a handler's queues and [h_failed]. *)

val unfinished_nodes : cls:int -> nodes:int -> finished:(int -> bool) -> (int * int) Seq.t
(** [(cls, j)] for each node [j < nodes] of a class-[cls] instance that
    is not [finished], in node order. *)

val handle_failure :
  resilience ->
  handler ->
  task:int ->
  id:int ->
  instance:int ->
  cls:int ->
  node:int ->
  attempt:int ->
  now:int ->
  bool
(** Monitor one completed attempt of the task with handle [task] (task
    id [id], node [node] of instance [instance] of class [cls], on its
    [attempt]-th attempt): [false] if it succeeded.  Otherwise take its
    failure out of [h_failed], count the fault, kill or quarantine the
    PE as the failure dictates (a killed PE's reservation queue drains
    back to the ready list), then either mark the task [blocked] and
    queue a retry after a capped exponential backoff or abort the run
    (attempt budget spent, or no surviving PE supports the task), and
    return [true]. *)

val withdraw_retries : resilience -> instance:int -> unit
(** Drop the instance's tasks that sleep out a retry backoff: a
    cancelled instance's retry is never released. *)

val pe_ok : resilience -> handler -> now:int -> bool
(** Neither quarantined nor at or past its planned death time. *)

val usable : resilience -> handler -> now:int -> bool
(** {!pe_ok} with room for one more dispatch. *)

val sweep_deaths : resilience -> now:int -> unit
(** Kill every live PE whose planned death time has come. *)

val fault_tick : resilience -> now:int -> bool
(** The fault timeline at the tail of a workload-manager iteration:
    {!sweep_deaths}, quarantine expiry, then the release of due
    retries (none once the run has aborted).  [true] when a PE
    recovered or a task was released, so a scheduling round follows. *)

val wm_deadline : resilience -> int option -> int option
(** The workload manager's next wake-up under a plan: the earliest of
    the given deadline (the next arrival), the first retry release,
    and live PEs' quarantine lifts and planned deaths; [None] once the
    run has aborted (only in-flight completions wake it then). *)

(** {1 Report} *)

val report :
  host_name:string ->
  config:Dssoc_soc.Config.t ->
  policy:Scheduler.policy ->
  handlers:handler array ->
  model:Exec_model.t ->
  stats:wm_stats ->
  fabric:fabric_counters ->
  stopped_at:int ->
  Stats.report
(** Assemble the report of a batch run of the lowering's workload:
    makespan, per-PE usage and energy, scheduling statistics, task
    records (oldest first) with the names they number, per-app latency
    summaries, fabric contention counters and the ready-list, in-flight
    and wait figures {!note_ready} and {!note_dispatch} gathered.  The makespan is the latest instance
    completion, or for an aborted run [stopped_at], the clock at which
    the workload manager stopped the run (at or after every
    completion).  Every app of the workload has a row, covering the
    instances that finished. *)
