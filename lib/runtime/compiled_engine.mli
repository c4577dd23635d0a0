(** Ahead-of-time compiled emulation engine.

    The virtual engine interprets the workload every run: polymorphic
    task records, effect-based threads, `Scheduler.context` closures
    and the `Engine_core` backend record all sit on the hottest loop.
    This module instead {e compiles} one (workload x platform x policy)
    triple into a {!type:plan} — the run's {!Exec_model.t} (each
    distinct spec's topology and per-(node, PE) prices, the same
    classes the other engines read) plus the specialised policy — and
    then {!val:run}s the workload-manager protocol and the chosen
    policy as an integer program-counter state machine over dense
    task-id arrays, with no per-event closure allocation.  The clock,
    event heap, shared host cores and fabric ledger are the virtual
    engine's own: both engines run on {!Des}.

    The contract with the reference engines is {e exact replay}: for
    every supported parameter set (any seed, any jitter, any
    reservation depth, any policy) a compiled run produces the same
    event sequence as the virtual engine — the same [Stats.report]
    (byte-identical [records_csv]) and the same final instance stores.
    The five built-in policies are specialised into the loop; any other
    policy is called through its closure with a {!Scheduler.context}
    built exactly as {!Engine_core.workload_manager} builds it.
    Observability is lowered into the loop rather than interpreted: a
    traced run ([?obs] on {!val:run}) emits the same events with the
    same timestamps in the same order as the virtual engine
    (byte-identical {!Dssoc_obs.Obs.to_jsonl}) and populates the same
    metrics registry, while an untraced run pays only one predictable
    branch per hook site.  Fault plans, which v1 cannot replay
    bit-for-bit, are rejected at compile time with
    {!exception:Unsupported} rather than allowed to diverge silently.
    The differential matrix in [test/test_diff_engines.ml] pins both
    contracts.

    The same machine is the resident server's engine
    ({!val:run_service}): service hooks replace the fixed workload's
    injection schedule and termination test, and a run can resume from
    a checkpoint.

    Neither compilation nor {!val:run} executes a kernel: the loop is
    timing only, and a report-only run's instances share one empty
    placeholder store.  {!val:run_detailed} gives each instance its
    own store and fills it after the run with {!Functional}, exactly as
    the virtual engine does. *)

type plan

exception Unsupported of string
(** Raised by {!val:compile} for a fault plan, the one input outside
    the compiled engine's replay contract. *)

val compile :
  ?fault:Dssoc_fault.Fault.plan ->
  config:Dssoc_soc.Config.t ->
  workload:Dssoc_apps.Workload.t ->
  policy:Scheduler.policy ->
  unit ->
  plan
(** Lower the triple into a plan.  The plan is immutable apart from
    internal scratch buffers: it can be kept, reused and interleaved
    with other plans — every {!val:run} starts from fresh instances.
    Observability is a per-run concern ([?obs] on {!val:run} /
    {!val:run_detailed}), not a compile-time one.
    @raise Unsupported for a fault plan.
    @raise Invalid_argument when some task supports no PE of the
    configuration or its kernel does not resolve on one of them (same
    validation as the reference engines), or when a fabric latency
    overflows ({!Dssoc_soc.Fabric.fixed_ns}). *)

val run : ?obs:Dssoc_obs.Obs.t -> plan -> Engine_core.params -> Stats.report
(** Execute one emulation of the plan: instantiate fresh instances,
    replay the workload-manager protocol, assemble the report exactly
    as the virtual engine would.  With [?obs], also emit the virtual
    engine's exact event log and metrics. *)

val run_detailed :
  ?obs:Dssoc_obs.Obs.t ->
  plan ->
  Engine_core.params ->
  Stats.report * Task.instance array
(** Like {!val:run}, also returning the instances with their final
    stores ({!Functional.fill_stores}) for functional inspection. *)

(** {1 Resident service}

    A resident service (admission control, open-loop arrivals,
    watchdog) plugs into the workload manager through these hooks.
    The service decides {e which} instances enter the run and when;
    the workload manager keeps owning the ready list, dispatch and
    completion monitoring.  A service run keeps no per-task records. *)

type service_ops = {
  so_inject : Task.instance -> int;
      (** admit one instance now: emits the injection event, makes its
          entry tasks ready; returns how many tasks that was *)
  so_cancel : Task.instance -> unit;
      (** watchdog abort: marks the instance cancelled (suppressing
          successor release) and withdraws its Ready tasks from the
          ready list.  Only call on instances with no Running task — an
          in-flight task must drain naturally first. *)
  so_ready_live : unit -> int;  (** ready-list length *)
  so_inflight : unit -> int;  (** dispatched-but-unmonitored count *)
  so_completed : unit -> int;
      (** instances completed so far in this run (cancelled ones never
          complete): a service can skip its completion harvest while
          this has not moved *)
}

type service = {
  sv_tick : service_ops -> now:int -> int;
      (** one service sweep per WM tick, replacing the fixed-workload
          injection drain: admission control over due arrivals,
          completion harvesting, watchdog; returns the number of tasks
          made ready (charged like an injection burst) *)
  sv_next : now:int -> int option;
      (** next service deadline (arrival or watchdog expiry), strictly
          in the future; [None] when only completions can wake the WM *)
  sv_finished : service_ops -> now:int -> bool;
      (** termination test, evaluated at the end of every tick *)
}

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
  sr_instances : Task.instance array;
  sr_prng : int64 * int64 * int64 * int64;  (** engine PRNG state at the end *)
  sr_handlers : handler_snapshot array;
}

val run_service :
  ?obs:Dssoc_obs.Obs.t ->
  ?resume:resume_state ->
  plan ->
  Engine_core.params ->
  service:(Task.instance array -> service) ->
  service_run
(** Run a resident service.  The plan's workload must hold every
    instance the service may ever admit; [service] receives the
    instantiated instances (ids index this array, which share one
    placeholder store) and returns the hooks that decide which of them
    are injected and when.  With [resume] the clock, engine PRNG and
    handler horizons start from the checkpointed values and the
    workload manager starts with the await on [sv_next] instead of a
    tick, reproducing the uninterrupted run's trajectory exactly.
    @raise Invalid_argument on a PE-count mismatch with [resume]. *)
