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
    reservation depth, all five built-in policies) a compiled run
    produces the same event sequence as the virtual engine — the same
    [Stats.report] (byte-identical [records_csv]) and the same final
    instance stores.  Observability is lowered into the loop rather
    than interpreted: a traced run ([?obs] on {!val:run}) emits the
    same events with the same timestamps in the same order as the
    virtual engine (byte-identical {!Dssoc_obs.Obs.to_jsonl}) and
    populates the same metrics registry, while an untraced run pays
    only one predictable branch per hook site.  Anything v1 cannot
    replay bit-for-bit (fault plans, custom policies) is rejected at
    compile time with {!exception:Unsupported} rather than allowed to
    diverge silently.  The differential matrix in
    [test/test_diff_engines.ml] pins both contracts.

    Neither compilation nor {!val:run} executes a kernel: the loop is
    timing only, and a report-only run's instances share one empty
    placeholder store.  {!val:run_detailed} gives each instance its
    own store and fills it after the run with {!Functional}, exactly as
    the virtual engine does. *)

type plan

exception Unsupported of string
(** Raised by {!val:compile} for inputs outside the compiled engine's
    replay contract: a fault plan, or a policy other than the five
    built-ins. *)

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
    @raise Unsupported for a fault plan or a policy that is not one of
    the five built-ins (the compiler specializes the policy loop and
    cannot inline arbitrary closures).
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
