(** Emulation-as-a-service: a resident multi-tenant workload server on
    top of the compiled engine's workload manager
    ({!Dssoc_runtime.Compiled_engine.run_service}), with any scheduling
    policy.

    Instead of a fixed-count workload, each {e tenant} registers an
    open-loop arrival stream (application mix, Poisson arrival rate,
    priority, SLO latency bound, its own seed stream).  Arrivals flow
    through bounded per-tenant admission queues in front of the
    workload manager's ready list; when a queue overflows, the
    configured overload policy decides who pays:

    - [Block]: the tenant's arrival stream stalls — arrivals wait at
      the stream head (their latency clock keeps running against the
      scheduled arrival time) until the queue has room.
    - [Shed]: the newest arrival is rejected with a typed
      {!Rejected} disposition and counted; nothing is ever silently
      dropped.
    - [Degrade]: the arrival displaces the newest queued instance of
      the lowest-priority tenant strictly below its own priority (that
      victim is shed); if no such victim exists the arrival itself is
      shed.  High-priority tenants therefore keep their SLO while
      low-priority tenants absorb the shedding.

    A watchdog aborts admitted instances that exceed a configurable
    wall bound with a typed {!Timed_out} disposition: their Ready
    tasks are withdrawn from the workload manager's ready list and
    in-flight attempts drain naturally first.

    {b Checkpoint/restore.}  The server only checkpoints at {e natural
    quiescent instants} — empty ready list, nothing in flight, empty
    admission queues, next arrival strictly in the future.  At such an
    instant the entire future of the run is a deterministic function
    of (spec, virtual clock, engine PRNG state, per-PE scheduling
    horizons, per-tenant cursors and aggregates) — all of which the
    checkpoint captures in a versioned JSON file.  A drain request
    (SIGTERM, or a virtual-time trigger) lets the server run normally
    until the next quiescent instant, then stop and checkpoint.
    Restoring resumes the run and produces a final report
    byte-identical to an uninterrupted run at the same seeds. *)

type overload = Block | Shed | Degrade

val overload_name : overload -> string

type admission = {
  ad_policy : overload;
  ad_queue : int;  (** per-tenant admission-queue bound *)
  ad_max_ready : int;
      (** ready-list depth gate: instances are only injected while the
          live ready count is below this (one instance's entry burst
          may overshoot it) *)
  ad_timeout_ns : int;  (** watchdog wall bound from arrival; 0 = off *)
}

val default_admission : admission
(** [Shed], queue 16, max-ready 128, no watchdog. *)

val admission_of_spec : string -> (admission, string) result
(** Parse ["policy=shed:queue=16:max-ready=128:timeout=20ms"]
    (all fields optional, any order, over {!default_admission}).
    Durations accept [ms]/[us]/[s] suffixes (plain numbers are ms). *)

type tenant_spec = {
  tn_name : string;
  tn_apps : (string * int) list;  (** application mix: (name, weight) *)
  tn_rate_per_ms : float;  (** mean Poisson arrival rate, arrivals/ms *)
  tn_priority : int;  (** higher = served first *)
  tn_slo_ms : float;  (** SLO latency bound *)
  tn_seed : int64 option;
      (** arrival-stream seed; default derives from the run seed and
          the tenant's position via [Prng.derive_seed] *)
}

val tenants_of_spec : string -> (tenant_spec list, string) result
(** Parse ["NAME:apps=wifi_tx*3+range_detection:rate=1.5:prio=2:slo=5ms[:seed=7]"]
    clauses separated by [';'].  [apps], [rate] are mandatory;
    [prio] defaults to 0, [slo] to 10 ms. *)

type disposition =
  | Pending  (** beyond the drain point (only in drained outcomes) *)
  | Completed
  | Rejected  (** shed by admission control *)
  | Timed_out  (** aborted by the watchdog *)

val disposition_name : disposition -> string

type tenant_report = {
  tr_name : string;
  tr_priority : int;
  tr_offered : int;  (** arrivals that reached admission control *)
  tr_admitted : int;
  tr_completed : int;
  tr_shed : int;
  tr_timed_out : int;
  tr_slo_ms : float;
  tr_slo_miss : int;  (** completions over the SLO bound *)
  tr_p95_ms : float;  (** p95 completion latency (0 when none) *)
  tr_throughput_per_ms : float;
  tr_digest : string;
      (** rolling MD5 chain over (instance id, store digest) in
          completion order — pins functional output across restore *)
  tr_verdict : string;  (** ["ok"], ["shed"], ["timeout"] or ["shed+timeout"] *)
}

type outcome = {
  oc_clock_ns : int;  (** virtual time at termination *)
  oc_drained : bool;
  oc_checkpoint : string option;  (** checkpoint file written, if any *)
  oc_tenants : tenant_report list;  (** priority descending, then name *)
  oc_dispositions : disposition array;  (** by instance id *)
}

type spec = {
  sp_config : Dssoc_soc.Config.t;
  sp_policy : Dssoc_runtime.Scheduler.policy;
  sp_seed : int64;
  sp_jitter : float;
  sp_duration_ms : float;  (** arrivals are generated strictly inside this window *)
  sp_admission : admission;
  sp_tenants : tenant_spec list;
}

val run :
  ?obs:Dssoc_obs.Obs.t ->
  ?drain:(now_ns:int -> bool) ->
  ?checkpoint:string ->
  ?restore:string ->
  spec ->
  (outcome, string) result
(** Run the service to completion (all generated arrivals resolved) on
    the compiled engine.

    [drain] is polled once per quiescence opportunity; once it returns
    true the server stops at the next quiescent instant and — when
    [checkpoint] names a file — atomically writes the versioned
    checkpoint there (and emits [checkpoint_written]).  [restore]
    resumes from a checkpoint file; the spec must match the one that
    produced it (enforced by a fingerprint).  Unknown applications,
    bad checkpoint version/fingerprint and spec errors are returned as
    [Error]. *)

val render_report : outcome -> string
(** Deterministic multi-line per-tenant report — byte-identical
    between an uninterrupted run and a drain/checkpoint/restore run of
    the same spec. *)

(**/**)

val materialize_debug : spec -> (int * int * int * string) list
(** (arrival_ns, tenant index, per-tenant seq, app name) in instance
    order — exposed for tests of schedule determinism. *)
