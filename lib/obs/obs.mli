(** Structured event tracing and metrics for the emulation engines.

    One observation bundle ([Obs.t]) is threaded through the
    workload and resource managers of [Compiled_engine]'s pc machine,
    over either substrate: the discrete-event one of every
    deterministic run and the OCaml 5 domains of the native engine.
    Every hook is timestamped with the backend clock — the
    discrete-event clock or the native engine's monotonic clock — so
    deterministic event logs are bit-identical for a given seed.

    Determinism / threading contract:
    - the null sink and absent metrics make every hook a no-op
      (engines guard hook sites with {!enabled}, keeping the default
      path free of observation cost);
    - metrics are updated only from the workload-manager thread;
    - the event log is lock-free for the single-producer deterministic
      engine; the native engine calls {!Sink.synchronize} before
      spawning handler domains, which makes emits mutex-protected there
      (handler domains emit phase and reservation-pop events
      concurrently).

    [Dssoc_obs.Analyze.of_events] folds a log's events into the
    realized schedule. *)

type phase = Dma_in | Device_compute | Dma_out

val phase_name : phase -> string
(** ["dma_in"], ["compute"], ["dma_out"] — the Chrome-trace span names. *)

type body =
  | Instance_injected of { instance : int; app : string }
  | Task_ready of { task : int; instance : int; app : string; node : string }
  | Task_dispatched of {
      task : int;
      instance : int;
      app : string;
      node : string;
      pe : string;
      pe_index : int;
      wait_ns : int;
    }
  | Task_completed of {
      task : int;
      instance : int;
      app : string;
      node : string;
      pe : string;
      pe_index : int;
      service_ns : int;
    }
  | Sched_invoked of {
      ready : int;  (** live ready count when the policy ran *)
      examined : int;  (** tasks in the bounded scheduling window *)
      ops : int;  (** policy cost-model operations *)
      cost_ns : int;  (** charged WM overhead *)
      assigned : int;
    }
  | Reservation_enqueued of { pe_index : int; depth : int }
  | Reservation_popped of { pe_index : int; depth : int }
  | Phase of {
      task : int;
      pe_index : int;
      phase : phase;
      start_ns : int;
      dur_ns : int;
    }  (** accelerator DMA-in / device-compute / DMA-out sub-span *)
  | Wm_tick of { completions : int; injected : int }
  | Fault_injected of {
      task : int;
      pe : string;
      pe_index : int;
      fault : string;
      attempt : int;
    }  (** a handler observed an injected fault (incl. slowdowns) *)
  | Task_failed of {
      task : int;
      instance : int;
      app : string;
      node : string;
      pe : string;
      pe_index : int;
      fault : string;
      attempt : int;
    }  (** WM bookkeeping of a failed execution attempt *)
  | Task_retried of {
      task : int;
      instance : int;
      app : string;
      node : string;
      attempt : int;  (** attempts so far; the retry is attempt+1 *)
      backoff_ns : int;
    }
  | Pe_quarantined of { pe : string; pe_index : int; until_ns : int; permanent : bool }
  | Pe_recovered of { pe : string; pe_index : int }
  | Stream_stalled of { pe_index : int; bytes : int; queued : int }
      (** a DMA stream found the fabric FIFO full; [queued] = streams
          now waiting for a slot (interconnect extension) *)
  | Stream_admitted of { pe_index : int; bytes : int; stall_ns : int; inflight : int }
      (** a DMA stream entered the shared link after [stall_ns] queued
          ([0] = admitted immediately); [inflight] includes it *)
  | Tenant_admitted of { tenant : string; instance : int; queue_depth : int }
      (** service mode: an arrival passed admission control;
          [queue_depth] = the tenant's admission queue after the add *)
  | Tenant_shed of { tenant : string; instance : int; queue_depth : int }
      (** service mode: an arrival was rejected by the [shed] /
          [degrade] overload policy (typed [Rejected] outcome) *)
  | Instance_timed_out of { tenant : string; instance : int; age_ns : int }
      (** service mode: the watchdog aborted an instance whose age
          exceeded the wall-bound (typed [TimedOut] outcome) *)
  | Checkpoint_written of { path : string; instances_done : int }
      (** service mode: a drain completed and WM state was serialized *)

type event = { t_ns : int; body : body }

(** Event sinks: where emitted events go. *)
module Sink : sig
  type t

  val null : t
  (** Discards everything; [emit] on it is a pattern match and return. *)

  val ring : ?capacity:int -> unit -> t
  (** Event log: an append-only recorder that keeps every event it is
      given, in emit order.  It stores events in flat arrays and grows
      in fixed-size blocks of 4096 slots, so it never wraps and never
      drops an event.  [capacity] only says how many slots to
      preallocate, rounded up to whole blocks (default one block); it
      never limits the log.
      @raise Invalid_argument if [capacity <= 0]. *)

  val is_null : t -> bool

  val synchronize : t -> unit
  (** Declare that several domains will emit into this sink
      concurrently, making every subsequent [emit] take the sink's
      mutex.  The native engine calls this before spawning handler
      domains; the single-producer engine leaves the log lock-free.
      Must be called before the concurrent emitters start.  No-op on
      the null sink. *)

  val emit : t -> int -> body -> unit

  val total : t -> int
  (** Events emitted since the sink was made or last cleared (0 for the
      null sink).  An event log retains every one of them. *)

  val clear : t -> unit
  (** Forget every recorded event, keeping every block an event log
      has grown, so a log reused across runs allocates only while a
      run outgrows the earlier ones.  No-op on the null sink. *)

  val events : t -> event list
  (** An event log's events, oldest first; [[]] for the null sink. *)

  val iter : (event -> unit) -> t -> unit
  (** {!events}, decoded and handed over one at a time: the log is
      never a list. *)
end

(** Registry of named counters, gauges and histogram series.
    Registration order is preserved, so {!pp} output and exported
    counter tracks are deterministic. *)
module Metrics : sig
  type t
  type counter
  type gauge
  type histogram

  val create : unit -> t

  val counter : t -> string -> counter
  (** Find-or-create by name (as do [gauge] and [histogram]).
      @raise Invalid_argument if the name is registered with another
      kind. *)

  val gauge : t -> string -> gauge
  val histogram : t -> string -> histogram
  val find_counter : t -> string -> counter option
  val find_gauge : t -> string -> gauge option
  val find_histogram : t -> string -> histogram option

  val incr : ?by:int -> counter -> unit
  val counter_value : counter -> int

  val set : gauge -> t_ns:int -> int -> unit
  (** Record a sample; repeated samples at one timestamp collapse to
      the last, so the series is a step function over strictly
      increasing time. *)

  val gauge_value : gauge -> int
  val gauge_max : gauge -> int
  val gauge_series : gauge -> (int * int) list
  val gauge_name : gauge -> string

  val observe : histogram -> float -> unit
  val histogram_count : histogram -> int
  val histogram_samples : histogram -> float array
  val histogram_mean : histogram -> float option
  val histogram_quantile : histogram -> float -> float option

  val gauges : t -> gauge list
  (** All gauges in registration order. *)

  val reset : t -> unit
  (** Zero every registered instrument in place — counters to 0,
      gauges to value/max 0 with an empty series, histograms emptied —
      while keeping the instruments registered, so handles and
      registration order survive. *)

  val pp : Format.formatter -> t -> unit
  (** The [pp_metrics] text summary: counters, gauge last/max, and
      histogram n/mean/p50/p95/max (histograms via
      [Dssoc_stats.Quantile]). *)
end

(** Periodic metrics flushing: append-only JSONL snapshots of a
    metrics registry, paced by the emulated clock.  Driven from the WM
    tick via {!set_flush}, so the snapshot stream is deterministic for
    a given seed.  Each line carries [t_ns] plus every counter, gauge
    (last/max) and histogram (n/mean/p50/p95/max) in registration
    order. *)
module Flush : sig
  type flusher

  val every : period_ms:int -> path:string -> Metrics.t -> flusher
  (** Snapshot the registry to [path] at least every [period_ms] of
      emulated time (the first due tick snapshots; a WM sweep cadence
      coarser than the period yields one snapshot per sweep).  Existing
      content of [path] is preserved (append semantics).  Every
      snapshot rewrites the full stream to [path ^ ".tmp"] and
      atomically renames it over [path], so a killed process never
      leaves a torn final line.
      @raise Invalid_argument if [period_ms <= 0]. *)

  val tick : flusher -> now:int -> unit
  (** Advance the flusher's clock; snapshots when a period boundary has
      passed.  Engines call this through {!on_wm_tick}. *)

  val close : flusher -> unit
  (** Write a final snapshot at the last tick time (if anything
      happened since the previous one) and close the channel.
      Idempotent. *)

  val snapshots : flusher -> int
  val path : flusher -> string
end

(** {1 Per-run observation bundle} *)

type t

val disabled : t
(** The zero-cost default: null sink, no metrics, [enabled = false]. *)

val make : ?sink:Sink.t -> ?metrics:Metrics.t -> unit -> t

val enabled : t -> bool
(** [false] only for a null sink with no metrics; engines check this
    before computing hook arguments. *)

val sink : t -> Sink.t
val metrics : t -> Metrics.t option

val set_flush : t -> Flush.flusher -> unit
(** Attach a periodic flusher: {!on_wm_tick} will drive it on every WM
    sweep (including quiet ones).  The caller keeps the flusher and is
    responsible for {!Flush.close} after the run. *)

val reset : t -> unit
(** Return the bundle to its just-made state: clears the sink in
    place, zeroes all metrics (instruments stay registered), and
    detaches any flusher.  A reset bundle records a following run
    exactly as a freshly made one would, so a caller replaying many
    runs through one event log keeps the blocks it has grown. *)

val attach : t -> pe_labels:string array -> nodes:(string * string array) array -> unit
(** Called once per traced run by the engine before the WM starts.  Registers
    the engine gauge/histogram/counter handles (ready-queue depth,
    in-flight tasks, per-PE queue depth, wait/service/sched-cost
    latencies) against the bundle's metrics registry, if any, and the
    run's task names with the sink: [nodes.(c)] is the app name and
    the node names, in declaration order, of the run's class [c]
    ([Exec_model.node_names] in the runtime).  The task hooks name a
    task by its class and node index, and its PE by [pe_index] into
    [pe_labels]; the sink stores numbers, not strings. *)

(** {2 Engine hooks}

    All take [~now] in backend-clock ns.  Callers guard with
    {!enabled}; the hooks themselves are safe no-ops when the bundle
    carries neither sink nor metrics. *)

val on_instance_injected : t -> now:int -> instance:int -> app:string -> unit

val on_task_ready :
  t -> now:int -> task:int -> instance:int -> cls:int -> node:int ->
  ready_depth:int -> unit
(** [cls] and [node] name the task as registered by {!attach}. *)

val on_task_dispatched :
  t -> now:int -> task:int -> instance:int -> cls:int -> node:int ->
  pe_index:int -> wait_ns:int -> ready_depth:int -> pe_depth:int ->
  inflight:int -> unit

val on_task_completed :
  t -> now:int -> task:int -> instance:int -> cls:int -> node:int ->
  pe_index:int -> service_ns:int -> pe_depth:int -> inflight:int ->
  unit

val on_sched :
  t -> now:int -> ready:int -> examined:int -> ops:int -> cost_ns:int ->
  assigned:int -> unit

val on_reservation_enqueued : t -> now:int -> pe_index:int -> depth:int -> unit
val on_reservation_popped : t -> now:int -> pe_index:int -> depth:int -> unit

val on_phase :
  t -> now:int -> task:int -> pe_index:int -> phase:phase -> start_ns:int ->
  dur_ns:int -> unit

val on_wm_tick : t -> now:int -> completions:int -> injected:int -> unit
(** Emitted at the end of a WM sweep; quiet sweeps (no completions, no
    injections) are suppressed so polling backends don't flood the
    log. *)

val on_fault_injected :
  t -> now:int -> task:int -> pe:string -> pe_index:int -> fault:string ->
  attempt:int -> unit
(** Sink-only (resource handlers call it, possibly from a native
    domain; metrics stay WM-thread-only). *)

val on_task_failed :
  t -> now:int -> task:int -> instance:int -> app:string -> node:string ->
  pe:string -> pe_index:int -> fault:string -> attempt:int -> unit

val on_task_retried :
  t -> now:int -> task:int -> instance:int -> app:string -> node:string ->
  attempt:int -> backoff_ns:int -> unit

val on_pe_quarantined :
  t -> now:int -> pe:string -> pe_index:int -> until_ns:int -> permanent:bool ->
  unit

val on_pe_recovered : t -> now:int -> pe:string -> pe_index:int -> unit

val on_stream_stalled : t -> now:int -> pe_index:int -> bytes:int -> queued:int -> unit
(** Sink only (may run from a handler thread); the fabric occupancy
    gauge and stall histogram are owned by the deterministic engines'
    shared substrate, [Dssoc_runtime.Des]. *)

val on_stream_admitted :
  t -> now:int -> pe_index:int -> bytes:int -> stall_ns:int -> inflight:int -> unit

val on_tenant_admitted : t -> now:int -> tenant:string -> instance:int -> queue_depth:int -> unit
(** Service-mode hooks (sink only; the server owns its tenant
    counters). *)

val on_tenant_shed : t -> now:int -> tenant:string -> instance:int -> queue_depth:int -> unit
val on_instance_timed_out : t -> now:int -> tenant:string -> instance:int -> age_ns:int -> unit
val on_checkpoint_written : t -> now:int -> path:string -> instances_done:int -> unit

(** {2 Export} *)

val recorded_events : t -> event list
(** The sink's events, oldest first ([[]] for the null sink): the
    input of [Dssoc_obs.Analyze.of_events]. *)

val counter_tracks : t -> (string * (int * int) list) list
(** Every gauge's (name, step series) in registration order — the
    Chrome-trace counter tracks. *)

val event_to_json : event -> Dssoc_json.Json.t

val event_of_json : Dssoc_json.Json.t -> (event, string) result
(** Inverse of {!event_to_json} — [event_of_json (event_to_json e) =
    Ok e].  The analysis layer and the [analyze] CLI subcommand use it
    to reload persisted event logs. *)

val to_jsonl : event list -> string
(** One minified JSON object per line. *)

val output_jsonl : out_channel -> event list -> unit
(** Stream the same bytes as {!to_jsonl} to a channel, reusing one
    line buffer — the log never materialises as a single string. *)

val output_recorded_jsonl : out_channel -> t -> unit
(** [output_jsonl] of {!recorded_events}, each event written as it is
    decoded from the sink ({!Sink.iter}): no event list is built. *)
