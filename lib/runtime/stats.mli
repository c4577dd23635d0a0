(** Emulation statistics (the "scheduling statistics for all the
    applications and their tasks" collected before termination,
    Section II-A). *)

(** One completed task.  Its app, node and PE are numbers the report
    resolves ({!record_app}, {!record_node}, {!record_pe}), so a record
    holds no string. *)
type task_record = {
  name : int;  (** the task's (app, node) in the report's [names] *)
  instance : int;
  task : int;  (** task id *)
  pe_index : int;  (** the PE that ran it, a position in [pe_usage] *)
  ready_ns : int;
  dispatched_ns : int;
  completed_ns : int;
  dma_ns : int;
      (** an accelerator's DMA-in plus DMA-out time in the attempt that
          ran (fabric queueing included); 0 on a CPU *)
}

(** A run's records as columns, one int array per {!task_record}
    field: row [i] of every column is the [i]-th completed task. *)
type columns = {
  mutable count : int;  (** rows written; each column holds at least this many *)
  c_name : int array;
  c_instance : int array;
  c_task : int array;
  c_pe_index : int array;
  c_ready_ns : int array;
  c_dispatched_ns : int array;
  c_completed_ns : int array;
  c_dma_ns : int array;
}

val columns : int -> columns
(** [columns n]: no rows, room for [n].  A run sizes its columns once,
    to its task count, and never grows them. *)

val add_record :
  columns ->
  name:int ->
  instance:int ->
  task:int ->
  pe_index:int ->
  ready_ns:int ->
  dispatched_ns:int ->
  completed_ns:int ->
  dma_ns:int ->
  unit
(** Write the next row.
    @raise Invalid_argument when the columns are full. *)

type pe_usage = {
  pe_label : string;
  pe_kind : string;
  busy_ns : int;  (** accumulated execution occupancy *)
  tasks_run : int;
  busy_energy_mj : float;  (** busy_ns x active power *)
  energy_mj : float;
      (** busy energy plus idle power over the makespan remainder,
          from the PE class's power figures (power-awareness
          extension) *)
}

type app_summary = {
  instances : int;  (** finished instances: all of the app's unless the run aborted *)
  mean_latency_ns : float;  (** arrival to last-task completion *)
  max_latency_ns : int;
}

(** How a run ended (fault-injection extension).

    - [Completed]: every task ran to completion with no fault activity.
    - [Degraded]: every remaining obligation was met, but faults were
      injected and/or tasks were retried along the way.
    - [Aborted r]: the workload manager gave up (attempt budget
      exhausted, or a task lost every supporting PE); [r] names the
      first reason. *)
type verdict = Completed | Degraded | Aborted of string

val verdict_name : verdict -> string
(** ["completed"] / ["degraded"] / ["aborted"]. *)

(** Fault-handling counters for one run; all zero without faults. *)
type resilience = {
  faults_injected : int;  (** failed or slowed execution attempts *)
  task_retries : int;  (** re-dispatches after a failed attempt *)
  pe_quarantines : int;  (** PE quarantine entries (incl. deaths) *)
  pe_deaths : int;  (** PEs permanently lost *)
  tasks_lost : int;  (** tasks never completed (aborted runs) *)
}

val no_faults : resilience
(** All-zero counters (the fault-free run). *)

(** Shared-interconnect contention counters for one run; all zero
    under an ideal fabric (interconnect extension). *)
type fabric = {
  dma_streams : int;  (** DMA streams routed through the fabric *)
  fabric_stalls : int;  (** admissions that found the FIFO full *)
  fabric_stall_ns : int;  (** total time initiators spent queued for a slot *)
  max_inflight_streams : int;  (** peak concurrent in-flight streams *)
}

val no_fabric : fabric
(** All-zero counters (the ideal-fabric run). *)

type report = {
  host_name : string;
  config_label : string;
  policy_name : string;
  makespan_ns : int;  (** workload execution time *)
  job_count : int;  (** application instances *)
  task_count : int;
  pe_usage : pe_usage list;
  sched_invocations : int;
  sched_ns : int;  (** time spent inside the scheduling policy *)
  wm_overhead_ns : int;
      (** total workload-manager overhead: completion monitoring +
          ready-list updates + scheduling + dispatch communication
          (the Fig. 10b definition) *)
  records : columns;  (** by completion time *)
  names : (string * string) array;
      (** (app, node) by name number: node [j] of the run's lowering
          class [k] is number [j] plus the node counts of the classes
          before [k] ({!Dssoc_obs.Obs.attach}'s numbering) *)
  app_stats : (string * app_summary) list;  (** sorted by app name *)
  verdict : verdict;
  resilience : resilience;
  fabric : fabric;
  max_ready_depth : int;  (** the longest the ready list grew *)
  max_inflight : int;  (** the most tasks dispatched and not yet monitored *)
  mean_wait_us : float;
      (** ready-to-dispatch wait over every dispatch, retries included:
          the sum in dispatch order divided by the count (0 without
          dispatches) *)
}

val record_count : report -> int
(** The number of records. *)

val record : report -> int -> task_record
(** [record r i]: row [i] of the records, as a record.
    @raise Invalid_argument when there is no such row. *)

val record_list : report -> task_record list
(** Every record, by completion time, built on demand. *)

val record_app : report -> task_record -> string
val record_node : report -> task_record -> string

val record_pe : report -> task_record -> string
(** The label of the record's PE. *)

val critical_path : report -> int Dssoc_obs.Analyze.path
(** {!Dssoc_obs.Analyze.path_rows} over the record columns (a step's
    task is its row, {!record}), bounded by the
    report's makespan: its length equals [makespan_ns] unless no task
    completed.  The records see no fabric admission, so no stall time
    is charged; without injection times, a dependency step's slack
    reaches back to 0 rather than to its instance's injection. *)

val service_quantile_us : report -> float -> float
(** Quantile of the records' dispatch-to-completion times, in us
    ({!Dssoc_stats.Quantile.quantile}); 0 without records. *)

val completed_fraction : report -> float
(** Completed tasks over total tasks — 1.0 unless the run aborted. *)

val utilization : report -> (string * float) list
(** Per-PE busy-time fraction of the makespan, in PE order. *)

val mean_utilization_by_kind : report -> (string * float) list
(** Average utilisation per PE kind ("cpu", "fft", "big", ...) — the
    Fig. 9b series. *)

val avg_sched_overhead_ns : report -> float
(** Mean workload-manager overhead per scheduling invocation — the
    Fig. 10b metric. *)

val total_energy_mj : report -> float
(** Sum of per-PE energy over the whole emulation. *)

val total_busy_energy_mj : report -> float
(** Active-power component only (excludes idle draw) — the metric a
    race-to-idle comparison needs alongside {!total_energy_mj}. *)

val pp_summary : Format.formatter -> report -> unit
(** Multi-line human-readable summary: makespan, scheduler invocation
    count with total policy time and mean WM overhead per invocation,
    total and busy energy, per-PE occupancy and per-app latencies. *)

val records_csv : report -> string
(** Per-task records as CSV (header + one line per task).  String
    fields are RFC 4180-escaped ({!Dssoc_stats.Table.csv_field}), so
    app/node/PE labels containing commas, quotes or newlines cannot
    corrupt rows; plain labels are emitted unchanged. *)

val chrome_trace : ?obs:Dssoc_obs.Obs.t -> report -> Dssoc_json.Json.t
(** Task records as a Chrome trace-event document (one complete "X"
    event per task, one row per PE) — load the written file in
    chrome://tracing or Perfetto.  Timestamps are emulation-time
    microseconds.

    Without [obs] the document is exactly the pre-observability
    output.  With [obs], recorded accelerator phase events become
    "X" sub-spans (dma_in / compute / dma_out, category "accel") on
    their PE row, and every metrics gauge becomes a "C" counter track
    (e.g. [ready_queue_depth], [in_flight_tasks]) Perfetto renders as
    a time series. *)

val gantt : ?width:int -> report -> string
(** ASCII Gantt chart: one row per PE, time on the x axis scaled to
    the makespan; occupied spans are drawn with per-application
    letters ('a' = first application name alphabetically, continuing
    through 'A'-'Z' and '0'-'9' before wrapping), idle time with
    dots.  Zero-duration spans render as a single cell; [width] is
    clamped to at least 1.  Intended for eyeballing schedules of
    small workloads. *)
