(** Post-run analytics over a recorded event log.

    Engine-agnostic: the analysis reconstructs the realized schedule
    from {!Obs.event}s alone — retained by an event log
    ({!Obs.recorded_events}) or reloaded from a JSONL file via
    {!Obs.event_of_json} — so it applies identically to deterministic
    and native runs.  Every path goes through one fold, {!of_events}.
    Three products:

    - {b critical path}: the chain of task executions that bounds the
      makespan, with each link classified as a dependency edge (the
      task became ready the instant a same-instance predecessor
      completed), a resource edge (it waited for its PE), or the
      injection that started the chain — plus per-step slack (how far
      the binding constraint could move before the next one binds);
    - {b per-PE-class utilization and occupancy timelines};
    - {b queueing-delay breakdown}: wait / service / fabric-stall
      distributions across all tasks. *)

type task_exec = {
  x_task : int;
  x_instance : int;
  x_app : string;
  x_node : string;
  x_pe : string;
  x_pe_index : int;
  x_ready_ns : int;
  x_dispatched_ns : int;
  x_completed_ns : int;
  x_dma_ns : int;  (** dma_in + dma_out phase time *)
  x_stall_ns : int;  (** fabric admission stalls inside the service window *)
}
(** One completed task of the realized schedule. *)

type t

val of_events : Obs.event list -> t
(** The realized schedule of a log, folded in one pass over its events
    in order: each completed task's final ready and dispatch times, its
    DMA phase time and its attributed fabric stalls.  Tasks without a
    completion event (aborted runs, truncated logs) are ignored; a
    retried task keeps its final (successful) attempt's ready and
    dispatch times, with DMA time summed over its attempts.  Total over
    any list, hostile task ids included: memory is proportional to the
    list's length, not to any id's value. *)

val tasks : t -> task_exec list
val makespan_ns : t -> int
(** Latest event timestamp — the WM tick of the sweep that observed
    the final completion, which equals the engine report's makespan
    (the last task completion plus that sweep's overhead charge). *)

(** {1 Critical path} *)

type edge =
  | Injection  (** chain start: nothing earlier constrains the task *)
  | Dependency  (** ready the instant a same-instance predecessor completed *)
  | Resource  (** dispatched when its PE freed up *)

val edge_name : edge -> string

(** A realized schedule of another record type: what the walk reads
    of each completed task. *)
type 'r fields = {
  f_task : 'r -> int;  (** task id, for tie-breaks *)
  f_instance : 'r -> int;
  f_pe_index : 'r -> int;
  f_ready_ns : 'r -> int;
  f_dispatched_ns : 'r -> int;
  f_completed_ns : 'r -> int;
  f_dma_ns : 'r -> int;
  f_stall_ns : 'r -> int;
}

type 'r step_of = {
  s_task : 'r;
  s_edge : edge;
  s_gap_ns : int;  (** predecessor completion (or t=0) to dispatch *)
  s_service_ns : int;
  s_slack_ns : int;  (** margin before the next-latest constraint binds *)
}

type step = task_exec step_of

type 'r path = {
  cp_steps : 'r step_of list;  (** forward (injection-to-makespan) order *)
  cp_length_ns : int;
  cp_gap_ns : int;
  cp_service_ns : int;
  cp_observe_ns : int;
      (** terminal segment: last completion to the WM sweep that
          observed it (the reported makespan) *)
  cp_dma_ns : int;  (** DMA phase time spent by path tasks *)
  cp_stall_ns : int;  (** fabric stall time charged to path tasks *)
  cp_dma_frac : float;  (** [cp_dma_ns / cp_length_ns] *)
}

type critical_path = task_exec path

val path :
  'r fields -> 'r array -> makespan_ns:int -> ?inject_ns:(int -> int) -> unit -> 'r path
(** The critical path of the tasks in [a], in completion order, over a
    run of [makespan_ns]; [inject_ns] gives an instance's injection
    time, against which a dependency step's slack is measured (default
    0).  Backward walk from the last completion.  Step gaps and
    services partition [0, last completion] and [cp_observe_ns] covers
    the rest, so [cp_length_ns] is [makespan_ns] whenever that is at or
    after the last completion.  The latest completion binds; among
    equal completions the lowest task id wins, then the earlier
    position in [a].  Cost: O(log n) per step of the path, after one
    bucketing pass of the tasks by instance and one by PE, each made the
    first time the walk needs it, and a sort of each group it consults
    unless that group is already in completion order. *)

val path_rows :
  int fields -> int -> makespan_ns:int -> ?inject_ns:(int -> int) -> unit -> int path
(** [path_rows f n]: {!path} over rows [0 .. n-1], a task being its row
    number, for records kept as columns. *)

val critical_path : t -> critical_path
(** {!path} over the log's tasks, its makespan and injection times:
    [cp_length_ns = makespan_ns t] (the property the test suite pins
    on random DAGs for both engines). *)

(** {1 Utilization / occupancy} *)

val pe_class : string -> string
(** PE label with trailing instance digits stripped: ["fft2"] ->
    ["fft"]. *)

val utilization : t -> (string * float) list
(** Busy (service) fraction of makespan per observed PE, in PE-index
    order.  PEs that completed no task do not appear. *)

val utilization_by_class : t -> (string * float) list
(** Mean utilization over the observed PEs of each class, in first-
    appearance order. *)

val occupancy_by_class : t -> (string * (int * int) list) list
(** Per class, the step series of concurrently running tasks
    [(t_ns, level)]. *)

(** {1 Queueing-delay breakdown} *)

type dist = {
  d_n : int;
  d_mean_us : float;
  d_p50_us : float;
  d_p95_us : float;
  d_max_us : float;
}

type queueing = { q_wait : dist; q_service : dist; q_stall : dist }

val queueing : t -> queueing
(** Per-task wait (ready to dispatch), service (dispatch to complete)
    and attributed fabric-stall distributions. *)

(** {1 Rendering} *)

val pp : Format.formatter -> t -> unit
(** The [dssoc_emu analyze] text report: summary line, critical-path
    table, utilization by class, queueing breakdown. *)

val to_json : t -> Dssoc_json.Json.t
(** Structured form of the same analysis (plus occupancy timelines). *)
