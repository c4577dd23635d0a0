(** Task execution-time model, lowered once per run.

    Bridges the cost model to tasks: picks the matching platform entry,
    honours an explicit [cost_us] override from the JSON, and otherwise
    prices CPU execution from the kernel profile and accelerator
    execution from the device model and the fabric.

    A price depends only on a node's cost metadata and the PE class
    (DS3's per-(task type, PE) profile table), so a run prices each
    distinct app spec once: {!lower} turns it into a {!cls} holding the
    spec's topology and one row per (node, PE).  All three engines, the
    scheduling context's estimates and fault-latency scaling read their
    tasks and prices from the classes; no engine prices a task at
    dispatch time.  An instance is built from its class: as the
    machine's compact {!Task.state} ({!state}) or as task records
    ({!instance}). *)

val estimate_ns : Task.t -> Dssoc_soc.Pe.t -> int
(** Full turnaround estimate on the given PE, computed from the cost
    model.  Pure in the task's cost metadata and the PE class.
    @raise Invalid_argument when the task does not support the PE. *)

val node_kernel :
  Dssoc_apps.App_spec.t -> Dssoc_apps.App_spec.node -> Dssoc_soc.Pe.t -> Dssoc_apps.Kernels.kernel
(** The kernel the spec's node runs on the PE.
    @raise Invalid_argument as {!resolve_kernel}. *)

val resolve_kernel : Task.t -> Dssoc_soc.Pe.t -> Dssoc_apps.Kernels.kernel
(** The functional kernel to execute for this (task, PE) pairing.
    @raise Invalid_argument on unknown shared object or symbol — {!lower}
    resolves every pairing before a run, on every engine. *)

(** {1 Classes} *)

type cls = private {
  topology : Task.topology;
  est : int array;
      (** {!estimate_ns} per (node, PE) row [node * n_pes + pe];
          [min_int] where the node does not support the PE *)
  dma_in : int array;  (** accelerator rows: ideal DMA-in ns ({!Dssoc_soc.Fabric.Ideal}) *)
  compute : int array;  (** accelerator rows: device compute ns *)
  dma_out : int array;
  demand_in : int array;
      (** shared-link demand ns of the DMA-in stream under a bus;
          [-1] when the phase bypasses the fabric (ideal fabric, or no
          bytes to move) and replays [dma_in] on the host core *)
  demand_out : int array;
  fixed_in : int array;  (** chunk + hop latency paid after the link service *)
  fixed_out : int array;
  bytes_in : int array;  (** stream bytes; [0] when bypassing *)
  bytes_out : int array;
}
(** One app spec lowered against one platform.  An explicit [cost_us]
    on an accelerator entry is all device compute (truncated to whole
    ns, where [est] rounds) and moves no data. *)

(** {1 A run's lowering} *)

type t = private {
  pes : Dssoc_soc.Pe.t array;  (** the configuration's PEs, in placement order *)
  n_pes : int;
  classes : cls array;
      (** one per distinct spec: specs that are the same (physically or
          structurally) share one *)
  items : int array;  (** each workload item's class *)
  arrivals : int array;  (** each item's arrival, ns *)
}

val lower :
  engine_name:string -> config:Dssoc_soc.Config.t -> Dssoc_apps.Workload.t -> t
(** Lower every distinct spec of the workload once, validating it:
    some PE supports every node, every supported pairing's kernel
    resolves, and every fabric price fits an [int].
    @raise Invalid_argument (prefixed with [engine_name] for an
    unsupported node; {!resolve_kernel}'s message for a missing
    kernel; {!Dssoc_soc.Fabric.demand_ns}/{!Dssoc_soc.Fabric.fixed_ns}'s
    for an overflow). *)

val lower_specs :
  engine_name:string -> config:Dssoc_soc.Config.t -> Dssoc_apps.App_spec.t list -> t
(** {!lower} for a resident service, which admits its own arrivals:
    class [k] is the [k]-th spec's, and there are no items. *)

val instance :
  t ->
  int ->
  store:Dssoc_apps.Store.t ->
  task_id_base:int ->
  inst_id:int ->
  arrival_ns:int ->
  Task.instance
(** [instance m k ...] is one instance of class [k] ({!Task.instance}). *)

val state :
  t ->
  int ->
  store:Dssoc_apps.Store.t ->
  task_id_base:int ->
  inst_id:int ->
  arrival_ns:int ->
  Task.state
(** [state m k ...] is the machine's state of one class-[k] instance
    ({!Task.state}). *)

val instance_of_state : t -> Task.state -> Task.instance
(** The state as task records ({!Task.instance_of_state}). *)

val stores : t -> int -> Dssoc_apps.Store.t
(** [stores m] gives fresh initialised stores by class: each class's
    store is built once ({!Dssoc_apps.Store.create}) on first use and
    every call returns a {!Dssoc_apps.Store.copy} of it. *)

val task_count : t -> int -> int
(** [task_count m k]: the number of tasks of a class-[k] instance. *)

val class_of : t -> Task.t -> cls
(** The class of the task's instance ([classes.(task.cls)]). *)

val node_names : t -> (string * string array) array
(** Per class, its app name and its node names in declaration order:
    the names a traced run registers with {!Dssoc_obs.Obs.attach}. *)

val name_bases : t -> int array
(** Per class, the number of its first node in {!node_names} read
    flat: node [j] of class [k] is name [(name_bases m).(k) + j], as in
    {!Dssoc_obs.Obs.attach}'s numbering. *)

val names : t -> (string * string) array
(** {!node_names} flattened to (app, node) by name number. *)

val row : t -> Task.t -> int -> int
(** [row m task pe_index]: the task's row in {!class_of}'s columns. *)

val estimate : t -> Task.t -> int -> int
(** [estimate m task pe_index] = [estimate_ns task m.pes.(pe_index)]
    as two array loads.  Only meaningful when the task supports the PE
    (callers check {!Task.supports} first). *)
