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
    dispatch time. *)

val estimate_ns : Task.t -> Dssoc_soc.Pe.t -> int
(** Full turnaround estimate on the given PE, computed from the cost
    model.  Pure in the task's cost metadata and the PE class.
    @raise Invalid_argument when the task does not support the PE. *)

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
      (** the class of each workload item; items whose specs are the
          same (physically or structurally) share one *)
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

val instantiate : t -> fresh_stores:bool -> Task.instance array
(** One instance per workload item, with dense task ids from 0.  With
    [fresh_stores] each instance gets its own initialised store;
    otherwise every instance shares one empty placeholder, for runs
    that never read a store. *)

val class_of : t -> Task.t -> cls
(** The class of the task's instance. *)

val row : t -> Task.t -> int -> int
(** [row m task pe_index]: the task's row in {!class_of}'s columns. *)

val estimate : t -> Task.t -> int -> int
(** [estimate m task pe_index] = [estimate_ns task m.pes.(pe_index)]
    as two array loads.  Only meaningful when the task supports the PE
    (callers check {!Task.supports} first). *)
