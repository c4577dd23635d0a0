(** Tasks and application instances.

    A task is one DAG node of one application instance; it carries the
    bookkeeping the workload manager needs for scheduling, dispatch
    and measurement (the "DAG node data structure" of Section II-C). *)

type status =
  | Blocked  (** waiting on unfinished predecessors *)
  | Ready  (** in the ready-task list *)
  | Running  (** dispatched to a PE *)
  | Done

type t = {
  id : int;  (** unique within an emulation *)
  index : int;
      (** position of the node in its spec's declaration order: the
          task's row in its instance's {!topology} and price class *)
  instance_id : int;
  cls : int;
      (** the instance's class in its run's lowering
          ({!Exec_model.class_of}); [0] outside a lowering *)
  app_name : string;
  node : Dssoc_apps.App_spec.node;
  spec : Dssoc_apps.App_spec.t;
  store : Dssoc_apps.Store.t;  (** shared with the other tasks of the instance *)
  mutable status : status;
  mutable unmet : int;  (** outstanding predecessor count *)
  mutable ready_at : int;  (** ns, emulation time *)
  mutable dispatched_at : int;
  mutable completed_at : int;
  mutable dma_ns : int;
      (** DMA-in plus DMA-out time of the attempt that ran on an
          accelerator, measured by its resource manager *)
  mutable pe : int;  (** index of the PE that executed it, once dispatched; -1 before *)
  mutable attempts : int;  (** dispatch count, incl. failed attempts *)
  mutable last_failure : (Dssoc_fault.Fault.failure * int) option;
      (** set by the resource handler when an attempt failed: the
          failure and the quarantine to impose on the PE (ns;
          [max_int] = permanent).  Cleared by the workload manager. *)
}

type instance = {
  inst_id : int;
  app : Dssoc_apps.App_spec.t;
  store : Dssoc_apps.Store.t;
  arrival_ns : int;
  tasks : t array;  (** in spec declaration order: node [j] of the {!topology} *)
  mutable remaining : int;  (** tasks not yet Done *)
  mutable completed_at : int;  (** -1 until the last task finishes *)
}

type topology = {
  tp_spec : Dssoc_apps.App_spec.t;
  tp_nodes : Dssoc_apps.App_spec.node array;  (** declaration order *)
  tp_unmet : int array;  (** initial unmet-predecessor counts *)
  tp_succ : int array array;  (** successor node indices, JSON order *)
  tp_entry : int array;  (** nodes with no predecessors, node order *)
}
(** A spec's DAG as index arrays over node positions, worked out once
    and shared by every instance built from it. *)

val topology : Dssoc_apps.App_spec.t -> topology

val instance :
  topology ->
  cls:int ->
  store:Dssoc_apps.Store.t ->
  task_id_base:int ->
  inst_id:int ->
  arrival_ns:int ->
  instance
(** Build the task records over [store], which every task of the
    instance shares.  The tasks occupy ids
    [task_id_base ..= task_id_base + task_count - 1]. *)

val instantiate :
  task_id_base:int -> inst_id:int -> arrival_ns:int -> Dssoc_apps.App_spec.t -> instance
(** {!instance} of the spec's {!topology} over a fresh store,
    initialising variables per the spec. *)

val supports : t -> Dssoc_soc.Pe.t -> bool
(** True when some platform entry of the node matches the PE: the
    generic entry name ["cpu"] matches any CPU-class PE, anything else
    matches by exact PE-class name. *)

val node_entry :
  Dssoc_apps.App_spec.node -> Dssoc_soc.Pe.t -> Dssoc_apps.App_spec.platform_entry option
(** The node's first platform entry matching the PE, if any. *)
