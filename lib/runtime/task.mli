(** Tasks and application instances.

    A task is one DAG node of one application instance; it carries the
    bookkeeping the workload manager needs for scheduling, dispatch
    and measurement (the "DAG node data structure" of Section II-C).

    Two layouts hold that bookkeeping.  {!Compiled_engine}'s machine
    keeps an instance as a {!state}: its class, a few header fields and
    one int array indexed by node, so a task costs [width] words and no
    record.  A {!t} per task, gathered in an {!instance}, is what code
    outside the machine reads: the functional path ({!instantiate},
    {!Functional}), the instances a detailed run returns (built from
    their states after the run, {!instance_of_state}), a custom
    policy's ready window ({!view}) and the test suite's reference
    engine. *)

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
  tp_state : int array;  (** a fresh {!state}'s [st_nodes], copied by {!state} *)
}
(** A spec's DAG as index arrays over node positions, worked out once
    and shared by every instance built from it. *)

val topology : Dssoc_apps.App_spec.t -> topology

(** {1 Instance state}

    Node [j]'s fields sit at [st_nodes.(j * width + f)], [f] one of the
    offsets below; times are ns, [-1] until set. *)

val width : int
(** Ints per node: 8. *)

val f_status : int
(** The status, as one of {!blocked}, {!ready}, {!running}, {!done_}. *)

val f_unmet : int
val f_ready : int
val f_dispatched : int
val f_completed : int
val f_dma : int
val f_pe : int
val f_attempts : int

val blocked : int
val ready : int
val running : int
val done_ : int

type state = {
  st_id : int;  (** the instance id *)
  st_cls : int;  (** its class in the run's lowering *)
  st_task_base : int;  (** node [j]'s task id is [st_task_base + j] *)
  st_arrival_ns : int;
  st_store : Dssoc_apps.Store.t;
  st_nodes : int array;  (** [width] ints per node: the fields of a {!t} that change *)
  mutable st_remaining : int;  (** tasks not yet Done *)
  mutable st_completed_at : int;  (** -1 until the last task finishes *)
}
(** An instance as the machine holds it. *)

val state :
  topology ->
  cls:int ->
  store:Dssoc_apps.Store.t ->
  task_id_base:int ->
  inst_id:int ->
  arrival_ns:int ->
  state
(** A fresh state: every node Blocked on its predecessors, one copy of
    [tp_state]. *)

val status : state -> int -> status
(** [status st j]: node [j]'s status. *)

val attempts : state -> int -> int
(** [attempts st j]: node [j]'s dispatch count. *)

val completed_pe : state -> int -> int
(** [completed_pe st j]: the PE that ran node [j], once it is Done;
    [-1] before. *)

val view : topology -> state -> int -> t
(** [view tp st j]: node [j] of the state as a fresh task record, a
    snapshot that later changes to the state do not reach. *)

val instance_of_state : topology -> state -> instance
(** Every node's {!view}, as an instance over the state's store. *)

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
