(** Kernel execution-cost model.

    The deterministic engines charge *modelled* time from this table
    (kernel outputs are computed separately, after the run), calibrated
    against the paper's measurements (Table I standalone times, the
    Fig. 9 CPU-vs-FFT-accelerator crossover, and the Case Study 4
    substitution factors).  CPU cost of a kernel of size [n] is

    {[ base + lin*n + nlogn*n*log2 n + quad*n^2  (ns, reference core) ]}

    divided by the executing core's [perf_factor].  Accelerator cost is
    priced from the device model: DMA round trip + setup + streaming
    compute (see {!Pe.accel_class}); transfers larger than the device's
    local memory are chunked. *)

type profile = { base_ns : float; lin_ns : float; nlogn_ns : float; quad_ns : float }

val register : string -> profile -> unit
(** Register or replace the cost profile of a kernel class.  All
    built-in kernels are pre-registered (see the implementation for the
    calibrated constants). *)

val lookup : string -> profile option

val known_kernels : unit -> string list
(** Registered kernel-class names, sorted. *)

val cpu_cost_ns : kernel:string -> n:int -> Pe.cpu_class -> int
(** @raise Invalid_argument for an unregistered kernel. *)

val accel_cost_ns : bytes_in:int -> bytes_out:int -> n:int -> Pe.accel_class -> int
(** Full accelerator turnaround: DMA in, setup, compute, DMA out. *)

val accel_phases_ns :
  bytes_in:int -> bytes_out:int -> n:int -> Pe.accel_class -> int * int * int
(** [(dma_in, device_compute, dma_out)] — the engine needs the split
    because the manager thread occupies its host core only during the
    DMA phases and sleeps during device compute (Section II-D). *)

val chunk_count : Pe.accel_class -> bytes:int -> int
(** Number of BRAM-sized DMA chunks a transfer decomposes into (each
    pays the device's per-transfer latency); [0] when [bytes <= 0].
    Used by the fabric layer to split a phase into fixed latency vs
    bandwidth demand. *)

(** {1 Workload-manager overhead constants}

    Charged on the overlay core per workload-manager loop iteration;
    scaled by the overlay core's [perf_factor].  Calibrated so FRFS
    costs ~2.5 us per scheduling invocation on the ZCU102 overlay
    (Fig. 10b). *)

val monitor_per_pe_ns : float
(** Completion-status polling cost per PE. *)

val ready_update_per_task_ns : float
(** Ready-list insertion cost per newly ready task. *)

val dispatch_per_task_ns : float
(** Handler communication cost per dispatched task. *)

val sched_base_ns : float
(** Fixed cost of entering the scheduler. *)

val sched_frfs_per_pe_ns : float
(** FRFS: linear in PE count (paper: "complexity of FRFS is equal to
    the number of PEs"). *)

val sched_met_per_task_ns : float
(** MET: linear in examined ready-task count (paper: O(n)). *)

val sched_eft_per_pair_ns : float
(** EFT: quadratic — per (ready task x ready task) pair over the
    examined window (paper: O(n^2)). *)

val sched_examined_cap : int
(** How many ready-queue entries one scheduling invocation examines
    (and is charged for).  The paper's schedulers scan the whole ready
    list; bounding the window keeps the overhead feedback loop stable
    while preserving the O(n)/O(n^2) growth across injection rates. *)
