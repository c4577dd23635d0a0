(** The discrete-event substrate of the deterministic engine.

    {!Compiled_engine} runs on this module, and so does the test
    suite's reference engine (the {!Engine_core} protocol over effect
    threads): one virtual nanosecond clock, one int-coded event heap, and the two
    contention mechanisms of the timing model (Section II-D of the
    paper):

    - {b processor-shared host cores.}  Manager threads placed on one
      host core share it: with [k] threads busy, each progresses at
      [q/(q+s)/k] of full rate ([q] the round-robin quantum, [s] the
      context-switch cost; full rate when alone).  This is the
      mechanism behind the 2C+2F ≈ 2C+1F anomaly of Fig. 9.
    - {b the fabric link ledger}, under a {!Dssoc_soc.Fabric.Bus}: one
      link serving in-flight DMA streams at fair share [1/k], at most
      [fifo_depth] of them; later streams queue FIFO and their manager
      threads stall.

    {b Threads.}  The substrate knows manager threads only by index:
    resource manager [i] is thread [i] (placement order) and the
    workload manager is thread [n_pes].  Each thread has at most one
    outstanding suspension, a wake-up condition (a pending flag plus a
    waiting flag) and a generation counter that invalidates stale
    deadlines.  The blocking calls below return [true] when they
    suspended the thread — the engine must then stop running it until
    [on_resume] — and [false] when it may continue at once.

    {b Determinism.}  Events pop in (time, insertion sequence) order,
    so equal-time events run FIFO, and every pushed event is part of
    the engines' shared contract: the [event_heap_depth] gauge and
    every golden depend on the exact push sequence.  An event pushed
    for the current instant (most resumes and signals) skips the heap
    for a FIFO lane that runs after the heap entries due now, which
    were pushed before the clock got here: the same order, without the
    sifts.  {!depth} and the gauge count both. *)

type t

val create : ?obs:Dssoc_obs.Obs.t -> clock0:int -> Dssoc_soc.Config.t -> t
(** A substrate for one run of the configuration, starting at virtual
    time [clock0] with an empty heap.  Host core [0] is the overlay
    core (the workload manager's); the other cores follow placement
    order, deduplicated by [core_id].  With metrics on [obs], registers
    [fabric_stall_ns] and [fabric_occupancy] (bus fabric only) and then
    [event_heap_depth] — call it after {!Dssoc_obs.Obs.attach} to
    keep the engines' registration order. *)

val clock : t -> int ref
(** The virtual clock, for reading only: it advances only between
    callbacks of {!run}.  A ref so the engines' hot paths read it
    without a call. *)

val counters : t -> Engine_core.fabric_counters
(** Fabric contention accumulated so far (all zero under [Ideal]). *)

val depth : t -> int
(** Pending events, heap and same-instant lane together. *)

val start : t -> int -> unit
(** Schedule the thread's first callback ([on_start]) at the current
    time. *)

val work : t -> int -> int -> bool
(** [work d th ns]: occupy the thread's host core for [ns] of full-rate
    work (dilated while the core is shared).  [false] when [ns <= 0]. *)

val sleep : t -> int -> int -> bool
(** [sleep d th ns]: suspend for [ns] of plain delay, no core held.
    [false] when [ns <= 0]. *)

val stream : t -> int -> bytes:int -> int -> bool
(** [stream d th ~bytes ns]: one DMA stream of [ns] link service through
    the fabric, stalling while the FIFO is full; [bytes] only labels
    the stream events.  [false] when [ns <= 0].  Bus fabric only. *)

val await : t -> int -> bool
(** Block the thread on its condition; [false] (and the pending signal
    consumed) when it was already signalled. *)

val await_until : t -> int -> int -> bool
(** Like {!await}, also waking at the absolute time given. *)

val signal : t -> int -> unit
(** Wake the thread if it waits on its condition, else leave the
    signal pending for its next {!await}. *)

val sample_depth : t -> unit
(** Set the [event_heap_depth] gauge to {!depth}, if registered. *)

val run : t -> on_start:(int -> unit) -> on_resume:(int -> unit) -> unit
(** Pop events until the heap is empty.  Core, fabric and deadline
    events are handled here; a thread's first event calls [on_start],
    every later wake-up calls [on_resume]. *)
