(** Task-scheduling policy library (Section II-C).

    The workload manager hands the policy a snapshot of the ready-task
    list and the PE states; the policy returns assignments of ready
    tasks to *idle* PEs.  The default library implements the paper's
    four policies — FRFS, MET, EFT and RANDOM — and user policies can
    be registered under new names (the paper's "custom scheduling
    algorithm" hook). *)

type pe_state = {
  pe : Dssoc_soc.Pe.t;
  mutable idle : bool;
  mutable busy_until : int;
      (** estimated completion of the in-flight task (EFT looks at
          this); meaningful only when not idle *)
  mutable available : bool;
      (** false for quarantined or dead PEs: policies must neither
          select nor reserve them.  [idle] implies [available]; EFT is
          the one built-in that also reads it directly (it reserves
          busy-but-available PEs via [busy_until]). *)
}

type context = {
  now : int;
  ready : Task.t array;
      (** ready-window snapshot in ready (FIFO) order; only entries
          [0, nready) are valid — the array is engine-owned scratch
          reused across invocations and may be longer (or hold stale
          tasks) past that point *)
  nready : int;  (** number of valid entries at the front of [ready] *)
  pes : pe_state array;
  estimate : Task.t -> int -> int;
      (** [estimate task pe_index]: modelled execution time on
          [pes.(pe_index)].  The engines answer it from the run's
          price classes ({!Exec_model.estimate}), so calling it in an
          inner loop is two array loads.  Only defined when the task
          supports that PE — check {!Task.supports} first. *)
  prng : Dssoc_util.Prng.t;
  mutable ops : int;
      (** policies increment this per elementary examination; the
          engine charges overlay-core time proportional to the policy's
          complexity model *)
}

type assignment = { task : Task.t; pe_index : int }

type policy = { name : string; schedule : context -> assignment list }

(** {1 Built-in policies}

    Each built-in walks the ready window in FIFO order and stops once
    no PE is idle: assignments only land on idle PEs and [idle] never
    turns true again within an invocation, so the rest of the window
    cannot change the result (nor RANDOM's draws, which are
    idle-gated).  Their [ops] counts the full window,
    [nready * Array.length pes], which is what the overhead model and
    the [sched] events report. *)

val frfs : policy
(** First ready-first start: walk the ready list in order; each task
    goes to the first idle PE that supports it. *)

val met : policy
(** Minimum execution time: each ready task goes to the idle
    supporting PE with the smallest estimated execution time. *)

val eft : policy
(** Earliest finish time: a planning pass in ready order; each task
    picks the supporting PE with the earliest finish (busy PEs finish
    at [busy_until] + estimate, and the pass advances a virtual
    availability horizon as it commits tasks).  A task whose winner is
    busy reserves it and keeps waiting instead of falling back to an
    idle PE — the behaviour whose O(n^2) cost Case Study 2 charges. *)

val random : policy
(** Uniformly random idle supporting PE per ready task. *)

val power : policy
(** Power-aware heuristic (the paper's future-work extension): each
    ready task goes to the idle supporting PE with the lowest
    estimated energy-to-completion (execution time x active power),
    ties broken by execution time.  On big.LITTLE hosts this steers
    work to LITTLE cores until they saturate. *)

(** {1 Registry} *)

val register : policy -> unit
(** Add or replace a policy by name.  Built-ins are pre-registered. *)

val find : string -> (policy, string) result
(** Case-insensitive lookup. *)

val names : unit -> string list

(** {1 Overhead model} *)

val overhead_ns : policy_name:string -> ready:int -> pes:int -> ops:int -> int
(** Modelled scheduling-invocation cost on the reference overlay core:
    FRFS is linear in PE count, MET linear in ready-task count, EFT
    quadratic in ready-task count (the complexities stated in Case
    Study 2); unknown (custom) policies are charged per recorded
    elementary operation. *)

val overhead : policy_name:string -> pes:int -> ready:int -> ops:int -> int
(** [overhead ~policy_name ~pes] resolves {!overhead_ns}'s formula once,
    for an engine that charges it every scheduling round. *)
