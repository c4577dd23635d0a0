(** Deterministic fault injection for the shared engine core.

    A fault {!plan} describes, independently of any engine, which
    failures may strike which PEs during an emulation.  Compiling the
    plan against a configuration's PE list yields a {!t} that the
    resource handlers consult once per dispatched attempt.

    Determinism is the whole point: every probabilistic draw is keyed
    purely on [(fault_seed, task id, attempt)] via {!Prng.derive_seed}
    — never on the PE, wall clock or dispatch order — so the
    deterministic and native engines replay identical fault schedules, exactly
    as sweep sharding seeds grid points order-independently.  Timed
    events (permanent PE death, quarantine expiry) are expressed in
    emulation time and read through each backend's own clock. *)

(** What went wrong with one execution attempt. *)
type failure =
  | Pe_dead  (** the PE had permanently failed before the attempt *)
  | Transient  (** recoverable glitch; the PE heals after a quarantine *)
  | Dma_error  (** accelerator transfer fault (accelerator PEs only) *)
  | Watchdog_timeout  (** the task hung and the dispatch watchdog fired *)

val failure_name : failure -> string

(** Which PEs a rule applies to: every PE, one PE by exact label
    (["fft0"]), or a whole class by kind name (["cpu_arm_a53"],
    ["accel_fft"]) or the generic ["accel"]/["cpu"] groups. *)
type target = All | Pe_named of string

type fkind =
  | Die_at of int  (** permanent death at an emulation time (ns) *)
  | Transient_faults of { p : float; recover_ns : int }
  | Dma_errors of { p : float; recover_ns : int }
  | Hangs of { p : float; recover_ns : int }
  | Slowdowns of { p : float; factor : float }

type rule = { target : target; fault : fkind }

type plan = {
  fault_seed : int64;
  rules : rule list;
  max_attempts : int;  (** per-task attempt budget (default 4) *)
  backoff_base_ns : int;  (** first retry delay (default 100 us) *)
  backoff_cap_ns : int;  (** exponential backoff ceiling (default 10 ms) *)
  watchdog_factor : float;  (** hang detection at [factor * estimate] *)
  watchdog_floor_ns : int;  (** but never sooner than this *)
}

val default_plan : plan
(** No rules, default budgets ([fault_seed = 1L]). *)

val with_seed : plan -> int64 -> plan

(* ---------------- compiled plans ---------------- *)

(** Everything [compile] needs to know about a PE; mirrors
    [Dssoc_soc.Pe] without depending on it. *)
type pe_info = { pe_label : string; pe_kind : string; pe_is_cpu : bool }

type t
(** A plan compiled against a concrete PE array, or {!disabled}. *)

val disabled : t
(** Injects nothing and costs (almost) nothing to consult. *)

val compile : plan -> pes:pe_info array -> t
(** Resolve rule targets to PE indices.  @raise Invalid_argument when a
    rule's target matches no PE of the configuration. *)

val enabled : t -> bool

(** Outcome of consulting the plan for one execution attempt. *)
type decision =
  | Proceed
  | Proceed_slow of int
      (** run the kernel once, then model this many extra ns *)
  | Fail of { after_ns : int; reason : failure; quarantine_ns : int }
      (** the attempt burns [after_ns] of PE time, the kernel must NOT
          run, and the PE is quarantined for [quarantine_ns]
          ([max_int] = permanently dead, [0] = no quarantine) *)

val decide : t -> pe:int -> now:int -> task_id:int -> attempt:int -> est_ns:int -> decision
(** [attempt] is 1-based.  Probabilistic draws depend only on
    [(task_id, attempt)]; the planned-death check additionally reads
    [now].  [est_ns] scales failure-detection latencies. *)

val death_ns : t -> pe:int -> int option
(** The planned permanent-death time of a PE, if any. *)

val max_attempts : t -> int

val backoff_ns : t -> attempt:int -> int
(** Capped exponential: [backoff_base_ns * 2^(attempt-1)], at most
    [backoff_cap_ns].  [attempt] is the number of failures so far. *)

val watchdog_ns : t -> est_ns:int -> int
(** Watchdog deadline for a dispatch with the given estimate. *)

(* ---------------- spec strings ---------------- *)

val of_spec : ?seed:int64 -> string -> (plan, string) result
(** Parse a [--faults] specification: comma-separated clauses, each
    [TARGET:FAULT] with colon-separated [key=value] options, plus
    global knob clauses.  Examples:

    - [fft0:die@2ms] — PE [fft0] dies 2 ms into the run
    - [*:transient:p=0.1:recover=0.5ms] — every attempt anywhere fails
      with probability 0.1, quarantining the PE for 0.5 ms
    - [accel:dma:p=0.05] — DMA errors on accelerator PEs
    - [cpu:hang:p=0.02] — hangs caught by the watchdog
    - [fft1:slow:p=0.2:factor=3] — slowdowns (x3 service time)
    - [retries=5], [backoff=50us], [backoff-cap=2ms] — knobs

    Durations accept [ns]/[us]/[ms]/[s] suffixes (bare = ns).

    Parse errors name the offending clause — its 1-based index, its
    text, and its character offset in the spec — followed by what was
    wrong with it, e.g.
    [fault spec: clause 2 ("fft0:die@soon", at offset 21): die@ wants
    a duration, got "soon"]. *)

val spec_grammar : string
(** One-paragraph grammar summary for CLI help. *)
