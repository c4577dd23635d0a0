(** Workload generation (Section II-B).

    A workload is a time-ordered queue of application instances.  In
    *validation mode* every instance arrives at t=0 and the emulation
    ends when all complete.  In *performance mode* each application is
    injected periodically with a given probability inside a time
    window, emulating dynamic job arrival (Case Studies 2 and 3). *)

type item = {
  spec : App_spec.t;
  arrival_ns : int;
  instance : int;  (** per-application instance counter, from 0 *)
}

type t = {
  items : item list;  (** sorted by arrival time (stable) *)
  window_ns : int;  (** performance-mode injection window; 0 in validation mode *)
}

val validation : (App_spec.t * int) list -> t
(** [(app, count)] pairs, all instances arriving at t=0, ordered as
    given. *)

type injection = {
  app : App_spec.t;
  period_ns : int;  (** injection attempt period *)
  probability : float;  (** chance that each attempt actually injects *)
}

val performance : prng:Dssoc_util.Prng.t -> window_ns:int -> injection list -> t
(** Attempts at t = 0, period, 2*period, ... < window; each succeeds
    with [probability] (the paper's evaluations use probability 1).
    Items are merged across applications and sorted by arrival. *)

val job_count : t -> int

val injection_rate_per_ms : t -> float
(** Jobs per millisecond over the window (or over the last arrival in
    validation mode); matches the x-axis of Figs. 10 and 11. *)

val count_by_app : t -> (string * int) list
(** Instance count per application name, sorted by name — the rows of
    Table II. *)

(** {1 Table II presets}

    The paper's five performance-mode traces over a 100 ms window.
    Periods are derived from the instance counts of Table II
    (count = ceil(window / period) with probability 1). *)

val table2_rates : float list
(** [1.71; 2.28; 3.42; 4.57; 6.92] jobs/ms. *)

val table2_counts : float -> (string * int) list
(** Expected instance counts for one of the rates above
    (pulse_doppler, range_detection, wifi_tx, wifi_rx).
    @raise Invalid_argument for an unknown rate. *)

val table2_workload : ?window_ms:float -> rate:float -> unit -> t
(** Build the trace for one of {!table2_rates} using the reference
    applications.  Probability 1 makes it deterministic. *)
