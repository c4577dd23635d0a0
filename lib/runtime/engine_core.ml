module Pe = Dssoc_soc.Pe
module Config = Dssoc_soc.Config
module Cost_model = Dssoc_soc.Cost_model
module App_spec = Dssoc_apps.App_spec
module Prng = Dssoc_util.Prng
module Obs = Dssoc_obs.Obs
module Fault = Dssoc_fault.Fault

(* ------------------------------------------------------------------ *)
(* Parameters                                                          *)
(* ------------------------------------------------------------------ *)

type params = { seed : int64; jitter : float; reservation_depth : int }

let default_params = { seed = 1L; jitter = 0.03; reservation_depth = 0 }

let jittered prng ~jitter ns =
  if jitter <= 0.0 || ns <= 0 then ns
  else begin
    let f = Prng.gaussian prng ~mu:1.0 ~sigma:jitter in
    max 1 (int_of_float (Float.round (float_of_int ns *. Float.max 0.1 f)))
  end

(* ------------------------------------------------------------------ *)
(* Resource handlers                                                   *)
(* ------------------------------------------------------------------ *)

type 'h handler = {
  h_pe : Pe.t;
  h_index : int;  (** this handler's PE index (column of the price classes) *)
  h_capacity : int;  (** 1 + reservation-queue depth (1 = the paper's baseline) *)
  h_pending : Task.t Queue.t;  (** dispatched by the WM, not yet executed *)
  h_completed : Task.t Queue.t;  (** executed, awaiting WM bookkeeping *)
  mutable h_inflight : int;  (** pending + currently executing; WM-owned *)
  mutable h_stop : bool;
  mutable h_busy_ns : int;  (** occupancy (execution time), not queue residence *)
  mutable h_tasks_run : int;
  mutable h_busy_until : int;  (** EFT availability horizon; WM-owned *)
  mutable h_quarantined_until : int;
      (** WM-owned fault state: 0 = healthy, [max_int] = permanently
          dead, else the emulation time the quarantine lifts *)
  h_backend : 'h;  (** backend-private per-handler state *)
}

let make_handler ~pe ~index ~reservation_depth backend =
  {
    h_pe = pe;
    h_index = index;
    h_capacity = 1 + max 0 reservation_depth;
    h_pending = Queue.create ();
    h_completed = Queue.create ();
    h_inflight = 0;
    h_stop = false;
    h_busy_ns = 0;
    h_tasks_run = 0;
    h_busy_until = 0;
    h_quarantined_until = 0;
    h_backend = backend;
  }

(* ------------------------------------------------------------------ *)
(* Statistics accumulator                                              *)
(* ------------------------------------------------------------------ *)

type wm_stats = {
  mutable sched_invocations : int;
  mutable sched_ns : int;
  mutable wm_ns : int;
  mutable records : Stats.task_record list;
  mutable faults : int;  (** failed or slowed execution attempts *)
  mutable retries : int;
  mutable quarantines : int;
  mutable pe_deaths : int;
  mutable aborted : string option;  (** first abort reason, if any *)
}

let make_stats () =
  {
    sched_invocations = 0;
    sched_ns = 0;
    wm_ns = 0;
    records = [];
    faults = 0;
    retries = 0;
    quarantines = 0;
    pe_deaths = 0;
    aborted = None;
  }

(* Fabric contention accumulator.  Virtual/compiled mutate it from the
   single event-loop thread; native guards it with the fabric mutex. *)
type fabric_counters = {
  mutable fc_streams : int;  (** DMA streams routed through the fabric *)
  mutable fc_stalls : int;  (** admissions that found the FIFO full *)
  mutable fc_stall_ns : int;  (** total time initiators spent queued *)
  mutable fc_max_inflight : int;  (** peak concurrent in-flight streams *)
}

let make_fabric_counters () =
  { fc_streams = 0; fc_stalls = 0; fc_stall_ns = 0; fc_max_inflight = 0 }

(* ------------------------------------------------------------------ *)
(* Backends                                                            *)
(* ------------------------------------------------------------------ *)

type 'h backend = {
  b_now : unit -> int;
  b_lock : 'h handler -> unit;
  b_unlock : 'h handler -> unit;
  b_handler_await : 'h handler -> unit;
  b_notify_handler : 'h handler -> unit;
  b_wm_await : deadline:int option -> unit;
  b_notify_wm : unit -> unit;
  b_charge : float -> unit;
  b_execute : 'h handler -> Task.t -> unit;
  b_delay : 'h handler -> int -> unit;
      (** occupy the handler's PE for a modelled duration without
          running a kernel (fault detection latency, slowdown tail) *)
  b_sched_start : unit -> int;
  b_sched_done : int -> ready:int -> ops:int -> int;
  b_wm_tick_start : unit -> int;
  b_wm_tick_end : int -> unit;
}

(* ------------------------------------------------------------------ *)
(* Shared protocol pieces                                              *)
(* ------------------------------------------------------------------ *)

(* Resolve an engine-facing fault plan against the run's handler
   array; shared by both backends so they compile identical plans. *)
let compile_fault plan ~(handlers : 'h handler array) =
  match plan with
  | None -> Fault.disabled
  | Some plan ->
    Fault.compile plan
      ~pes:
        (Array.map
           (fun h ->
             {
               Fault.pe_label = h.h_pe.Pe.label;
               pe_kind = Pe.kind_name h.h_pe.Pe.kind;
               pe_is_cpu = Pe.is_cpu h.h_pe.Pe.kind;
             })
           handlers)

(* ------------------------------------------------------------------ *)
(* Resource manager (Fig. 4)                                           *)
(* ------------------------------------------------------------------ *)

let resource_manager ?(obs = Obs.disabled) ?(fault = Fault.disabled) ~model
    (b : 'h backend) (h : 'h handler) =
  (* One execution attempt.  A faulted attempt burns PE time but never
     reaches [b_execute], where the native backend runs the kernel in
     place: only the final (successful) attempt may mutate the store. *)
  let execute (task : Task.t) started =
    if not (Fault.enabled fault) then b.b_execute h task
    else begin
      match
        Fault.decide fault ~pe:h.h_index ~now:started ~task_id:task.Task.id
          ~attempt:task.Task.attempts ~est_ns:(Exec_model.estimate model task h.h_index)
      with
      | Fault.Proceed -> b.b_execute h task
      | Fault.Proceed_slow extra_ns ->
        if Obs.enabled obs then
          Obs.on_fault_injected obs ~now:started ~task:task.Task.id
            ~pe:h.h_pe.Pe.label ~pe_index:h.h_index ~fault:"slowdown"
            ~attempt:task.Task.attempts;
        b.b_execute h task;
        if extra_ns > 0 then b.b_delay h extra_ns
      | Fault.Fail { after_ns; reason; quarantine_ns } ->
        if Obs.enabled obs then
          Obs.on_fault_injected obs ~now:started ~task:task.Task.id
            ~pe:h.h_pe.Pe.label ~pe_index:h.h_index
            ~fault:(Fault.failure_name reason) ~attempt:task.Task.attempts;
        if after_ns > 0 then b.b_delay h after_ns;
        task.Task.last_failure <- Some (reason, quarantine_ns)
    end
  in
  let rec loop () =
    b.b_lock h;
    b.b_handler_await h;
    if h.h_stop then b.b_unlock h
    else begin
      (* With a reservation queue the next task starts with no
         workload-manager round trip — the future-work optimisation
         Section III-C sketches. *)
      let rec drain () =
        match Queue.take_opt h.h_pending with
        | None -> ()
        | Some task ->
          if h.h_capacity > 1 && Obs.enabled obs then
            Obs.on_reservation_popped obs ~now:(b.b_now ()) ~pe_index:h.h_index
              ~depth:(Queue.length h.h_pending);
          b.b_unlock h;
          let started = b.b_now () in
          execute task started;
          let finished = b.b_now () in
          task.Task.completed_at <- finished;
          b.b_lock h;
          (* Occupancy, not queue residence: utilisation stays
             meaningful when a reservation queue is configured.  Failed
             attempts still occupied the PE, but only successful runs
             count as tasks run. *)
          h.h_busy_ns <- h.h_busy_ns + (finished - started);
          if task.Task.last_failure = None then h.h_tasks_run <- h.h_tasks_run + 1;
          Queue.add task h.h_completed;
          b.b_notify_wm ();
          drain ()
      in
      drain ();
      b.b_unlock h;
      loop ()
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Workload manager (Fig. 3)                                           *)
(* ------------------------------------------------------------------ *)

(* Cap on how many ready tasks a single policy invocation examines.
   The *charged* (or measured) overhead still grows with the full
   ready-list length (that is the paper's O(n)/O(n^2) effect); the cap
   only bounds the engine's own compute, and idle-PE counts make
   deeper windows pointless. *)
let sched_window = Cost_model.sched_examined_cap

let workload_manager ?(obs = Obs.disabled) ?(fault = Fault.disabled) (b : 'h backend)
    ~(handlers : 'h handler array) ~(instances : Task.instance array) ~model
    ~(policy : Scheduler.policy) ~prng ~(stats : wm_stats) =
  let n_pes = Array.length handlers in
  let fault_on = Fault.enabled fault in
  (* The ready list is an array FIFO: entries [rq_head, rq_tail) of
     [rq].  Tasks leave it lazily (dispatch flips them to Running but
     only the front is ever popped), so [rq_tail - rq_head] overstates
     the live ready-list length.  The scheduler's charged O(n)/O(n^2)
     cost must follow the *live* count, kept here.  A stale entry whose
     task becomes Ready again (a retry, or a drained reservation)
     revives at its old position; the FIFO is never compacted past
     such entries, because that would reorder fault-run schedules. *)
  let rq = ref [||] and rq_head = ref 0 and rq_tail = ref 0 in
  let rq_push (task : Task.t) =
    if !rq_tail = Array.length !rq then begin
      let live = !rq_tail - !rq_head in
      if !rq_head > 0 && 2 * !rq_head >= Array.length !rq then
        (* at least half the slots are popped: slide the window down *)
        Array.blit !rq !rq_head !rq 0 live
      else begin
        let bigger = Array.make (max sched_window (2 * Array.length !rq)) task in
        Array.blit !rq !rq_head bigger 0 live;
        rq := bigger
      end;
      rq_head := 0;
      rq_tail := live
    end;
    !rq.(!rq_tail) <- task;
    incr rq_tail
  in
  let ready_live = ref 0 in
  (* WM-owned dispatched-but-not-yet-monitored count, feeding the
     in-flight gauge; metrics are only ever touched on this thread. *)
  let inflight = ref 0 in
  let pending = ref (Array.to_list instances) in
  let unfinished = ref (Array.length instances) in
  let make_ready (task : Task.t) =
    task.Task.status <- Task.Ready;
    task.Task.ready_at <- b.b_now ();
    rq_push task;
    incr ready_live;
    if Obs.enabled obs then
      Obs.on_task_ready obs ~now:task.Task.ready_at ~task:task.Task.id
        ~instance:task.Task.instance_id ~app:task.Task.app_name
        ~node:task.Task.node.App_spec.node_name ~ready_depth:!ready_live
  in
  (* ---- fault handling (all WM-owned; no-ops when [fault_on] is false) ---- *)
  (* Tasks sleeping out a retry backoff, sorted by release time. *)
  let retry_q : (int * Task.t) list ref = ref [] in
  let insert_retry at task =
    let rec ins = function
      | ((t, _) as hd) :: tl when t <= at -> hd :: ins tl
      | rest -> (at, task) :: rest
    in
    retry_q := ins !retry_q
  in
  let abort reason = if stats.aborted = None then stats.aborted <- Some reason in
  let pe_alive h = h.h_quarantined_until <> max_int in
  let has_alive_support (task : Task.t) =
    Array.exists (fun h -> pe_alive h && Task.supports task h.h_pe) handlers
  in
  (* Permanent loss of a PE: quarantine it forever, drain its
     reservation queue back to the ready list (those tasks never
     started, so re-dispatching them elsewhere is safe), and give up
     on the run if some unfinished task now has no surviving PE. *)
  let kill_pe (h : 'h handler) ~now =
    if pe_alive h then begin
      h.h_quarantined_until <- max_int;
      stats.quarantines <- stats.quarantines + 1;
      stats.pe_deaths <- stats.pe_deaths + 1;
      if Obs.enabled obs then
        Obs.on_pe_quarantined obs ~now ~pe:h.h_pe.Pe.label ~pe_index:h.h_index
          ~until_ns:max_int ~permanent:true;
      let drained = ref [] in
      b.b_lock h;
      Queue.iter (fun t -> drained := t :: !drained) h.h_pending;
      Queue.clear h.h_pending;
      b.b_unlock h;
      List.iter
        (fun (t : Task.t) ->
          h.h_inflight <- h.h_inflight - 1;
          decr inflight;
          make_ready t)
        (List.rev !drained);
      Array.iter
        (fun inst ->
          Array.iter
            (fun (t : Task.t) ->
              if t.Task.status <> Task.Done && not (has_alive_support t) then
                abort
                  (Printf.sprintf "task %s/%s supports no surviving PE" t.Task.app_name
                     t.Task.node.App_spec.node_name))
            inst.Task.tasks)
        instances
    end
  in
  let quarantine_pe (h : 'h handler) ~until ~now =
    if pe_alive h && until > h.h_quarantined_until then begin
      h.h_quarantined_until <- until;
      stats.quarantines <- stats.quarantines + 1;
      if Obs.enabled obs then
        Obs.on_pe_quarantined obs ~now ~pe:h.h_pe.Pe.label ~pe_index:h.h_index
          ~until_ns:until ~permanent:false
    end
  in
  (* WM bookkeeping of one failed execution attempt: count it,
     quarantine the PE as the fault plan dictates, then either
     schedule a retry (capped exponential backoff) or abort. *)
  let handle_failure (h : 'h handler) (task : Task.t) reason quarantine_ns =
    stats.faults <- stats.faults + 1;
    let now = b.b_now () in
    if Obs.enabled obs then
      Obs.on_task_failed obs ~now ~task:task.Task.id ~instance:task.Task.instance_id
        ~app:task.Task.app_name ~node:task.Task.node.App_spec.node_name
        ~pe:h.h_pe.Pe.label ~pe_index:h.h_index ~fault:(Fault.failure_name reason)
        ~attempt:task.Task.attempts;
    (match reason with
    | Fault.Pe_dead -> kill_pe h ~now
    | _ when quarantine_ns = max_int -> kill_pe h ~now
    | _ when quarantine_ns > 0 -> quarantine_pe h ~until:(now + quarantine_ns) ~now
    | _ -> ());
    if not (has_alive_support task) then
      abort
        (Printf.sprintf "task %s/%s supports no surviving PE" task.Task.app_name
           task.Task.node.App_spec.node_name)
    else if task.Task.attempts >= Fault.max_attempts fault then
      abort
        (Printf.sprintf "task %s/%s exhausted its %d-attempt budget" task.Task.app_name
           task.Task.node.App_spec.node_name (Fault.max_attempts fault))
    else begin
      stats.retries <- stats.retries + 1;
      let backoff = Fault.backoff_ns fault ~attempt:task.Task.attempts in
      task.Task.status <- Task.Blocked;
      insert_retry (now + backoff) task;
      if Obs.enabled obs then
        Obs.on_task_retried obs ~now ~task:task.Task.id ~instance:task.Task.instance_id
          ~app:task.Task.app_name ~node:task.Task.node.App_spec.node_name
          ~attempt:task.Task.attempts ~backoff_ns:backoff
    end
  in
  (* Scratch structures reused by every scheduling invocation: the
     policy-facing PE states are refreshed in place, and the ready
     window is snapshotted into a reusable array (sized once to the
     examination cap).  Reallocating these per invocation — once per
     task completion — dominated the scheduler hot path. *)
  (* A PE at or past its scheduled death time must never receive work,
     even if the proactive kill sweep has not reached it yet: the
     engines' clocks pass the death time at different wall points, and
     a dispatch that slips through on one engine but not the other
     consumes an attempt (without a fault draw) and desynchronises the
     replay. *)
  let dead_at h ~now =
    match Fault.death_ns fault ~pe:h.h_index with
    | Some t -> now >= t
    | None -> false
  in
  let sweep_deaths ~now =
    Array.iter
      (fun h ->
        if dead_at h ~now && pe_alive h then begin
          stats.faults <- stats.faults + 1;
          kill_pe h ~now
        end)
      handlers
  in
  let pes_scratch =
    Array.map
      (fun h -> { Scheduler.pe = h.h_pe; idle = false; busy_until = 0; available = true })
      handlers
  in
  let ready_scratch = ref [||] in
  (* A task with a revived stale entry sits in the FIFO twice; the
     snapshot keeps only its first entry, marking each task taken with
     the invocation's stamp (indexed by task id). *)
  let taken_in =
    Array.make
      (Array.fold_left
         (fun acc (inst : Task.instance) ->
           Array.fold_left (fun acc (t : Task.t) -> max acc (t.Task.id + 1)) acc inst.Task.tasks)
         0 instances)
      0
  in
  let stamp = ref 0 in
  let estimate task i = Exec_model.estimate model task i in
  (* One scheduling invocation: snapshot the ready window, run the
     policy, account its cost, dispatch the selected tasks.  Invoked
     after every task completion and after every injection burst, as
     the paper's workload manager does (it has no PE reservation
     queues, so "a scheduling algorithm incurs this overhead every
     time a task completes"). *)
  let do_schedule () =
    while !rq_head < !rq_tail && !rq.(!rq_head).Task.status <> Task.Ready do
      incr rq_head
    done;
    let now0 = if fault_on then b.b_now () else 0 in
    let pe_ok h =
      (not fault_on) || (h.h_quarantined_until <= now0 && not (dead_at h ~now:now0))
    in
    let usable h = h.h_inflight < h.h_capacity && pe_ok h in
    let have_idle = Array.exists usable handlers in
    if stats.aborted = None && !rq_head < !rq_tail && have_idle then begin
      let ready_len = !ready_live in
      if Array.length !ready_scratch = 0 then
        ready_scratch := Array.make sched_window !rq.(!rq_head);
      incr stamp;
      let taken = ref 0 and j = ref !rq_head in
      while !taken < sched_window && !j < !rq_tail do
        let t = !rq.(!j) in
        if t.Task.status = Task.Ready && taken_in.(t.Task.id) <> !stamp then begin
          taken_in.(t.Task.id) <- !stamp;
          !ready_scratch.(!taken) <- t;
          incr taken
        end;
        incr j
      done;
      let nready = !taken in
      Array.iteri
        (fun i h ->
          let st = pes_scratch.(i) in
          st.Scheduler.available <- pe_ok h;
          st.Scheduler.idle <- st.Scheduler.available && h.h_inflight < h.h_capacity;
          st.Scheduler.busy_until <- h.h_busy_until)
        handlers;
      let t0 = b.b_sched_start () in
      let ctx =
        {
          Scheduler.now = b.b_now ();
          ready = !ready_scratch;
          nready;
          pes = pes_scratch;
          estimate;
          prng;
          ops = 0;
        }
      in
      let assignments = policy.Scheduler.schedule ctx in
      let sched_cost = b.b_sched_done t0 ~ready:ready_len ~ops:ctx.Scheduler.ops in
      stats.sched_ns <- stats.sched_ns + sched_cost;
      stats.sched_invocations <- stats.sched_invocations + 1;
      if Obs.enabled obs then
        Obs.on_sched obs ~now:(b.b_now ()) ~ready:ready_len ~examined:nready
          ~ops:ctx.Scheduler.ops ~cost_ns:sched_cost
          ~assigned:(List.length assignments);
      (* Communicate selected tasks to their resource managers (setting
         the status to Running also lazily removes each task from the
         ready queue). *)
      List.iter
        (fun (a : Scheduler.assignment) ->
          let task = a.Scheduler.task and pi = a.Scheduler.pe_index in
          if
            task.Task.status <> Task.Ready
            || pi < 0 || pi >= n_pes
            || estimate task pi = min_int
            || fault_on
               && (handlers.(pi).h_quarantined_until > b.b_now ()
                  || dead_at handlers.(pi) ~now:(b.b_now ())
                  || handlers.(pi).h_inflight >= handlers.(pi).h_capacity)
          then
            (* A custom policy listed the task twice, named a PE that
               does not exist or cannot run it, or (under faults)
               ignored [Scheduler.pe_state.available] or overcommitted:
               drop the assignment — a task still Ready stays in the
               ready list for the next invocation. *)
            ()
          else begin
            let h = handlers.(pi) in
            b.b_charge Cost_model.dispatch_per_task_ns;
            b.b_lock h;
            task.Task.status <- Task.Running;
            task.Task.attempts <- task.Task.attempts + 1;
            decr ready_live;
            task.Task.dispatched_at <- b.b_now ();
            task.Task.pe_label <- h.h_pe.Pe.label;
            Queue.add task h.h_pending;
            h.h_inflight <- h.h_inflight + 1;
            incr inflight;
            h.h_busy_until <-
              max (b.b_now ()) h.h_busy_until + estimate task h.h_index;
            if Obs.enabled obs then begin
              let now = task.Task.dispatched_at in
              Obs.on_task_dispatched obs ~now ~task:task.Task.id
                ~instance:task.Task.instance_id ~app:task.Task.app_name
                ~node:task.Task.node.App_spec.node_name ~pe:h.h_pe.Pe.label
                ~pe_index:h.h_index ~wait_ns:(now - task.Task.ready_at)
                ~ready_depth:!ready_live ~pe_depth:h.h_inflight ~inflight:!inflight;
              if h.h_capacity > 1 then
                Obs.on_reservation_enqueued obs ~now ~pe_index:h.h_index
                  ~depth:(Queue.length h.h_pending)
            end;
            b.b_notify_handler h;
            b.b_unlock h
          end)
        assignments
    end
  in
  (* Bookkeeping for one completed task: statistics, instance
     accounting, and releasing newly ready successors. *)
  let process_completion (task : Task.t) =
    task.Task.status <- Task.Done;
    stats.records <-
      {
        Stats.app = task.Task.app_name;
        instance = task.Task.instance_id;
        node = task.Task.node.App_spec.node_name;
        pe = task.Task.pe_label;
        ready_ns = task.Task.ready_at;
        dispatched_ns = task.Task.dispatched_at;
        completed_ns = task.Task.completed_at;
      }
      :: stats.records;
    let inst = instances.(task.Task.instance_id) in
    inst.Task.remaining <- inst.Task.remaining - 1;
    if inst.Task.remaining = 0 then begin
      inst.Task.completed_at <- b.b_now ();
      decr unfinished
    end;
    let newly_ready = ref 0 in
    List.iter
      (fun (succ : Task.t) ->
        succ.Task.unmet <- succ.Task.unmet - 1;
        if succ.Task.unmet = 0 then begin
          make_ready succ;
          incr newly_ready
        end)
      task.Task.successors;
    if !newly_ready > 0 then
      b.b_charge (Cost_model.ready_update_per_task_ns *. float_of_int !newly_ready)
  in
  let rec loop () =
    let tick = b.b_wm_tick_start () in
    (* Planned deaths fire before anything else in the iteration: the
       first tick may already carry due arrivals (the virtual clock is
       past t=0 once setup costs are charged), and a death must take
       effect before any dispatch decision of the same tick. *)
    if fault_on then sweep_deaths ~now:(b.b_now ());
    (* -- one completion-monitoring sweep over the resource handlers -- *)
    b.b_charge (Cost_model.monitor_per_pe_ns *. float_of_int n_pes);
    let batch_completions = ref false in
    let completions = ref 0 in
    Array.iter
      (fun h ->
        (* Pop one completion at a time, re-taking the lock between
           pops, so a capacity-1 handler's scheduling round never runs
           while this handler is locked. *)
        let continue_ = ref true in
        while !continue_ do
          b.b_lock h;
          match Queue.take_opt h.h_completed with
          | None ->
            b.b_unlock h;
            continue_ := false
          | Some task ->
            b.b_unlock h;
            h.h_inflight <- h.h_inflight - 1;
            decr inflight;
            (match task.Task.last_failure with
            | Some (reason, quarantine_ns) ->
              task.Task.last_failure <- None;
              handle_failure h task reason quarantine_ns
            | None ->
              incr completions;
              if Obs.enabled obs then
                Obs.on_task_completed obs ~now:task.Task.completed_at
                  ~task:task.Task.id ~instance:task.Task.instance_id
                  ~app:task.Task.app_name ~node:task.Task.node.App_spec.node_name
                  ~pe:task.Task.pe_label ~pe_index:h.h_index
                  ~service_ns:(task.Task.completed_at - task.Task.dispatched_at)
                  ~pe_depth:h.h_inflight ~inflight:!inflight;
              process_completion task);
            if h.h_capacity <= 1 then
              (* No reservation queue: the scheduler runs once per
                 completed task, as in the paper. *)
              do_schedule ()
            else batch_completions := true
        done)
      handlers;
    if !batch_completions then do_schedule ();
    (* -- inject newly arrived application instances -- *)
    let injected = ref 0 in
    let now = b.b_now () in
    let rec drain () =
      match !pending with
      | inst :: rest when inst.Task.arrival_ns <= now ->
        pending := rest;
        if Obs.enabled obs then
          Obs.on_instance_injected obs ~now ~instance:inst.Task.inst_id
            ~app:inst.Task.app.App_spec.app_name;
        List.iter
          (fun t ->
            make_ready t;
            incr injected)
          inst.Task.entry;
        drain ()
      | _ -> ()
    in
    if stats.aborted = None then drain ();
    if !injected > 0 then begin
      b.b_charge (Cost_model.ready_update_per_task_ns *. float_of_int !injected);
      do_schedule ()
    end;
    (* -- fault timeline: planned deaths, quarantine expiry, retries -- *)
    if fault_on then begin
      let now = b.b_now () in
      (* Planned deaths fire proactively, so a PE dies at its scheduled
         time on both engines even if nothing was dispatched to it.
         (Also swept at the top of the iteration; this catches deaths
         whose time was crossed by charges within the iteration.) *)
      sweep_deaths ~now;
      let recovered = ref false in
      Array.iter
        (fun h ->
          if h.h_quarantined_until > 0 && pe_alive h && now >= h.h_quarantined_until
          then begin
            h.h_quarantined_until <- 0;
            recovered := true;
            if Obs.enabled obs then
              Obs.on_pe_recovered obs ~now ~pe:h.h_pe.Pe.label ~pe_index:h.h_index
          end)
        handlers;
      let released = ref 0 in
      let rec release () =
        match !retry_q with
        | (t, task) :: rest when t <= now && stats.aborted = None ->
          retry_q := rest;
          make_ready task;
          incr released;
          release ()
        | _ -> ()
      in
      release ();
      if !released > 0 || !recovered then do_schedule ()
    end;
    b.b_wm_tick_end tick;
    if Obs.enabled obs then
      Obs.on_wm_tick obs ~now:(b.b_now ()) ~completions:!completions
        ~injected:!injected;
    (* -- terminate or wait for the next event -- *)
    let finished = !unfinished = 0 && !pending = [] in
    (* An aborted run stops once in-flight work has drained: doomed
       tasks never complete, so [unfinished] cannot reach zero. *)
    let gave_up = stats.aborted <> None && !inflight = 0 in
    if finished || gave_up then
      Array.iter
        (fun h ->
          b.b_lock h;
          h.h_stop <- true;
          b.b_notify_handler h;
          b.b_unlock h)
        handlers
    else begin
      let deadline =
        if stats.aborted <> None then
          (* Only waiting for in-flight tasks; their completions wake
             the WM. *)
          None
        else begin
          let best = ref (match !pending with [] -> None | i :: _ -> Some i.Task.arrival_ns) in
          let add t = match !best with Some b when b <= t -> () | _ -> best := Some t in
          if fault_on then begin
            (match !retry_q with (t, _) :: _ -> add t | [] -> ());
            Array.iter
              (fun h ->
                if pe_alive h then begin
                  if h.h_quarantined_until > 0 then add h.h_quarantined_until;
                  match Fault.death_ns fault ~pe:h.h_index with
                  | Some t -> add t
                  | None -> ()
                end)
              handlers
          end;
          !best
        end
      in
      b.b_wm_await ~deadline;
      loop ()
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Report assembly                                                     *)
(* ------------------------------------------------------------------ *)

let report ~host_name ~(config : Config.t) ~(policy : Scheduler.policy)
    ~(handlers : 'h handler array) ~(instances : Task.instance array)
    ~(stats : wm_stats) ~(fabric : fabric_counters) =
  let makespan =
    Array.fold_left (fun acc inst -> max acc inst.Task.completed_at) 0 instances
  in
  let app_tbl = Hashtbl.create 4 in
  Array.iter
    (fun inst ->
      let name = inst.Task.app.App_spec.app_name in
      let lat = inst.Task.completed_at - inst.Task.arrival_ns in
      let lats = Option.value ~default:[] (Hashtbl.find_opt app_tbl name) in
      Hashtbl.replace app_tbl name (lat :: lats))
    instances;
  let app_stats =
    Hashtbl.fold
      (fun name lats acc ->
        let n = List.length lats in
        let sum = List.fold_left ( + ) 0 lats in
        ( name,
          {
            Stats.instances = n;
            mean_latency_ns = float_of_int sum /. float_of_int (max 1 n);
            max_latency_ns = List.fold_left max 0 lats;
          } )
        :: acc)
      app_tbl []
    |> List.sort compare
  in
  let task_count =
    Array.fold_left (fun acc i -> acc + Array.length i.Task.tasks) 0 instances
  in
  let verdict =
    match stats.aborted with
    | Some reason -> Stats.Aborted reason
    | None -> if stats.faults > 0 || stats.retries > 0 then Stats.Degraded else Stats.Completed
  in
  {
    Stats.host_name;
    config_label = config.Config.label;
    policy_name = policy.Scheduler.name;
    makespan_ns = makespan;
    job_count = Array.length instances;
    task_count;
    pe_usage =
      Array.to_list
        (Array.map
           (fun h ->
             {
               Stats.pe_label = h.h_pe.Pe.label;
               pe_kind = Pe.kind_name h.h_pe.Pe.kind;
               busy_ns = h.h_busy_ns;
               tasks_run = h.h_tasks_run;
               busy_energy_mj = float_of_int h.h_busy_ns *. Pe.busy_w h.h_pe.Pe.kind *. 1e-6;
               energy_mj =
                 (float_of_int h.h_busy_ns *. Pe.busy_w h.h_pe.Pe.kind
                 +. float_of_int (max 0 (makespan - h.h_busy_ns))
                    *. Pe.idle_w h.h_pe.Pe.kind)
                 *. 1e-6;
             })
           handlers);
    sched_invocations = stats.sched_invocations;
    sched_ns = stats.sched_ns;
    wm_overhead_ns = stats.wm_ns;
    records = List.rev stats.records;
    app_stats;
    verdict;
    resilience =
      {
        Stats.faults_injected = stats.faults;
        task_retries = stats.retries;
        pe_quarantines = stats.quarantines;
        pe_deaths = stats.pe_deaths;
        tasks_lost = task_count - List.length stats.records;
      };
    fabric =
      {
        Stats.dma_streams = fabric.fc_streams;
        fabric_stalls = fabric.fc_stalls;
        fabric_stall_ns = fabric.fc_stall_ns;
        max_inflight_streams = fabric.fc_max_inflight;
      };
  }
