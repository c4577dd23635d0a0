module Prng = Dssoc_util.Prng
module Pe = Dssoc_soc.Pe
module Host = Dssoc_soc.Host
module Config = Dssoc_soc.Config
module Workload = Dssoc_apps.Workload
module Obs = Dssoc_obs.Obs
module Core = Dssoc_runtime.Engine_core
module Des = Dssoc_runtime.Des
module Exec_model = Dssoc_runtime.Exec_model
module Functional = Dssoc_runtime.Functional
module Scheduler = Dssoc_runtime.Scheduler
module Task = Dssoc_runtime.Task

type params = Core.params = {
  seed : int64;
  jitter : float;
  reservation_depth : int;
}

let default_params = Core.default_params

(* ------------------------------------------------------------------ *)
(* The direct-style managers                                           *)
(* ------------------------------------------------------------------ *)

(* The workload-manager / resource-handler protocol in direct style,
   written independently of Compiled_engine's integer-pc machine over
   a small backend record: how to read the clock, block and wake the two
   kinds of actors, charge modelled workload-manager overhead, and
   execute a task on a PE.  What never suspends is Engine_core's, as in
   the pc machine. *)
module Managers = struct
  open Core
  module Pe = Dssoc_soc.Pe
  module Cost_model = Dssoc_soc.Cost_model
  module App_spec = Dssoc_apps.App_spec
  module Fault = Dssoc_fault.Fault
  module Stats = Dssoc_runtime.Stats

  (* ------------------------------------------------------------------ *)
  (* Backends                                                            *)
  (* ------------------------------------------------------------------ *)

  type backend = {
    b_now : unit -> int;
    b_lock : handler -> unit;
    b_unlock : handler -> unit;
    b_handler_await : handler -> unit;
    b_notify_handler : handler -> unit;
    b_wm_await : deadline:int option -> unit;
    b_notify_wm : unit -> unit;
    b_charge : float -> unit;
    b_execute : handler -> Task.t -> unit;
    b_delay : handler -> int -> unit;
        (** occupy the handler's PE for a modelled duration without
            running a kernel (fault detection latency, slowdown tail) *)
    b_sched_start : unit -> int;
    b_sched_done : int -> ready:int -> ops:int -> int;
    b_wm_tick_start : unit -> int;
    b_wm_tick_end : int -> unit;
  }

  (* ------------------------------------------------------------------ *)
  (* Resource manager (Fig. 4)                                           *)
  (* ------------------------------------------------------------------ *)

  let resource_manager ?(obs = Obs.disabled) ?(fault = Fault.disabled) ~model
      ~(tasks : Task.t array) (b : backend) (h : handler) =
    (* One execution attempt, returning the fault plan's decision.  A
       faulted attempt burns PE time but never reaches [b_execute]:
       only the final (successful) attempt may mutate the store. *)
    let execute (task : Task.t) started =
      if not (Fault.enabled fault) then begin
        b.b_execute h task;
        Fault.Proceed
      end
      else begin
        let d =
          decide_attempt ~fault ~obs h ~task:task.Task.id ~attempt:task.Task.attempts
            ~now:started ~est_ns:(Exec_model.estimate model task h.h_index)
        in
        (match d with
        | Fault.Proceed -> b.b_execute h task
        | Fault.Proceed_slow extra_ns ->
          b.b_execute h task;
          if extra_ns > 0 then b.b_delay h extra_ns
        | Fault.Fail { after_ns; _ } -> if after_ns > 0 then b.b_delay h after_ns);
        d
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
          | Some id ->
            let task = tasks.(id) in
            if h.h_capacity > 1 && Obs.enabled obs then
              Obs.on_reservation_popped obs ~now:(b.b_now ()) ~pe_index:h.h_index
                ~depth:(Queue.length h.h_pending);
            b.b_unlock h;
            let started = b.b_now () in
            let d = execute task started in
            let finished = b.b_now () in
            task.Task.completed_at <- finished;
            b.b_lock h;
            (* Occupancy, not queue residence: utilisation stays
               meaningful when a reservation queue is configured.  Failed
               attempts still occupied the PE, but only successful runs
               count as tasks run. *)
            finish_attempt h id d ~busy_ns:(finished - started);
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

  let workload_manager ?(obs = Obs.disabled) ?(fault = Fault.disabled) (b : backend)
      ~(handlers : handler array) ~(instances : Task.instance array) ~(tasks : Task.t array) ~model
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
      note_ready stats ~ready:!ready_live;
      if Obs.enabled obs then
        Obs.on_task_ready obs ~now:task.Task.ready_at ~task:task.Task.id
          ~instance:task.Task.instance_id ~cls:task.Task.cls ~node:task.Task.index
          ~ready_depth:!ready_live
    in
    (* Fault handling is WM-owned and shared with the compiled engine's
       machine; its entry points are no-ops unless [fault_on]. *)
    let res =
      resilience ~fault ~obs ~stats ~model ~handlers
        ~unfinished:(fun () ->
          Seq.concat_map
            (fun (inst : Task.instance) ->
              let ts = inst.Task.tasks in
              if Array.length ts = 0 then Seq.empty
              else
                unfinished_nodes ~cls:ts.(0).Task.cls ~nodes:(Array.length ts) ~finished:(fun j ->
                    ts.(j).Task.status = Task.Done))
            (Array.to_seq instances))
        ~inflight
        ~make_ready:(fun id -> make_ready tasks.(id))
        ~blocked:(fun id -> tasks.(id).Task.status <- Task.Blocked)
        ~lock:b.b_lock ~unlock:b.b_unlock
    in
    (* Scratch structures reused by every scheduling invocation: the
       policy-facing PE states are refreshed in place, and the ready
       window is snapshotted into a reusable array (sized once to the
       examination cap).  Reallocating these per invocation — once per
       task completion — dominated the scheduler hot path. *)
    let pes_scratch =
      Array.map
        (fun h -> { Scheduler.pe = h.h_pe; idle = false; busy_until = 0; available = true })
        handlers
    in
    let ready_scratch = ref [||] in
    (* A task with a revived stale entry sits in the FIFO twice; the
       snapshot keeps only its first entry, marking each task taken with
       the invocation's stamp (indexed by task id). *)
    let taken_in = Array.make (Array.length tasks) 0 in
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
      let pe_ok h = (not fault_on) || pe_ok res h ~now:now0 in
      let have_idle = Array.exists (fun h -> h.h_inflight < h.h_capacity && pe_ok h) handlers in
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
              || (fault_on && not (usable res handlers.(pi) ~now:(b.b_now ())))
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
              task.Task.pe <- h.h_index;
              Queue.add task.Task.id h.h_pending;
              h.h_inflight <- h.h_inflight + 1;
              incr inflight;
              h.h_busy_until <-
                max (b.b_now ()) h.h_busy_until + estimate task h.h_index;
              note_dispatch stats ~wait_ns:(task.Task.dispatched_at - task.Task.ready_at)
                ~inflight:!inflight;
              if Obs.enabled obs then begin
                let now = task.Task.dispatched_at in
                Obs.on_task_dispatched obs ~now ~task:task.Task.id
                  ~instance:task.Task.instance_id ~cls:task.Task.cls ~node:task.Task.index
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
    let process_completion h (task : Task.t) =
      task.Task.status <- Task.Done;
      record_completion stats ~cls:task.Task.cls ~node:task.Task.index
        ~instance:task.Task.instance_id ~task:task.Task.id ~pe_index:h.h_index
        ~ready_ns:task.Task.ready_at ~dispatched_ns:task.Task.dispatched_at
        ~completed_ns:task.Task.completed_at ~dma_ns:task.Task.dma_ns;
      let inst = instances.(task.Task.instance_id) in
      inst.Task.remaining <- inst.Task.remaining - 1;
      if inst.Task.remaining = 0 then begin
        let now = b.b_now () in
        inst.Task.completed_at <- now;
        instance_completed stats ~cls:task.Task.cls ~arrival_ns:inst.Task.arrival_ns ~now;
        decr unfinished
      end;
      let newly_ready = ref 0 in
      Array.iter
        (fun j ->
          let succ = inst.Task.tasks.(j) in
          succ.Task.unmet <- succ.Task.unmet - 1;
          if succ.Task.unmet = 0 then begin
            make_ready succ;
            incr newly_ready
          end)
        (Exec_model.class_of model task).Exec_model.topology.Task.tp_succ.(task.Task.index);
      if !newly_ready > 0 then
        b.b_charge (Cost_model.ready_update_per_task_ns *. float_of_int !newly_ready)
    in
    let rec loop () =
      let tick = b.b_wm_tick_start () in
      (* Planned deaths fire before anything else in the iteration: the
         first tick may already carry due arrivals (the virtual clock is
         past t=0 once setup costs are charged), and a death must take
         effect before any dispatch decision of the same tick. *)
      if fault_on then sweep_deaths res ~now:(b.b_now ());
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
            | Some id ->
              let task = tasks.(id) in
              b.b_unlock h;
              h.h_inflight <- h.h_inflight - 1;
              decr inflight;
              if
                not
                  (Fault.enabled fault
                  && handle_failure res h ~task:id ~id ~instance:task.Task.instance_id
                       ~cls:task.Task.cls ~node:task.Task.index ~attempt:task.Task.attempts
                       ~now:(b.b_now ()))
              then begin
                incr completions;
                if Obs.enabled obs then
                  Obs.on_task_completed obs ~now:task.Task.completed_at
                    ~task:task.Task.id ~instance:task.Task.instance_id
                    ~cls:task.Task.cls ~node:task.Task.index ~pe_index:h.h_index
                    ~service_ns:(task.Task.completed_at - task.Task.dispatched_at)
                    ~pe_depth:h.h_inflight ~inflight:!inflight;
                process_completion h task
              end;
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
          Array.iter
            (fun j ->
              make_ready inst.Task.tasks.(j);
              incr injected)
            (Exec_model.class_of model inst.Task.tasks.(0)).Exec_model.topology.Task.tp_entry;
          drain ()
        | _ -> ()
      in
      if stats.aborted = None then drain ();
      if !injected > 0 then begin
        b.b_charge (Cost_model.ready_update_per_task_ns *. float_of_int !injected);
        do_schedule ()
      end;
      (* -- fault timeline: planned deaths, quarantine expiry, retries -- *)
      if fault_on && fault_tick res ~now:(b.b_now ()) then do_schedule ();
      b.b_wm_tick_end tick;
      if Obs.enabled obs then
        Obs.on_wm_tick obs ~now:(b.b_now ()) ~completions:!completions
          ~injected:!injected;
      (* -- terminate or wait for the next event -- *)
      let finished = !unfinished = 0 && !pending = [] in
      (* An aborted run stops once in-flight work has drained: doomed
         tasks never complete, so [unfinished] cannot reach zero. *)
      let gave_up = stats.aborted <> None && !inflight = 0 in
      if finished || gave_up then begin
        Array.iter
          (fun h ->
            b.b_lock h;
            h.h_stop <- true;
            b.b_notify_handler h;
            b.b_unlock h)
          handlers;
        b.b_now ()
      end
      else begin
        let next = match !pending with [] -> None | i :: _ -> Some i.Task.arrival_ns in
        let deadline = if fault_on then wm_deadline res next else next in
        b.b_wm_await ~deadline;
        loop ()
      end
    in
    loop ()
end

(* ------------------------------------------------------------------ *)
(* Effect threads over the discrete-event substrate                    *)
(* ------------------------------------------------------------------ *)

(* The managers are direct-style; these effects bridge them onto
   [Des].  Each manager thread runs under its own handler, which knows
   the thread's index, maps the effect onto the substrate and parks the
   continuation until [Des] resumes the thread. *)
type _ Effect.t +=
  | Work : int -> unit Effect.t
        (** consume full-rate CPU work on the thread's host core
            (dilated when shared) *)
  | Sleep : int -> unit Effect.t  (** plain delay, no core held *)
  | Await : int option -> unit Effect.t
        (** block until the thread's condition is signalled or the
            optional absolute deadline passes *)
  | Fab_work : int * int -> unit Effect.t
        (** [(bytes, demand_ns)]: stream [demand_ns] of link service
            through the shared fabric, stalling while the FIFO is full *)

let run_threads des (bodies : (unit -> unit) array) =
  let open Effect.Deep in
  let conts = Array.make (Array.length bodies) None in
  let handler th =
    let park (k : (unit, unit) continuation) suspended =
      if suspended then conts.(th) <- Some k else continue k ()
    in
    {
      retc = ignore;
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Work ns -> Some (fun (k : (a, unit) continuation) -> park k (Des.work des th ns))
          | Sleep ns -> Some (fun (k : (a, unit) continuation) -> park k (Des.sleep des th ns))
          | Await None -> Some (fun (k : (a, unit) continuation) -> park k (Des.await des th))
          | Await (Some t) ->
            Some (fun (k : (a, unit) continuation) -> park k (Des.await_until des th t))
          | Fab_work (bytes, ns) ->
            Some (fun (k : (a, unit) continuation) -> park k (Des.stream des th ~bytes ns))
          | _ -> None);
    }
  in
  Array.iteri (fun th _ -> Des.start des th) bodies;
  Des.run des
    ~on_start:(fun th -> match_with bodies.(th) () (handler th))
    ~on_resume:(fun th ->
      let k = Option.get conts.(th) in
      conts.(th) <- None;
      continue k ())

let work ns = Effect.perform (Work ns)
let sleep_ns ns = Effect.perform (Sleep ns)

(* ------------------------------------------------------------------ *)
(* The DES backend for the managers                                    *)
(* ------------------------------------------------------------------ *)

let backend des ~prng ~jitter ~overlay_perf ~model ~(policy : Scheduler.policy) ~n_pes
    ~(stats : Core.wm_stats) ~obs =
  let now = Des.clock des in
  let scale ns = int_of_float (Float.round (ns /. overlay_perf)) in
  (* Modelled workload-manager bookkeeping occupies the overlay core. *)
  let charge ns =
    let ns = scale ns in
    stats.Core.wm_ns <- stats.Core.wm_ns + ns;
    work ns
  in
  let jit ns = Core.jittered prng ~jitter ns in
  (* One DMA phase.  A phase that bypasses the fabric (ideal fabric, or
     no bytes to move) replays its ideal duration on the manager's host
     core.  Under a bus the manager thread leaves its host core: the
     stream is serviced by the shared link (fair-share among in-flight
     streams, FIFO-stalled when the link is full), then the fixed
     per-chunk device latency plus per-hop fabric latency is paid as
     plain delay. *)
  let dma ~ideal ~demand ~fixed ~bytes =
    if demand < 0 then work (jit ideal)
    else begin
      Effect.perform (Fab_work (bytes, jit demand));
      sleep_ns fixed
    end
  in
  (* Timing only: outputs come from [Functional] after the run. *)
  let execute (h : Core.handler) (task : Task.t) =
    let c = Exec_model.class_of model task and row = Exec_model.row model task h.Core.h_index in
    match h.Core.h_pe.Pe.kind with
    | Pe.Cpu _ -> work (jit c.Exec_model.est.(row))
    | Pe.Accel _ ->
      let traced = Obs.enabled obs in
      let phase_end ph t0 =
        if traced then
          Obs.on_phase obs ~now:!now ~task:task.Task.id ~pe_index:h.Core.h_index
            ~phase:ph ~start_ns:t0 ~dur_ns:(!now - t0)
      in
      (* DMA to device goes through the fabric... *)
      let t0 = !now in
      dma ~ideal:c.Exec_model.dma_in.(row) ~demand:c.Exec_model.demand_in.(row)
        ~fixed:c.Exec_model.fixed_in.(row) ~bytes:c.Exec_model.bytes_in.(row);
      task.Task.dma_ns <- !now - t0;
      phase_end Obs.Dma_in t0;
      (* ...then the thread sleeps while the device computes... *)
      let t1 = !now in
      sleep_ns (jit c.Exec_model.compute.(row));
      phase_end Obs.Device_compute t1;
      (* ...and wakes to move the results back. *)
      let t2 = !now in
      dma ~ideal:c.Exec_model.dma_out.(row) ~demand:c.Exec_model.demand_out.(row)
        ~fixed:c.Exec_model.fixed_out.(row) ~bytes:c.Exec_model.bytes_out.(row);
      task.Task.dma_ns <- task.Task.dma_ns + (!now - t2);
      phase_end Obs.Dma_out t2
  in
  {
    Managers.b_now = (fun () -> !now);
    (* Single-threaded event loop: no mutual exclusion needed. *)
    b_lock = ignore;
    b_unlock = ignore;
    b_handler_await = (fun _h -> Effect.perform (Await None));
    b_notify_handler = (fun h -> Des.signal des h.Core.h_index);
    b_wm_await = (fun ~deadline -> Effect.perform (Await deadline));
    b_notify_wm = (fun () -> Des.signal des n_pes);
    b_charge = charge;
    b_execute = execute;
    (* Fault-detection latencies and slowdown tails keep the PE's
       manager thread asleep (the device is wedged, not computing), so
       no host core is occupied — just virtual time. *)
    b_delay = (fun _h ns -> sleep_ns ns);
    b_sched_start = (fun () -> 0);
    b_sched_done =
      (fun _t0 ~ready ~ops ->
        (* The policy's cost is modelled, not measured: the calibrated
           overhead for the *live* ready-list length, scaled by the
           overlay core and charged on it. *)
        let cost =
          scale
            (float_of_int
               (Scheduler.overhead_ns ~policy_name:policy.Scheduler.name ~ready
                  ~pes:n_pes ~ops))
        in
        stats.Core.wm_ns <- stats.Core.wm_ns + cost;
        work cost;
        cost);
    b_wm_tick_start = (fun () -> 0);
    (* The event heap *is* the simulation's pending future; its depth
       is the DES-specific health gauge. *)
    b_wm_tick_end = (fun _ -> Des.sample_depth des);
  }

(* ------------------------------------------------------------------ *)
(* Top-level run                                                       *)
(* ------------------------------------------------------------------ *)

(* Every instance of the workload up front, with dense task ids from 0:
   the reference holds the whole array for the run.  With
   [fresh_stores] each instance gets its own initialised store;
   otherwise all share one empty placeholder. *)
let instantiate (model : Exec_model.t) ~fresh_stores =
  let placeholder = Dssoc_apps.Store.create [] in
  let base = ref 0 in
  Array.mapi
    (fun i k ->
      let tp = model.Exec_model.classes.(k).Exec_model.topology in
      let store =
        if fresh_stores then Dssoc_apps.Store.create tp.Task.tp_spec.Dssoc_apps.App_spec.variables
        else placeholder
      in
      let inst =
        Exec_model.instance model k ~store ~task_id_base:!base ~inst_id:i
          ~arrival_ns:model.Exec_model.arrivals.(i)
      in
      base := !base + Exec_model.task_count model k;
      inst)
    model.Exec_model.items

let run_timed ~fresh_stores ?(params = default_params) ?(obs = Obs.disabled) ?fault
    ~(config : Config.t) ~(workload : Workload.t) ~(policy : Scheduler.policy) () =
  let prng = Prng.create ~seed:params.seed in
  let model = Exec_model.lower ~engine_name:"Virtual_engine.run" ~config workload in
  let instances = instantiate model ~fresh_stores in
  let handlers =
    Array.of_list
      (List.mapi
         (fun i (p : Config.placement) ->
           Core.make_handler ~pe:p.Config.pe ~index:i
             ~reservation_depth:params.reservation_depth)
         config.Config.placements)
  in
  let stats = Core.make_stats ~records:true model in
  (* Task [id] of the run, for the handles the handlers' queues carry. *)
  let tasks = Array.concat (Array.to_list (Array.map (fun (i : Task.instance) -> i.Task.tasks) instances)) in
  let fault = Core.compile_fault fault ~handlers in
  if Obs.enabled obs then
    Obs.attach obs
      ~pe_labels:(Array.map (fun h -> h.Core.h_pe.Pe.label) handlers)
      ~nodes:(Exec_model.node_names model);
  let des = Des.create ~obs ~clock0:0 config in
  let b =
    backend des ~prng ~jitter:params.jitter
      ~overlay_perf:config.Config.host.Host.overlay.Host.core_class.Pe.perf_factor
      ~model ~policy ~n_pes:(Array.length handlers) ~stats ~obs
  in
  (* Resource managers are threads [0 .. n_pes-1], the workload manager
     thread [n_pes]; their first events are pushed in that order.  The
     workload manager returns the clock at which it stopped the run. *)
  let stopped_at = ref 0 in
  run_threads des
    (Array.append
       (Array.map (fun h () -> Managers.resource_manager ~obs ~fault ~model ~tasks b h) handlers)
       [|
         (fun () ->
           stopped_at :=
             Managers.workload_manager ~obs ~fault b ~handlers ~instances ~tasks ~model ~policy ~prng
               ~stats);
       |]);
  ( Core.report ~host_name:config.Config.host.Host.name ~config ~policy ~handlers
      ~model ~stats ~fabric:(Des.counters des) ~stopped_at:!stopped_at,
    instances,
    model )

let run ?params ?obs ?fault ~config ~workload ~policy () =
  let report, _, _ = run_timed ~fresh_stores:false ?params ?obs ?fault ~config ~workload ~policy () in
  report

let run_detailed ?params ?obs ?fault ~config ~workload ~policy () =
  let report, instances, model =
    run_timed ~fresh_stores:true ?params ?obs ?fault ~config ~workload ~policy ()
  in
  Functional.fill_stores model instances;
  (report, instances)
