module Pe = Dssoc_soc.Pe
module Host = Dssoc_soc.Host
module Config = Dssoc_soc.Config
module Cost_model = Dssoc_soc.Cost_model
module App_spec = Dssoc_apps.App_spec
module Workload = Dssoc_apps.Workload
module Prng = Dssoc_util.Prng
module Obs = Dssoc_obs.Obs
module Core = Engine_core

exception Unsupported of string

(* The compiled engine replays the virtual engine's event sequence
   exactly: both run on [Des], so the event heap, host-core sharing and
   the fabric ledger are shared code, and what must match is the
   protocol — every [Des] call in the order [Engine_core] makes it, and
   PRNG draw interleaving.  Everything below that looks like duplicated
   protocol logic is deliberate — each block mirrors a specific
   suspension point of engine_core.ml, with the effect-handler closures
   flattened into integer program counters.  Divergences are caught by
   the differential matrix in test_diff_engines.ml.  Service mode (the
   resident server's hooks and resume) exists only here; its output is
   pinned by the serve goldens in test_serve.ml. *)

(* The five built-ins are specialised into the loop; any other policy
   is called through its closure over a [Scheduler.context], exactly as
   the reference engine calls it. *)
type pcode = P_frfs | P_met | P_eft | P_power | P_random | P_custom

type plan = {
  p_config : Config.t;
  p_policy : Scheduler.policy;
  p_pcode : pcode;
  p_model : Exec_model.t;
  p_pe_is_cpu : bool array;
  p_pe_busy_w : float array;
  p_overlay_perf : float;
}

let pcode_of (policy : Scheduler.policy) =
  if policy == Scheduler.frfs then P_frfs
  else if policy == Scheduler.met then P_met
  else if policy == Scheduler.eft then P_eft
  else if policy == Scheduler.power then P_power
  else if policy == Scheduler.random then P_random
  else P_custom

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

let compile ?fault ~(config : Config.t) ~(workload : Workload.t)
    ~(policy : Scheduler.policy) () =
  (match fault with
  | Some _ ->
    raise
      (Unsupported
         "fault plans are outside the compiled engine's replay contract (use the \
          virtual or native engine)")
  | None -> ());
  let model = Exec_model.lower ~engine_name:"Compiled_engine.compile" ~config workload in
  {
    p_config = config;
    p_policy = policy;
    p_pcode = pcode_of policy;
    p_model = model;
    p_pe_is_cpu = Array.map (fun pe -> Pe.is_cpu pe.Pe.kind) model.Exec_model.pes;
    p_pe_busy_w = Array.map (fun pe -> Pe.busy_w pe.Pe.kind) model.Exec_model.pes;
    p_overlay_perf = config.Config.host.Host.overlay.Host.core_class.Pe.perf_factor;
  }

(* ------------------------------------------------------------------ *)
(* Resident service hooks                                              *)
(* ------------------------------------------------------------------ *)

type service_ops = {
  so_inject : Task.instance -> int;
  so_cancel : Task.instance -> unit;
  so_ready_live : unit -> int;
  so_inflight : unit -> int;
  so_completed : unit -> int;
}

type service = {
  sv_tick : service_ops -> now:int -> int;
  sv_next : now:int -> int option;
  sv_finished : service_ops -> now:int -> bool;
}

type handler_snapshot = { hs_busy_until : int; hs_busy_ns : int; hs_tasks_run : int }

type resume_state = {
  rs_clock : int;
  rs_prng : int64 * int64 * int64 * int64;
  rs_handlers : handler_snapshot array;
}

type service_run = {
  sr_instances : Task.instance array;
  sr_prng : int64 * int64 * int64 * int64;
  sr_handlers : handler_snapshot array;
}

(* ------------------------------------------------------------------ *)
(* The monomorphic event loop                                          *)
(* ------------------------------------------------------------------ *)

let sched_window = Cost_model.sched_examined_cap

(* One run of the machine.  [service] replaces the fixed-workload
   injection drain and termination test with the hooks; [resume]
   starts the clock and the per-PE horizons from a checkpoint. *)
let exec ~obs ~service ~resume ~prng plan (params : Core.params) instances =
  let config = plan.p_config in
  let model = plan.p_model in
  let n_pes = model.Exec_model.n_pes in
  let stride = n_pes in
  let wm_th = n_pes in
  let jitter = params.Core.jitter in
  (* Prices come from the task's class, at row [index * stride + pe];
     the policy loops inline the two loads. *)
  let classes = model.Exec_model.classes in
  let cls (t : Task.t) = classes.(t.Task.instance_id) in
  let row (t : Task.t) i = (t.Task.index * stride) + i in
  let handlers =
    Array.mapi
      (fun i pe ->
        Core.make_handler ~pe ~index:i ~reservation_depth:params.Core.reservation_depth ())
      model.Exec_model.pes
  in
  (match resume with
  | None -> ()
  | Some r ->
    if Array.length r.rs_handlers <> n_pes then
      invalid_arg "Compiled_engine.run_service: resume PE count mismatch";
    Array.iteri
      (fun i (h : unit Core.handler) ->
        let s = r.rs_handlers.(i) in
        h.Core.h_busy_until <- s.hs_busy_until;
        h.Core.h_busy_ns <- s.hs_busy_ns;
        h.Core.h_tasks_run <- s.hs_tasks_run)
      handlers);
  let stats = Core.make_stats () in
  (* A resident service never reads per-task records and would grow
     the list without bound; its aggregates live in the service. *)
  let records = Option.is_none service in
  (* Observability lowering: [traced] is constant for the whole run, so
     the untraced loop pays one predictable branch per hook site.
     Metric registration order is the virtual engine's — engine handles
     here, then [Des.create]'s fabric instruments and event-heap depth
     gauge — so [Metrics.pp] output is comparable byte-for-byte across
     engines. *)
  let traced = Obs.enabled obs in
  Obs.attach_pes obs ~pe_labels:(Array.map (fun pe -> pe.Pe.label) model.Exec_model.pes);
  let clock0 = match resume with Some r -> r.rs_clock | None -> 0 in
  let des = Des.create ~obs ~clock0 config in
  let now = Des.clock des in
  let jit ns = Core.jittered prng ~jitter ns in
  let overlay_perf = plan.p_overlay_perf in
  let scale ns = int_of_float (Float.round (ns /. overlay_perf)) in
  (* ---- workload-manager state ----
     The ready collection is an intrusive doubly-linked list over slots:
     a task takes a slot when it becomes Ready and gives it back when it
     leaves the list, so the slot arrays grow to the peak ready count,
     not to the workload's task count.  Append on ready, O(1) unlink on
     dispatch.  The list holds exactly the Ready tasks in insertion
     order — the same sequence the reference engine's queue exposes
     once stale (already-dispatched) entries are skipped — so the
     scheduling window never rescans stale entries and never
     allocates. *)
  let sl_task : Task.t array ref = ref [||] in
  let sl_nxt = ref [||] and sl_prv = ref [||] in
  let sl_free = ref [||] and n_free = ref 0 and n_slots = ref 0 in
  let rl_head = ref (-1) in
  let rl_tail = ref (-1) in
  let rl_append (t : Task.t) =
    let sl =
      if !n_free > 0 then begin
        decr n_free;
        !sl_free.(!n_free)
      end
      else begin
        let sl = !n_slots in
        if sl = Array.length !sl_task then begin
          (* the free stack is empty here, so it restarts at the new size *)
          let cap = max 64 (2 * sl) in
          let grow a fill =
            let b = Array.make cap fill in
            Array.blit a 0 b 0 sl;
            b
          in
          sl_task := grow !sl_task t;
          sl_nxt := grow !sl_nxt (-1);
          sl_prv := grow !sl_prv (-1);
          sl_free := Array.make cap 0
        end;
        incr n_slots;
        sl
      end
    in
    !sl_task.(sl) <- t;
    if !rl_tail < 0 then rl_head := sl else !sl_nxt.(!rl_tail) <- sl;
    !sl_prv.(sl) <- !rl_tail;
    !sl_nxt.(sl) <- -1;
    rl_tail := sl
  in
  let rl_unlink sl =
    let p = !sl_prv.(sl) and n = !sl_nxt.(sl) in
    if p >= 0 then !sl_nxt.(p) <- n else rl_head := n;
    if n >= 0 then !sl_prv.(n) <- p else rl_tail := p;
    !sl_free.(!n_free) <- sl;
    incr n_free
  in
  (* The slot of a Ready task, for the callers that hold only the task
     (a custom policy's assignment, a cancellation): a walk from the
     head, which finds a task from the window within the window. *)
  let slot_of (t : Task.t) =
    let sl = ref !rl_head in
    while !sl_task.(!sl) != t do
      sl := !sl_nxt.(!sl)
    done;
    !sl
  in
  let ready_live = ref 0 in
  let inflight = ref 0 in
  let n_items = Array.length instances in
  let pending_idx = ref 0 in
  let unfinished = ref n_items in
  let wm_pc = ref 0 in
  let sw_hi = ref 0 in
  let sw_batch = ref false in
  let ds_ret = ref 0 in
  let ds_cost = ref 0 in
  let ds_pos = ref 0 in
  let ds_ready = ref 0 in
  let ds_nready = ref 0 in
  let ds_ops = ref 0 in
  let tick_completions = ref 0 in
  let tick_injected = ref 0 in
  let idle = Array.make (max 1 n_pes) false in
  let avail = Array.make (max 1 n_pes) 0 in
  let cand = Array.make (max 1 n_pes) 0 in
  (* One invocation's assignments, in the policy's order.  A custom
     policy may return more than one per PE (the dispatch loop drops
     the unusable ones). *)
  let as_task : Task.t array ref = ref [||] in
  let as_pe : int array ref = ref [||] in
  let as_slot : int array ref = ref [||] in
  let as_n = ref 0 in
  let custom = plan.p_pcode = P_custom in
  (* A custom policy's context, built as [Engine_core]'s: the window is
     reusable scratch sized to the examination cap, the PE states are
     refreshed in place. *)
  let cx_ready : Task.t array ref = ref [||] in
  let cx_pes =
    Array.map
      (fun pe -> { Scheduler.pe; idle = false; busy_until = 0; available = true })
      model.Exec_model.pes
  in
  let cx_estimate task i = Exec_model.estimate model task i in
  let make_ready (t : Task.t) =
    t.Task.status <- Task.Ready;
    t.Task.ready_at <- !now;
    rl_append t;
    incr ready_live;
    if traced then
      Obs.on_task_ready obs ~now:t.Task.ready_at ~task:t.Task.id
        ~instance:t.Task.instance_id ~app:t.Task.app_name
        ~node:t.Task.node.App_spec.node_name ~ready_depth:!ready_live
  in
  (* Capabilities handed to a service.  Cancelling withdraws the
     instance's Ready tasks from the ready list; its successors are
     never released, because completion checks [cancelled]. *)
  let ops =
    {
      so_inject =
        (fun (inst : Task.instance) ->
          if traced then
            Obs.on_instance_injected obs ~now:!now ~instance:inst.Task.inst_id
              ~app:inst.Task.app.App_spec.app_name;
          List.iter make_ready inst.Task.entry;
          List.length inst.Task.entry);
      so_cancel =
        (fun (inst : Task.instance) ->
          inst.Task.cancelled <- true;
          Array.iter
            (fun (t : Task.t) ->
              if t.Task.status = Task.Ready then begin
                t.Task.status <- Task.Blocked;
                rl_unlink (slot_of t);
                decr ready_live
              end)
            inst.Task.tasks);
      so_ready_live = (fun () -> !ready_live);
      so_inflight = (fun () -> !inflight);
      so_completed = (fun () -> n_items - !unfinished);
    }
  in
  (* ---- resource-manager threads (engine_core.resource_manager) ---- *)
  let rm_pc = Array.make (max 1 n_pes) 0 in
  let rm_task : Task.t option array = Array.make (max 1 n_pes) None in
  let rm_started = Array.make (max 1 n_pes) 0 in
  (* Start of the current accelerator phase, for traced Phase spans. *)
  let rm_ph0 = Array.make (max 1 n_pes) 0 in
  let rm_cur i =
    match rm_task.(i) with Some t -> t | None -> assert false
  in
  (* A [Des] call that suspended the thread parks it at [pc]; one that
     did not lets it continue there at once. *)
  let rec rm_then i pc suspended = if suspended then rm_pc.(i) <- pc else rm_goto i pc
  and rm_await i = rm_then i 1 (Des.await des i)
  and rm_wake i = if handlers.(i).Core.h_stop then () else rm_drain i
  and rm_drain i =
    let h = handlers.(i) in
    match Queue.take_opt h.Core.h_pending with
    | None -> rm_await i
    | Some task ->
      if traced && h.Core.h_capacity > 1 then
        Obs.on_reservation_popped obs ~now:!now ~pe_index:i
          ~depth:(Queue.length h.Core.h_pending);
      rm_task.(i) <- Some task;
      rm_started.(i) <- !now;
      let c = cls task and row = row task i in
      if plan.p_pe_is_cpu.(i) then rm_work i (jit c.Exec_model.est.(row)) 2
      else begin
        if traced then rm_ph0.(i) <- !now;
        let dem = c.Exec_model.demand_in.(row) in
        if dem < 0 then rm_work i (jit c.Exec_model.dma_in.(row)) 3
        else rm_then i 6 (Des.stream des i ~bytes:c.Exec_model.bytes_in.(row) (jit dem))
      end
  and rm_work i ns pc = rm_then i pc (Des.work des i ns)
  and rm_acc_after_in i =
    let task = rm_cur i in
    if traced then
      Obs.on_phase obs ~now:!now ~task:task.Task.id ~pe_index:i ~phase:Obs.Dma_in
        ~start_ns:rm_ph0.(i) ~dur_ns:(!now - rm_ph0.(i));
    if traced then rm_ph0.(i) <- !now;
    rm_then i 4 (Des.sleep des i (jit (cls task).Exec_model.compute.(row task i)))
  and rm_acc_after_comp i =
    let task = rm_cur i in
    if traced then begin
      Obs.on_phase obs ~now:!now ~task:task.Task.id ~pe_index:i
        ~phase:Obs.Device_compute ~start_ns:rm_ph0.(i) ~dur_ns:(!now - rm_ph0.(i));
      rm_ph0.(i) <- !now
    end;
    let c = cls task and row = row task i in
    let dem = c.Exec_model.demand_out.(row) in
    if dem < 0 then rm_work i (jit c.Exec_model.dma_out.(row)) 5
    else rm_then i 7 (Des.stream des i ~bytes:c.Exec_model.bytes_out.(row) (jit dem))
  and rm_fab_fix i fix pc =
    (* Fixed chunk/hop latency after the shared-link service. *)
    rm_then i pc (Des.sleep des i fix)
  and rm_finish i =
    let task = rm_cur i in
    let h = handlers.(i) in
    task.Task.completed_at <- !now;
    h.Core.h_busy_ns <- h.Core.h_busy_ns + (!now - rm_started.(i));
    h.Core.h_tasks_run <- h.Core.h_tasks_run + 1;
    Queue.add task h.Core.h_completed;
    Des.signal des wm_th;
    rm_drain i
  and rm_goto i pc =
    match pc with
    | 1 -> rm_wake i
    | 2 -> rm_finish i
    | 5 ->
      if traced then begin
        let task = rm_cur i in
        Obs.on_phase obs ~now:!now ~task:task.Task.id ~pe_index:i
          ~phase:Obs.Dma_out ~start_ns:rm_ph0.(i) ~dur_ns:(!now - rm_ph0.(i))
      end;
      rm_finish i
    | 3 -> rm_acc_after_in i
    | 4 -> rm_acc_after_comp i
    | 6 ->
      let task = rm_cur i in
      rm_fab_fix i (cls task).Exec_model.fixed_in.(row task i) 3
    | 7 ->
      let task = rm_cur i in
      rm_fab_fix i (cls task).Exec_model.fixed_out.(row task i) 5
    | _ -> assert false
  in
  (* ---- workload-manager thread (engine_core.workload_manager,
     fault off; observability lowered at the same protocol points) ---- *)
  let rec wm_then pc suspended = if suspended then wm_pc := pc else wm_goto pc
  and wm_charge ns pc =
    let c = scale ns in
    stats.Core.wm_ns <- stats.Core.wm_ns + c;
    wm_then pc (Des.work des wm_th c)
  and wm_tick_top () =
    if traced then begin
      tick_completions := 0;
      tick_injected := 0
    end;
    wm_charge (Cost_model.monitor_per_pe_ns *. float_of_int n_pes) 10
  and wm_sweep_start () =
    sw_hi := 0;
    sw_batch := false;
    wm_sweep_cont ()
  and wm_sweep_cont () =
    if !sw_hi >= n_pes then begin
      if !sw_batch then do_schedule 1 else wm_inject ()
    end
    else begin
      let h = handlers.(!sw_hi) in
      match Queue.take_opt h.Core.h_completed with
      | None ->
        incr sw_hi;
        wm_sweep_cont ()
      | Some task ->
        h.Core.h_inflight <- h.Core.h_inflight - 1;
        decr inflight;
        if traced then begin
          incr tick_completions;
          Obs.on_task_completed obs ~now:task.Task.completed_at ~task:task.Task.id
            ~instance:task.Task.instance_id ~app:task.Task.app_name
            ~node:task.Task.node.App_spec.node_name ~pe:task.Task.pe_label
            ~pe_index:h.Core.h_index
            ~service_ns:(task.Task.completed_at - task.Task.dispatched_at)
            ~pe_depth:h.Core.h_inflight ~inflight:!inflight
        end;
        task.Task.status <- Task.Done;
        if records then
          stats.Core.records <-
            {
              Stats.app = task.Task.app_name;
              instance = task.Task.instance_id;
              node = task.Task.node.App_spec.node_name;
              pe = task.Task.pe_label;
              ready_ns = task.Task.ready_at;
              dispatched_ns = task.Task.dispatched_at;
              completed_ns = task.Task.completed_at;
            }
            :: stats.Core.records;
        let inst = instances.(task.Task.instance_id) in
        let newly = ref 0 in
        if not inst.Task.cancelled then begin
          inst.Task.remaining <- inst.Task.remaining - 1;
          if inst.Task.remaining = 0 then begin
            inst.Task.completed_at <- !now;
            decr unfinished
          end;
          List.iter
            (fun (succ : Task.t) ->
              succ.Task.unmet <- succ.Task.unmet - 1;
              if succ.Task.unmet = 0 then begin
                make_ready succ;
                incr newly
              end)
            task.Task.successors
        end;
        if !newly > 0 then
          wm_charge (Cost_model.ready_update_per_task_ns *. float_of_int !newly) 11
        else wm_after_completion ()
    end
  and wm_after_completion () =
    if handlers.(!sw_hi).Core.h_capacity <= 1 then do_schedule 0
    else begin
      sw_batch := true;
      wm_sweep_cont ()
    end
  and do_schedule ret =
    ds_ret := ret;
    let n_idle = ref 0 in
    for i = 0 to n_pes - 1 do
      let b = handlers.(i).Core.h_inflight < handlers.(i).Core.h_capacity in
      idle.(i) <- b;
      if b then incr n_idle
    done;
    if !ready_live = 0 || !n_idle = 0 then ds_end ()
    else begin
      let ready_len = !ready_live in
      let nready = if ready_len < sched_window then ready_len else sched_window in
      if traced then begin
        ds_ready := ready_len;
        ds_nready := nready
      end;
      as_n := 0;
      ds_ops := nready * n_pes;
      run_policy nready !n_idle;
      let cost =
        scale
          (float_of_int
             (Scheduler.overhead_ns ~policy_name:plan.p_policy.Scheduler.name
                ~ready:ready_len ~pes:n_pes ~ops:!ds_ops))
      in
      ds_cost := cost;
      stats.Core.wm_ns <- stats.Core.wm_ns + cost;
      wm_then 12 (Des.work des wm_th cost)
    end
  (* Same early exit as the built-ins in [Scheduler]: an assignment
     can only ever land on an idle PE and every other per-entry
     computation is scratch, so once the idle budget is exhausted the
     rest of the <= [sched_window] window is unobservable (RANDOM
     included: its draws are idle-gated).  [ops] is charged as
     [nready * n_pes], the full window the walk stands for. *)
  and run_policy nready n_idle0 =
    let emit (t : Task.t) i sl =
      if !as_n = Array.length !as_task then begin
        let cap = max n_pes (2 * !as_n) in
        let grow a fill =
          let b = Array.make cap fill in
          Array.blit a 0 b 0 !as_n;
          b
        in
        as_task := grow !as_task t;
        as_pe := grow !as_pe 0;
        as_slot := grow !as_slot 0
      end;
      !as_task.(!as_n) <- t;
      !as_pe.(!as_n) <- i;
      !as_slot.(!as_n) <- sl;
      incr as_n
    in
    let sl_task = !sl_task and sl_nxt = !sl_nxt in
    let n_idle = ref n_idle0 in
    let cur = ref !rl_head in
    let j = ref 0 in
    (match plan.p_pcode with
    | P_frfs ->
      while !j < nready && !n_idle > 0 do
        let t = sl_task.(!cur) in
        let est = classes.(t.Task.instance_id).Exec_model.est and row = t.Task.index * stride in
        let chosen = ref (-1) in
        for i = 0 to n_pes - 1 do
          if !chosen < 0 && idle.(i) && est.(row + i) <> min_int then chosen := i
        done;
        if !chosen >= 0 then begin
          idle.(!chosen) <- false;
          decr n_idle;
          emit t !chosen !cur
        end;
        cur := sl_nxt.(!cur);
        incr j
      done
    | P_met ->
      while !j < nready && !n_idle > 0 do
        let t = sl_task.(!cur) in
        let est = classes.(t.Task.instance_id).Exec_model.est and row = t.Task.index * stride in
        let best = ref (-1) and best_est = ref 0 in
        for i = 0 to n_pes - 1 do
          if idle.(i) then begin
            let e = est.(row + i) in
            if e <> min_int && (!best < 0 || e < !best_est) then begin
              best := i;
              best_est := e
            end
          end
        done;
        if !best >= 0 then begin
          idle.(!best) <- false;
          decr n_idle;
          emit t !best !cur
        end;
        cur := sl_nxt.(!cur);
        incr j
      done
    | P_eft ->
      let now_v = !now in
      for i = 0 to n_pes - 1 do
        avail.(i) <- (if idle.(i) then now_v else handlers.(i).Core.h_busy_until)
      done;
      while !j < nready && !n_idle > 0 do
        let t = sl_task.(!cur) in
        let est = classes.(t.Task.instance_id).Exec_model.est and row = t.Task.index * stride in
        let best = ref (-1) and best_fin = ref 0 in
        for i = 0 to n_pes - 1 do
          let e = est.(row + i) in
          if e <> min_int then begin
            let fin = max now_v avail.(i) + e in
            if !best < 0 || fin < !best_fin then begin
              best := i;
              best_fin := fin
            end
          end
        done;
        if !best >= 0 then begin
          avail.(!best) <- !best_fin;
          if idle.(!best) then begin
            idle.(!best) <- false;
            decr n_idle;
            emit t !best !cur
          end
        end;
        cur := sl_nxt.(!cur);
        incr j
      done
    | P_power ->
      while !j < nready && !n_idle > 0 do
        let t = sl_task.(!cur) in
        let est = classes.(t.Task.instance_id).Exec_model.est and row = t.Task.index * stride in
        let best = ref (-1) and best_energy = ref 0.0 and best_est = ref 0 in
        for i = 0 to n_pes - 1 do
          if idle.(i) then begin
            let e = est.(row + i) in
            if e <> min_int then begin
              let energy = float_of_int e *. plan.p_pe_busy_w.(i) in
              if
                !best < 0 || energy < !best_energy
                || (energy = !best_energy && e < !best_est)
              then begin
                best := i;
                best_energy := energy;
                best_est := e
              end
            end
          end
        done;
        if !best >= 0 then begin
          idle.(!best) <- false;
          decr n_idle;
          emit t !best !cur
        end;
        cur := sl_nxt.(!cur);
        incr j
      done
    | P_random ->
      while !j < nready && !n_idle > 0 do
        let t = sl_task.(!cur) in
        let est = classes.(t.Task.instance_id).Exec_model.est and row = t.Task.index * stride in
        let cn = ref 0 in
        for i = 0 to n_pes - 1 do
          if idle.(i) && est.(row + i) <> min_int then begin
            cand.(!cn) <- i;
            incr cn
          end
        done;
        if !cn > 0 then begin
          (* The reference builds the candidate list by prepending
             ascending PE indices (so the array Prng.choose indexes is
             descending); replicate the draw against that ordering. *)
          let k = Prng.int prng !cn in
          let i = cand.(!cn - 1 - k) in
          idle.(i) <- false;
          decr n_idle;
          emit t i !cur
        end;
        cur := sl_nxt.(!cur);
        incr j
      done
    | P_custom ->
      if Array.length !cx_ready = 0 then cx_ready := Array.make sched_window sl_task.(!cur);
      while !j < nready do
        !cx_ready.(!j) <- sl_task.(!cur);
        cur := sl_nxt.(!cur);
        incr j
      done;
      for i = 0 to n_pes - 1 do
        let st = cx_pes.(i) in
        st.Scheduler.idle <- idle.(i);
        st.Scheduler.busy_until <- handlers.(i).Core.h_busy_until
      done;
      let ctx =
        {
          Scheduler.now = !now;
          ready = !cx_ready;
          nready;
          pes = cx_pes;
          estimate = cx_estimate;
          prng;
          ops = 0;
        }
      in
      List.iter
        (fun (a : Scheduler.assignment) -> emit a.Scheduler.task a.Scheduler.pe_index (-1))
        (plan.p_policy.Scheduler.schedule ctx);
      ds_ops := ctx.Scheduler.ops)
  and wm_after_sched_work () =
    stats.Core.sched_ns <- stats.Core.sched_ns + !ds_cost;
    stats.Core.sched_invocations <- stats.Core.sched_invocations + 1;
    if traced then
      Obs.on_sched obs ~now:!now ~ready:!ds_ready ~examined:!ds_nready ~ops:!ds_ops
        ~cost_ns:!ds_cost ~assigned:!as_n;
    ds_pos := 0;
    wm_dispatch_next ()
  and wm_dispatch_next () =
    if !ds_pos >= !as_n then ds_end ()
    else if custom && not (dispatchable !ds_pos) then begin
      incr ds_pos;
      wm_dispatch_next ()
    end
    else wm_charge Cost_model.dispatch_per_task_ns 13
  (* A custom policy's assignment is dropped, uncharged, unless its
     task is still Ready (not listed twice) and its PE exists and
     supports it. *)
  and dispatchable j =
    let task = !as_task.(j) and pi = !as_pe.(j) in
    task.Task.status = Task.Ready && pi >= 0 && pi < n_pes
    && (cls task).Exec_model.est.(row task pi) <> min_int
  and wm_dispatch_commit () =
    let j = !ds_pos in
    let task = !as_task.(j) and pi = !as_pe.(j) in
    let h = handlers.(pi) in
    task.Task.status <- Task.Running;
    task.Task.attempts <- task.Task.attempts + 1;
    rl_unlink (if custom then slot_of task else !as_slot.(j));
    decr ready_live;
    task.Task.dispatched_at <- !now;
    task.Task.pe_label <- h.Core.h_pe.Pe.label;
    Queue.add task h.Core.h_pending;
    h.Core.h_inflight <- h.Core.h_inflight + 1;
    incr inflight;
    h.Core.h_busy_until <-
      max !now h.Core.h_busy_until + (cls task).Exec_model.est.(row task pi);
    if traced then begin
      Obs.on_task_dispatched obs ~now:!now ~task:task.Task.id
        ~instance:task.Task.instance_id ~app:task.Task.app_name
        ~node:task.Task.node.App_spec.node_name ~pe:h.Core.h_pe.Pe.label
        ~pe_index:pi ~wait_ns:(!now - task.Task.ready_at) ~ready_depth:!ready_live
        ~pe_depth:h.Core.h_inflight ~inflight:!inflight;
      if h.Core.h_capacity > 1 then
        Obs.on_reservation_enqueued obs ~now:!now ~pe_index:pi
          ~depth:(Queue.length h.Core.h_pending)
    end;
    Des.signal des pi;
    incr ds_pos;
    wm_dispatch_next ()
  and ds_end () =
    match !ds_ret with
    | 0 -> wm_sweep_cont ()
    | 1 -> wm_inject ()
    | _ -> wm_tick_tail ()
  and wm_inject () =
    match service with
    | Some sv ->
      let injected = sv.sv_tick ops ~now:!now in
      if traced then tick_injected := injected;
      wm_injected injected
    | None -> wm_drain ()
  and wm_drain () =
    let injected = ref 0 in
    let now_v = !now in
    while
      !pending_idx < n_items && instances.(!pending_idx).Task.arrival_ns <= now_v
    do
      let inst = instances.(!pending_idx) in
      incr pending_idx;
      if traced then
        Obs.on_instance_injected obs ~now:now_v ~instance:inst.Task.inst_id
          ~app:inst.Task.app.App_spec.app_name;
      List.iter
        (fun t ->
          make_ready t;
          incr injected)
        inst.Task.entry
    done;
    if traced then tick_injected := !injected;
    wm_injected !injected
  and wm_injected injected =
    if injected > 0 then
      wm_charge (Cost_model.ready_update_per_task_ns *. float_of_int injected) 14
    else wm_tick_tail ()
  and wm_after_inject () = do_schedule 2
  and wm_tick_tail () =
    Des.sample_depth des;
    if traced then
      Obs.on_wm_tick obs ~now:!now ~completions:!tick_completions
        ~injected:!tick_injected;
    let finished =
      match service with
      | Some sv -> sv.sv_finished ops ~now:!now
      | None -> !unfinished = 0 && !pending_idx >= n_items
    in
    if finished then
      Array.iter
        (fun (h : unit Core.handler) ->
          h.Core.h_stop <- true;
          Des.signal des h.Core.h_index)
        handlers
    else wm_await ()
  and wm_await () =
    wm_then 15
      (match service with
      | None ->
        if !pending_idx < n_items then
          Des.await_until des wm_th instances.(!pending_idx).Task.arrival_ns
        else Des.await des wm_th
      | Some sv -> (
        match sv.sv_next ~now:!now with
        | Some t -> Des.await_until des wm_th t
        | None -> Des.await des wm_th))
  and wm_goto pc =
    match pc with
    | 10 -> wm_sweep_start ()
    | 11 -> wm_after_completion ()
    | 12 -> wm_after_sched_work ()
    | 13 -> wm_dispatch_commit ()
    | 14 -> wm_after_inject ()
    | 15 -> wm_tick_top ()
    | _ -> assert false
  in
  (* ---- startup (resource managers, then the WM) and the event loop ---- *)
  for th = 0 to wm_th do
    Des.start des th
  done;
  (* A checkpoint is taken right after the tick that observed a
     quiescent instant, whose next action is the await on the next
     service deadline: a resumed WM starts with that await, not with a
     tick whose monitoring charge the uninterrupted run never paid. *)
  let wm_start () = if Option.is_some resume then wm_await () else wm_tick_top () in
  Des.run des
    ~on_start:(fun th -> if th = wm_th then wm_start () else rm_await th)
    ~on_resume:(fun th -> if th = wm_th then wm_goto !wm_pc else rm_goto th rm_pc.(th));
  (handlers, stats, des)

let run_timed ~obs plan (params : Core.params) instances =
  let prng = Prng.create ~seed:params.Core.seed in
  let handlers, stats, des = exec ~obs ~service:None ~resume:None ~prng plan params instances in
  let config = plan.p_config in
  Core.report ~host_name:config.Config.host.Host.name ~config ~policy:plan.p_policy
    ~handlers ~instances ~stats ~fabric:(Des.counters des)

let run ?(obs = Obs.disabled) plan params =
  run_timed ~obs plan params (Exec_model.instantiate plan.p_model ~fresh_stores:false)

let run_detailed ?(obs = Obs.disabled) plan params =
  let instances = Exec_model.instantiate plan.p_model ~fresh_stores:true in
  let report = run_timed ~obs plan params instances in
  Functional.fill_stores ~pes:(Array.to_list plan.p_model.Exec_model.pes) instances;
  (report, instances)

let run_service ?(obs = Obs.disabled) ?resume plan (params : Core.params) ~service =
  let prng =
    match resume with
    | Some r -> Prng.of_state r.rs_prng
    | None -> Prng.create ~seed:params.Core.seed
  in
  let instances = Exec_model.instantiate plan.p_model ~fresh_stores:false in
  let handlers, _, _ =
    exec ~obs ~service:(Some (service instances)) ~resume ~prng plan params instances
  in
  {
    sr_instances = instances;
    sr_prng = Prng.state prng;
    sr_handlers =
      Array.map
        (fun (h : unit Core.handler) ->
          {
            hs_busy_until = h.Core.h_busy_until;
            hs_busy_ns = h.Core.h_busy_ns;
            hs_tasks_run = h.Core.h_tasks_run;
          })
        handlers;
  }
