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
   the differential matrix in test_diff_engines.ml. *)

type pcode = P_frfs | P_met | P_eft | P_power | P_random

type plan = {
  p_config : Config.t;
  p_policy : Scheduler.policy;
  p_pcode : pcode;
  p_model : Exec_model.t;
  p_pe_is_cpu : bool array;
  p_pe_busy_w : float array;
  p_overlay_perf : float;
}

let builtin_pcode (policy : Scheduler.policy) =
  if policy == Scheduler.frfs then Some P_frfs
  else if policy == Scheduler.met then Some P_met
  else if policy == Scheduler.eft then Some P_eft
  else if policy == Scheduler.power then Some P_power
  else if policy == Scheduler.random then Some P_random
  else None

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
  let pcode =
    match builtin_pcode policy with
    | Some p -> p
    | None ->
      raise
        (Unsupported
           (Printf.sprintf
              "policy %S is not one of the five built-ins the compiled engine \
               specializes"
              policy.Scheduler.name))
  in
  let model = Exec_model.lower ~engine_name:"Compiled_engine.compile" ~config workload in
  {
    p_config = config;
    p_policy = policy;
    p_pcode = pcode;
    p_model = model;
    p_pe_is_cpu = Array.map (fun pe -> Pe.is_cpu pe.Pe.kind) model.Exec_model.pes;
    p_pe_busy_w = Array.map (fun pe -> Pe.busy_w pe.Pe.kind) model.Exec_model.pes;
    p_overlay_perf = config.Config.host.Host.overlay.Host.core_class.Pe.perf_factor;
  }

(* ------------------------------------------------------------------ *)
(* The monomorphic event loop                                          *)
(* ------------------------------------------------------------------ *)

let sched_window = Cost_model.sched_examined_cap

let run_timed ~obs plan (params : Core.params) instances =
  let config = plan.p_config in
  let model = plan.p_model in
  let n_pes = model.Exec_model.n_pes in
  let stride = n_pes in
  let wm_th = n_pes in
  let prng = Prng.create ~seed:params.Core.seed in
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
  let stats = Core.make_stats () in
  (* Observability lowering: [traced] is constant for the whole run, so
     the untraced loop pays one predictable branch per hook site.
     Metric registration order is the virtual engine's — engine handles
     here, then [Des.create]'s fabric instruments and event-heap depth
     gauge — so [Metrics.pp] output is comparable byte-for-byte across
     engines. *)
  let traced = Obs.enabled obs in
  Obs.attach_pes obs ~pe_labels:(Array.map (fun pe -> pe.Pe.label) model.Exec_model.pes);
  let des = Des.create ~obs ~clock0:0 config in
  let now = Des.clock des in
  let jit ns = Core.jittered prng ~jitter ns in
  let overlay_perf = plan.p_overlay_perf in
  let scale ns = int_of_float (Float.round (ns /. overlay_perf)) in
  (* ---- workload-manager state ----
     The ready collection is an intrusive doubly-linked list over dense
     task ids: append on ready, O(1) unlink on dispatch.  It holds
     exactly the Ready tasks in insertion order — the same sequence the
     reference engine's queue exposes once stale (already-dispatched)
     entries are skipped — so the scheduling window never rescans stale
     entries and never allocates. *)
  let tk_of =
    Array.concat (List.map (fun (i : Task.instance) -> i.Task.tasks) (Array.to_list instances))
  in
  let n_tasks = Array.length tk_of in
  let rl_nxt = Array.make (max 1 n_tasks) (-1) in
  let rl_prv = Array.make (max 1 n_tasks) (-1) in
  let rl_head = ref (-1) in
  let rl_tail = ref (-1) in
  let rl_append id =
    if !rl_tail < 0 then rl_head := id
    else begin
      rl_nxt.(!rl_tail) <- id;
      rl_prv.(id) <- !rl_tail
    end;
    rl_nxt.(id) <- -1;
    rl_tail := id
  in
  let rl_unlink id =
    let p = rl_prv.(id) and n = rl_nxt.(id) in
    if p >= 0 then rl_nxt.(p) <- n else rl_head := n;
    if n >= 0 then rl_prv.(n) <- p else rl_tail := p;
    rl_prv.(id) <- -1
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
  let tick_completions = ref 0 in
  let tick_injected = ref 0 in
  let idle = Array.make (max 1 n_pes) false in
  let avail = Array.make (max 1 n_pes) 0 in
  let cand = Array.make (max 1 n_pes) 0 in
  let as_task : Task.t array ref = ref [||] in
  let as_pe = Array.make (max 1 n_pes) 0 in
  let as_n = ref 0 in
  let make_ready (t : Task.t) =
    t.Task.status <- Task.Ready;
    t.Task.ready_at <- !now;
    rl_append t.Task.id;
    incr ready_live;
    if traced then
      Obs.on_task_ready obs ~now:t.Task.ready_at ~task:t.Task.id
        ~instance:t.Task.instance_id ~app:t.Task.app_name
        ~node:t.Task.node.App_spec.node_name ~ready_depth:!ready_live
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
        inst.Task.remaining <- inst.Task.remaining - 1;
        if inst.Task.remaining = 0 then begin
          inst.Task.completed_at <- !now;
          decr unfinished
        end;
        let newly = ref 0 in
        List.iter
          (fun (succ : Task.t) ->
            succ.Task.unmet <- succ.Task.unmet - 1;
            if succ.Task.unmet = 0 then begin
              make_ready succ;
              incr newly
            end)
          task.Task.successors;
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
      run_policy nready !n_idle;
      let cost =
        scale
          (float_of_int
             (Scheduler.overhead_ns ~policy_name:plan.p_policy.Scheduler.name
                ~ready:ready_len ~pes:n_pes ~ops:(nready * n_pes)))
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
    let emit (t : Task.t) i =
      if Array.length !as_task = 0 then as_task := Array.make (max 1 n_pes) t;
      !as_task.(!as_n) <- t;
      as_pe.(!as_n) <- i;
      incr as_n
    in
    let n_idle = ref n_idle0 in
    let cur = ref !rl_head in
    let j = ref 0 in
    (match plan.p_pcode with
    | P_frfs ->
      while !j < nready && !n_idle > 0 do
        let t = tk_of.(!cur) in
        let est = classes.(t.Task.instance_id).Exec_model.est and row = t.Task.index * stride in
        let chosen = ref (-1) in
        for i = 0 to n_pes - 1 do
          if !chosen < 0 && idle.(i) && est.(row + i) <> min_int then chosen := i
        done;
        if !chosen >= 0 then begin
          idle.(!chosen) <- false;
          decr n_idle;
          emit t !chosen
        end;
        cur := rl_nxt.(!cur);
        incr j
      done
    | P_met ->
      while !j < nready && !n_idle > 0 do
        let t = tk_of.(!cur) in
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
          emit t !best
        end;
        cur := rl_nxt.(!cur);
        incr j
      done
    | P_eft ->
      let now_v = !now in
      for i = 0 to n_pes - 1 do
        avail.(i) <- (if idle.(i) then now_v else handlers.(i).Core.h_busy_until)
      done;
      while !j < nready && !n_idle > 0 do
        let t = tk_of.(!cur) in
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
            emit t !best
          end
        end;
        cur := rl_nxt.(!cur);
        incr j
      done
    | P_power ->
      while !j < nready && !n_idle > 0 do
        let t = tk_of.(!cur) in
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
          emit t !best
        end;
        cur := rl_nxt.(!cur);
        incr j
      done
    | P_random ->
      while !j < nready && !n_idle > 0 do
        let t = tk_of.(!cur) in
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
          emit t i
        end;
        cur := rl_nxt.(!cur);
        incr j
      done)
  and wm_after_sched_work () =
    stats.Core.sched_ns <- stats.Core.sched_ns + !ds_cost;
    stats.Core.sched_invocations <- stats.Core.sched_invocations + 1;
    if traced then
      Obs.on_sched obs ~now:!now ~ready:!ds_ready ~examined:!ds_nready
        ~ops:(!ds_nready * n_pes) ~cost_ns:!ds_cost ~assigned:!as_n;
    ds_pos := 0;
    wm_dispatch_next ()
  and wm_dispatch_next () =
    if !ds_pos >= !as_n then ds_end ()
    else wm_charge Cost_model.dispatch_per_task_ns 13
  and wm_dispatch_commit () =
    let j = !ds_pos in
    let task = !as_task.(j) and pi = as_pe.(j) in
    let h = handlers.(pi) in
    task.Task.status <- Task.Running;
    task.Task.attempts <- task.Task.attempts + 1;
    rl_unlink task.Task.id;
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
    if !injected > 0 then
      wm_charge (Cost_model.ready_update_per_task_ns *. float_of_int !injected) 14
    else wm_tick_tail ()
  and wm_after_inject () = do_schedule 2
  and wm_tick_tail () =
    Des.sample_depth des;
    if traced then
      Obs.on_wm_tick obs ~now:!now ~completions:!tick_completions
        ~injected:!tick_injected;
    if !unfinished = 0 && !pending_idx >= n_items then
      Array.iter
        (fun (h : unit Core.handler) ->
          h.Core.h_stop <- true;
          Des.signal des h.Core.h_index)
        handlers
    else
      wm_then 15
        (if !pending_idx < n_items then
           Des.await_until des wm_th instances.(!pending_idx).Task.arrival_ns
         else Des.await des wm_th)
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
  Des.run des
    ~on_start:(fun th -> if th = wm_th then wm_tick_top () else rm_await th)
    ~on_resume:(fun th -> if th = wm_th then wm_goto !wm_pc else rm_goto th rm_pc.(th));
  Core.report ~host_name:config.Config.host.Host.name ~config ~policy:plan.p_policy
    ~handlers ~instances ~stats ~fabric:(Des.counters des)

let run ?(obs = Obs.disabled) plan params =
  run_timed ~obs plan params (Exec_model.instantiate plan.p_model ~fresh_stores:false)

let run_detailed ?(obs = Obs.disabled) plan params =
  let instances = Exec_model.instantiate plan.p_model ~fresh_stores:true in
  let report = run_timed ~obs plan params instances in
  Functional.fill_stores ~pes:(Array.to_list plan.p_model.Exec_model.pes) instances;
  (report, instances)
