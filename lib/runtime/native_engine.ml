module Pe = Dssoc_soc.Pe
module Host = Dssoc_soc.Host
module Config = Dssoc_soc.Config
module Fabric = Dssoc_soc.Fabric
module App_spec = Dssoc_apps.App_spec
module Store = Dssoc_apps.Store
module Workload = Dssoc_apps.Workload
module Prng = Dssoc_util.Prng
module Mclock = Dssoc_util.Mclock
module Core = Engine_core
module Obs = Dssoc_obs.Obs

(* Historical default: policy randomness seeded at 7, no jitter on the
   modelled device-compute sleeps, no reservation queues. *)
let default_params = { Core.seed = 7L; jitter = 0.0; reservation_depth = 0 }

(* Backend-private handler state: the mutex/condvar pair guarding this
   handler's queues, and a per-handler PRNG stream for jittering the
   modelled accelerator compute (per-handler so concurrent domains
   never contend on — or nondeterministically interleave draws from —
   a shared stream). *)
type nh = { nh_mutex : Mutex.t; nh_cond : Condition.t; nh_prng : Prng.t }

(* Shared-fabric ledger: a counting semaphore bounded by the FIFO
   depth, with contention counters updated under the same mutex.
   Handler domains block in [Condition.wait] while the link is full —
   the wall-clock analogue of the virtual engine's FIFO stall. *)
type nfab = {
  f_mutex : Mutex.t;
  f_cond : Condition.t;
  mutable f_inflight : int;
  f_fifo_depth : int;
  f_counters : Core.fabric_counters;
}

let backend ~start ~fab ~model ~failed ~(params : Core.params) ~(stats : Core.wm_stats) ~obs =
  let now () = Mclock.now_ns () - start in
  (* One DMA phase.  The real byte copies stand in for the transfer
     itself (in [execute], fabric or not); a phase that streams through
     a bus also pays its modelled link demand and fixed chunk/hop
     latency as timed sleeps, gated by the bounded-FIFO ledger.  A
     phase that bypasses the fabric charges nothing extra. *)
  let dma (h : nh Core.handler) ~demand ~fixed ~bytes =
    match fab with
    | Some f when demand >= 0 ->
      let dem = Core.jittered h.Core.h_backend.nh_prng ~jitter:params.Core.jitter demand in
      if dem > 0 then begin
        let c = f.f_counters in
        Mutex.lock f.f_mutex;
        c.Core.fc_streams <- c.Core.fc_streams + 1;
        if f.f_inflight >= f.f_fifo_depth then begin
          c.Core.fc_stalls <- c.Core.fc_stalls + 1;
          if Obs.enabled obs then
            Obs.on_stream_stalled obs ~now:(now ()) ~pe_index:h.Core.h_index ~bytes
              ~queued:(f.f_inflight - f.f_fifo_depth + 1);
          let t0 = now () in
          while f.f_inflight >= f.f_fifo_depth do
            Condition.wait f.f_cond f.f_mutex
          done;
          c.Core.fc_stall_ns <- c.Core.fc_stall_ns + (now () - t0)
        end;
        f.f_inflight <- f.f_inflight + 1;
        if f.f_inflight > c.Core.fc_max_inflight then c.Core.fc_max_inflight <- f.f_inflight;
        if Obs.enabled obs then
          Obs.on_stream_admitted obs ~now:(now ()) ~pe_index:h.Core.h_index ~bytes ~stall_ns:0
            ~inflight:f.f_inflight;
        Mutex.unlock f.f_mutex;
        Unix.sleepf (float_of_int dem /. 1e9);
        Mutex.lock f.f_mutex;
        f.f_inflight <- f.f_inflight - 1;
        Condition.broadcast f.f_cond;
        Mutex.unlock f.f_mutex
      end;
      if fixed > 0 then Unix.sleepf (float_of_int fixed /. 1e9)
    | _ -> ()
  in
  let execute (h : nh Core.handler) (task : Task.t) =
    let kernel = Exec_model.resolve_kernel task h.Core.h_pe in
    let args = task.Task.node.App_spec.arguments in
    match h.Core.h_pe.Pe.kind with
    | Pe.Cpu _ -> kernel task.Task.store args
    | Pe.Accel _ ->
      let traced = Obs.enabled obs in
      let phase_end ph t0 =
        if traced then
          Obs.on_phase obs ~now:(now ()) ~task:task.Task.id
            ~pe_index:h.Core.h_index ~phase:ph ~start_ns:t0 ~dur_ns:(now () - t0)
      in
      (* Real copies stand in for the DMA transfers; a timed sleep
         stands in for the device compute.  A task with no pointer
         arguments moves no data, so no scratch buffer is allocated. *)
      let ptr_args =
        List.filter (fun a -> (Store.spec task.Task.store a).Store.is_ptr) args
      in
      let c = Exec_model.class_of model task and row = Exec_model.row model task h.Core.h_index in
      let t0 = now () in
      let scratch =
        match ptr_args with
        | [] -> None
        | _ ->
          let buf = Buffer.create 256 in
          List.iter (fun a -> Buffer.add_bytes buf (Store.get_raw task.Task.store a)) ptr_args;
          Some buf
      in
      dma h ~demand:c.Exec_model.demand_in.(row) ~fixed:c.Exec_model.fixed_in.(row)
        ~bytes:c.Exec_model.bytes_in.(row);
      phase_end Obs.Dma_in t0;
      kernel task.Task.store args;
      let compute =
        Core.jittered h.Core.h_backend.nh_prng ~jitter:params.Core.jitter
          c.Exec_model.compute.(row)
      in
      let t1 = now () in
      Unix.sleepf (float_of_int compute /. 1e9);
      phase_end Obs.Device_compute t1;
      let t2 = now () in
      Option.iter (fun buf -> ignore (Buffer.contents buf)) scratch;
      dma h ~demand:c.Exec_model.demand_out.(row) ~fixed:c.Exec_model.fixed_out.(row)
        ~bytes:c.Exec_model.bytes_out.(row);
      phase_end Obs.Dma_out t2
  in
  {
    Core.b_now = now;
    b_lock = (fun h -> Mutex.lock h.Core.h_backend.nh_mutex);
    b_unlock = (fun h -> Mutex.unlock h.Core.h_backend.nh_mutex);
    b_handler_await =
      (fun h ->
        let nb = h.Core.h_backend in
        while (not h.Core.h_stop) && Queue.is_empty h.Core.h_pending do
          Condition.wait nb.nh_cond nb.nh_mutex
        done);
    b_notify_handler = (fun h -> Condition.signal h.Core.h_backend.nh_cond);
    (* The workload manager polls: completions are observed by the
       monitoring sweep, so a completion notification is unnecessary.
       A resource manager that died raising is re-raised here. *)
    b_wm_await =
      (fun ~deadline:_ ->
        match Atomic.get failed with
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> Domain.cpu_relax ());
    b_notify_wm = (fun () -> ());
    (* Manager bookkeeping costs real time here — nothing to model. *)
    b_charge = (fun _ -> ());
    b_execute = execute;
    (* Fault-detection latencies and slowdown tails are timed sleeps,
       like the modelled device compute. *)
    b_delay = (fun _h ns -> if ns > 0 then Unix.sleepf (float_of_int ns /. 1e9));
    (* Scheduling cost is measured wall time, not a model. *)
    b_sched_start = now;
    b_sched_done = (fun t0 ~ready:_ ~ops:_ -> now () - t0);
    b_wm_tick_start = now;
    b_wm_tick_end = (fun t0 -> stats.Core.wm_ns <- stats.Core.wm_ns + (now () - t0));
  }

let run_detailed ?(params = default_params) ?(obs = Obs.disabled) ?fault
    ~(config : Config.t) ~(workload : Workload.t) ~(policy : Scheduler.policy) () =
  let model = Exec_model.lower ~engine_name:"Native_engine.run" ~config workload in
  let instances = Exec_model.instantiate model ~fresh_stores:true in
  let handlers =
    Array.of_list
      (List.mapi
         (fun i (p : Config.placement) ->
           Core.make_handler ~pe:p.Config.pe ~index:i
             ~reservation_depth:params.Core.reservation_depth
             {
               nh_mutex = Mutex.create ();
               nh_cond = Condition.create ();
               nh_prng = Prng.derive ~seed:params.Core.seed ~index:(i + 1);
             })
         config.Config.placements)
  in
  let stats = Core.make_stats () in
  let fault = Core.compile_fault fault ~handlers in
  Obs.attach_pes obs ~pe_labels:(Array.map (fun h -> h.Core.h_pe.Pe.label) handlers);
  (* Handler domains emit into the sink concurrently with the WM, so
     switch the ring from its single-producer lock-free mode before any
     domain spawns. *)
  Obs.Sink.synchronize (Obs.sink obs);
  let fabric_counters = Core.make_fabric_counters () in
  let fab =
    match config.Config.fabric with
    | Fabric.Ideal -> None
    | Fabric.Bus bus ->
      Some
        {
          f_mutex = Mutex.create ();
          f_cond = Condition.create ();
          f_inflight = 0;
          f_fifo_depth = bus.Fabric.fifo_depth;
          f_counters = fabric_counters;
        }
  in
  let start = Mclock.now_ns () in
  let failed = Atomic.make None in
  let b = backend ~start ~fab ~model ~failed ~params ~stats ~obs in
  (* One domain per PE plays its resource manager (Fig. 4)... *)
  let domains =
    Array.map
      (fun h ->
        Domain.spawn (fun () ->
            try Core.resource_manager ~obs ~fault ~model b h
            with e ->
              (* A raising kernel ends this domain; the workload manager
                 re-raises at its next await instead of waiting forever
                 on a task that will never complete. *)
              ignore
                (Atomic.compare_and_set failed None (Some (e, Printexc.get_raw_backtrace ()))
                  : bool)))
      handlers
  in
  (* ...while the calling domain plays the workload manager (Fig. 3). *)
  let prng = Prng.create ~seed:params.Core.seed in
  let wm_result =
    match
      Core.workload_manager ~obs ~fault b ~handlers ~instances ~model ~policy ~prng ~stats
    with
    | () -> Ok ()
    | exception e -> Error (e, Printexc.get_raw_backtrace ())
  in
  (* Whether or not the WM survived, every handler domain must observe
     stop before this function returns or re-raises — a poisoned run
     (policy exception, fault-plan abort, ...) must not leak live
     domains.  On the normal path the WM already set [h_stop]; setting
     it again is idempotent. *)
  Array.iter
    (fun h ->
      let nb = h.Core.h_backend in
      Mutex.lock nb.nh_mutex;
      h.Core.h_stop <- true;
      Condition.signal nb.nh_cond;
      Mutex.unlock nb.nh_mutex)
    handlers;
  Array.iter Domain.join domains;
  match wm_result with
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt
  | Ok () ->
    ( Core.report
        ~host_name:(config.Config.host.Host.name ^ " (native)")
        ~config ~policy ~handlers ~instances ~stats ~fabric:fabric_counters,
      instances )

let run ?params ?obs ?fault ~config ~workload ~policy () =
  fst (run_detailed ?params ?obs ?fault ~config ~workload ~policy ())
