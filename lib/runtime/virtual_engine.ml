module Prng = Dssoc_util.Prng
module Pe = Dssoc_soc.Pe
module Host = Dssoc_soc.Host
module Config = Dssoc_soc.Config
module Workload = Dssoc_apps.Workload
module Core = Engine_core
module Obs = Dssoc_obs.Obs

type params = Engine_core.params = {
  seed : int64;
  jitter : float;
  reservation_depth : int;
}

let default_params = Engine_core.default_params

(* ------------------------------------------------------------------ *)
(* Effect threads over the discrete-event substrate                    *)
(* ------------------------------------------------------------------ *)

(* Engine_core's protocol is direct-style; these effects bridge it onto
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
(* The DES backend for the shared engine core                          *)
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
  let execute (h : unit Core.handler) (task : Task.t) =
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
      phase_end Obs.Dma_in t0;
      (* ...then the thread sleeps while the device computes... *)
      let t1 = !now in
      sleep_ns (jit c.Exec_model.compute.(row));
      phase_end Obs.Device_compute t1;
      (* ...and wakes to move the results back. *)
      let t2 = !now in
      dma ~ideal:c.Exec_model.dma_out.(row) ~demand:c.Exec_model.demand_out.(row)
        ~fixed:c.Exec_model.fixed_out.(row) ~bytes:c.Exec_model.bytes_out.(row);
      phase_end Obs.Dma_out t2
  in
  {
    Core.b_now = (fun () -> !now);
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

let run_timed ~fresh_stores ?(params = default_params) ?(obs = Obs.disabled) ?fault
    ~(config : Config.t) ~(workload : Workload.t) ~(policy : Scheduler.policy) () =
  let prng = Prng.create ~seed:params.seed in
  let model = Exec_model.lower ~engine_name:"Virtual_engine.run" ~config workload in
  let instances = Exec_model.instantiate model ~fresh_stores in
  let handlers =
    Array.of_list
      (List.mapi
         (fun i (p : Config.placement) ->
           Core.make_handler ~pe:p.Config.pe ~index:i
             ~reservation_depth:params.reservation_depth ())
         config.Config.placements)
  in
  let stats = Core.make_stats () in
  let fault = Core.compile_fault fault ~handlers in
  Obs.attach_pes obs ~pe_labels:(Array.map (fun h -> h.Core.h_pe.Pe.label) handlers);
  let des = Des.create ~obs ~clock0:0 config in
  let b =
    backend des ~prng ~jitter:params.jitter
      ~overlay_perf:config.Config.host.Host.overlay.Host.core_class.Pe.perf_factor
      ~model ~policy ~n_pes:(Array.length handlers) ~stats ~obs
  in
  (* Resource managers are threads [0 .. n_pes-1], the workload manager
     thread [n_pes]; their first events are pushed in that order. *)
  run_threads des
    (Array.append
       (Array.map (fun h () -> Core.resource_manager ~obs ~fault ~model b h) handlers)
       [|
         (fun () ->
           Core.workload_manager ~obs ~fault b ~handlers ~instances ~model ~policy ~prng ~stats);
       |]);
  ( Core.report ~host_name:config.Config.host.Host.name ~config ~policy ~handlers
      ~instances ~stats ~fabric:(Des.counters des),
    instances )

let run ?params ?obs ?fault ~config ~workload ~policy () =
  fst (run_timed ~fresh_stores:false ?params ?obs ?fault ~config ~workload ~policy ())

let run_detailed ?params ?obs ?fault ~config ~workload ~policy () =
  let ((_, instances) as r) =
    run_timed ~fresh_stores:true ?params ?obs ?fault ~config ~workload ~policy ()
  in
  Functional.fill_stores ~pes:(Config.pes config) instances;
  r
