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
module Compiled = Compiled_engine

(* Historical default: policy randomness seeded at 7, no jitter on the
   modelled device-compute sleeps, no reservation queues. *)
let default_params = { Core.seed = 7L; jitter = 0.0; reservation_depth = 0 }

let sleep_ns ns = if ns > 0 then Unix.sleepf (float_of_int ns /. 1e9)

(* Shared-fabric ledger: a counting semaphore bounded by the FIFO
   depth, with contention counters updated under the same mutex.
   Resource-manager domains block in [Condition.wait] while the link is
   full — the wall-clock analogue of [Des]'s FIFO stall. *)
type nfab = {
  f_mutex : Mutex.t;
  f_cond : Condition.t;
  mutable f_inflight : int;
  f_fifo_depth : int;
}

(* One DMA stream through the bus: the modelled link demand as a timed
   sleep, gated by the bounded-FIFO ledger. *)
let stream f (c : Core.fabric_counters) ~obs ~now pe ~bytes ns =
  if ns > 0 then begin
    Mutex.lock f.f_mutex;
    c.Core.fc_streams <- c.Core.fc_streams + 1;
    if f.f_inflight >= f.f_fifo_depth then begin
      c.Core.fc_stalls <- c.Core.fc_stalls + 1;
      if Obs.enabled obs then
        Obs.on_stream_stalled obs ~now:(now ()) ~pe_index:pe ~bytes
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
      Obs.on_stream_admitted obs ~now:(now ()) ~pe_index:pe ~bytes ~stall_ns:0
        ~inflight:f.f_inflight;
    Mutex.unlock f.f_mutex;
    sleep_ns ns;
    Mutex.lock f.f_mutex;
    f.f_inflight <- f.f_inflight - 1;
    Condition.broadcast f.f_cond;
    Mutex.unlock f.f_mutex
  end

(* The machine over OCaml 5 domains: one domain per PE runs its
   resource manager, the calling domain the workload manager.  Every
   call blocks the calling domain and returns [false], so nothing ever
   suspends.  Each thread waits on a pipe of its own, leaving its core
   to the others: a signal is a byte that stays pending until the next
   wait reads it, and a wait can also end at a deadline.  Kernels run
   for real on the task's store, modelled device compute and fabric
   demand are timed sleeps, and manager costs are measured wall time. *)
let substrate ~obs ~(config : Config.t) ~(params : Core.params) ~(model : Exec_model.t)
    (handlers : Core.handler array) (stats : Core.wm_stats) =
  let n = Array.length handlers in
  let mutex = Array.init n (fun _ -> Mutex.create ()) in
  (* Jitter draws come from a stream per resource manager, so domains
     never contend on — or nondeterministically interleave draws from —
     a shared one. *)
  let prngs = Array.init n (fun i -> Prng.derive ~seed:params.Core.seed ~index:(i + 1)) in
  let counters = Core.make_fabric_counters () in
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
        }
  in
  (* Handler domains emit into the sink concurrently with the WM, so
     switch the log from its single-producer mode before any spawns. *)
  Obs.Sink.synchronize (Obs.sink obs);
  let start = Mclock.now_ns () in
  let now () = Mclock.now_ns () - start in
  let pipes =
    Array.init (n + 1) (fun _ ->
        let r, w = Unix.pipe ~cloexec:true () in
        Unix.set_nonblock r;
        Unix.set_nonblock w;
        (r, w))
  in
  let one = Bytes.make 1 'x' in
  let again f = try f () with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> () in
  (* A full pipe already holds a pending signal. *)
  let signal th = again (fun () -> ignore (Unix.single_write (snd pipes.(th)) one 0 1)) in
  (* A resource manager that died raising signals the workload manager,
     which re-raises when it wakes. *)
  let failed = Atomic.make None in
  let await th deadline =
    let r = fst pipes.(th) in
    let timeout =
      match deadline with None -> -1.0 | Some t -> Float.max 0.0 (float_of_int (t - now ()) /. 1e9)
    in
    (match Unix.select [ r ] [] [] timeout with
    | [], _, _ -> ()
    | _ -> again (fun () -> ignore (Unix.read r (Bytes.create 64) 0 64))
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    (match Atomic.get failed with
    | Some (e, bt) when th = n -> Printexc.raise_with_backtrace e bt
    | _ -> ());
    false
  in
  (* The kernel node [j] of the instance runs on PE [pe], and its arguments. *)
  let kernel pe (st : Task.state) j =
    let tp = model.Exec_model.classes.(st.Task.st_cls).Exec_model.topology in
    let node = tp.Task.tp_nodes.(j) in
    (Exec_model.node_kernel tp.Task.tp_spec node handlers.(pe).Core.h_pe, node.App_spec.arguments)
  in
  {
    Compiled.s_now = now;
    s_work = (fun _ _ -> false);
    s_sleep =
      (fun _ ns ->
        sleep_ns ns;
        false);
    s_stream =
      (fun th ~bytes ns ->
        (match fab with Some f -> stream f counters ~obs ~now th ~bytes ns | None -> ());
        false);
    s_await = (fun th -> await th None);
    s_await_until = (fun th t -> await th (Some t));
    s_signal = signal;
    s_lock = (fun h -> Mutex.lock mutex.(h.Core.h_index));
    s_unlock = (fun h -> Mutex.unlock mutex.(h.Core.h_index));
    s_jitter = (fun th ns -> Core.jittered prngs.(th) ~jitter:params.Core.jitter ns);
    (* A CPU kernel runs for real; its own time is the execution. *)
    s_cpu =
      (fun pe st j _ ->
        let k, args = kernel pe st j in
        k st.Task.st_store args;
        false);
    (* An accelerator does not exist on the host: real copies of the
       task's pointer arguments stand in for its transfers, and a timed
       sleep of the modelled duration for its compute.  A task with no
       pointer arguments moves no data, so no buffer is allocated. *)
    s_compute =
      (fun pe st j ns ->
        let k, args = kernel pe st j in
        let store = st.Task.st_store in
        let scratch =
          match List.filter (fun a -> (Store.spec store a).Store.is_ptr) args with
          | [] -> None
          | ptr_args ->
            let buf = Buffer.create 256 in
            List.iter (fun a -> Buffer.add_bytes buf (Store.get_raw store a)) ptr_args;
            Some buf
        in
        k store args;
        sleep_ns ns;
        Option.iter (fun buf -> ignore (Buffer.contents buf)) scratch;
        false);
    (* Manager bookkeeping costs real time here: nothing to model.
       Scheduling cost is the policy call's wall time, and the WM's
       overhead each tick's that did work (a tick that found nothing to
       do was waiting). *)
    s_charge = (fun _ -> false);
    s_mark = now;
    s_sched_done = (fun t0 ~ready:_ ~ops:_ -> now () - t0);
    s_tick_end =
      (fun t0 ~busy -> if busy then stats.Core.wm_ns <- stats.Core.wm_ns + (now () - t0));
    s_counters = counters;
    s_run =
      (fun ~on_start ~on_resume:_ ->
        (* One domain per PE plays its resource manager (Fig. 4)... *)
        let domains =
          Array.init n (fun i ->
              Domain.spawn (fun () ->
                  try on_start i
                  with e ->
                    (* A raising kernel ends this domain; the workload
                       manager re-raises when it wakes instead of
                       waiting forever on a task that will never
                       complete. *)
                    ignore
                      (Atomic.compare_and_set failed None
                         (Some (e, Printexc.get_raw_backtrace ()))
                        : bool);
                    signal n))
        in
        (* ...while the calling domain plays the workload manager (Fig. 3). *)
        let wm =
          match on_start n with
          | () -> Ok ()
          | exception e -> Error (e, Printexc.get_raw_backtrace ())
        in
        (* Whether or not the WM survived, every handler domain must
           observe stop before the run returns or re-raises: a poisoned
           run (policy exception, kernel exception) must not leak live
           domains.  On the normal path the WM already set [h_stop];
           setting it again is idempotent. *)
        Array.iteri
          (fun i (h : Core.handler) ->
            Mutex.lock mutex.(i);
            h.Core.h_stop <- true;
            Mutex.unlock mutex.(i);
            signal i)
          handlers;
        Array.iter Domain.join domains;
        Array.iter (fun (r, w) -> Unix.close r; Unix.close w) pipes;
        match wm with Error (e, bt) -> Printexc.raise_with_backtrace e bt | Ok () -> ());
  }

let run_detailed ?(params = default_params) ?obs ?fault ~(config : Config.t)
    ~(workload : Workload.t) ~(policy : Scheduler.policy) () =
  let model = Exec_model.lower ~engine_name:"Native_engine.run" ~config workload in
  let report, instances =
    Compiled.run_on ?obs ?fault ~config ~policy model params
      (substrate ~obs:(Option.value obs ~default:Obs.disabled) ~config ~params ~model)
  in
  ({ report with Stats.host_name = config.Config.host.Host.name ^ " (native)" }, instances)

let run ?params ?obs ?fault ~config ~workload ~policy () =
  fst (run_detailed ?params ?obs ?fault ~config ~workload ~policy ())
