module Pe = Dssoc_soc.Pe
module Host = Dssoc_soc.Host
module Config = Dssoc_soc.Config
module Cost_model = Dssoc_soc.Cost_model
module App_spec = Dssoc_apps.App_spec
module Store = Dssoc_apps.Store
module Prng = Dssoc_util.Prng
module Obs = Dssoc_obs.Obs
module Core = Engine_core
module Fault = Dssoc_fault.Fault

(* The one implementation of the workload-manager / resource-manager
   protocol (Figs. 3-4), as integer program counters over a substrate:
   [Des] for every deterministic run, OCaml 5 domains for the native
   engine.  On [Des] the machine replays the event sequence of the test
   suite's reference engine, direct-style managers over effect threads
   on the same [Des]: what must match is every substrate call in the
   reference's order, and PRNG draw interleaving.  Each block below
   mirrors a suspension point of those managers; the fault bookkeeping
   that never suspends is Engine_core's own, called here.  Divergences
   are caught by the differential matrix in test_diff_engines.ml, and
   the fault paths are also pinned to digests there. *)

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
  p_overhead : ready:int -> ops:int -> int;  (** the policy's scheduling-cost formula *)
  p_est : int array;  (** every class's [est], class after class *)
  p_est_base : int array;  (** per class, its first row in [p_est] *)
  p_node_bits : int;  (** a task handle's node field: every class's node count fits *)
}

let pcode_of (policy : Scheduler.policy) =
  if policy == Scheduler.frfs then P_frfs
  else if policy == Scheduler.met then P_met
  else if policy == Scheduler.eft then P_eft
  else if policy == Scheduler.power then P_power
  else if policy == Scheduler.random then P_random
  else P_custom

(* ------------------------------------------------------------------ *)
(* Substrates                                                          *)
(* ------------------------------------------------------------------ *)

type substrate = {
  s_now : unit -> int;
  s_work : int -> int -> bool;
  s_sleep : int -> int -> bool;
  s_stream : int -> bytes:int -> int -> bool;
  s_await : int -> bool;
  s_await_until : int -> int -> bool;
  s_signal : int -> unit;
  s_lock : Core.handler -> unit;
  s_unlock : Core.handler -> unit;
  s_jitter : int -> int -> int;
  s_cpu : int -> Task.state -> int -> int -> bool;
  s_compute : int -> Task.state -> int -> int -> bool;
  s_charge : float -> bool;
  s_mark : unit -> int;
  s_sched_done : int -> ready:int -> ops:int -> int;
  s_tick_end : int -> busy:bool -> unit;
  s_counters : Core.fabric_counters;
  s_run : on_start:(int -> unit) -> on_resume:(int -> unit) -> unit;
}

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

let engine_name = "Compiled_engine.compile"

let plan_of ~(config : Config.t) ~(policy : Scheduler.policy) model =
  let classes = model.Exec_model.classes in
  let nodes = Array.map (fun (c : Exec_model.cls) -> Array.length c.Exec_model.topology.Task.tp_nodes) classes in
  let rec bits b = if 1 lsl b >= Array.fold_left max 1 nodes then b else bits (b + 1) in
  let base = ref 0 in
  {
    p_config = config;
    p_policy = policy;
    p_pcode = pcode_of policy;
    p_model = model;
    p_pe_is_cpu = Array.map (fun pe -> Pe.is_cpu pe.Pe.kind) model.Exec_model.pes;
    p_pe_busy_w = Array.map (fun pe -> Pe.busy_w pe.Pe.kind) model.Exec_model.pes;
    p_overlay_perf = config.Config.host.Host.overlay.Host.core_class.Pe.perf_factor;
    p_overhead =
      Scheduler.overhead ~policy_name:policy.Scheduler.name ~pes:model.Exec_model.n_pes;
    p_est = Array.concat (Array.to_list (Array.map (fun (c : Exec_model.cls) -> c.Exec_model.est) classes));
    p_est_base =
      Array.map
        (fun n ->
          let b = !base in
          base := b + (n * model.Exec_model.n_pes);
          b)
        nodes;
    p_node_bits = bits 0;
  }

let compile ~config ~workload ~policy () =
  plan_of ~config ~policy (Exec_model.lower ~engine_name ~config workload)

let compile_specs ~config ~specs ~policy () =
  plan_of ~config ~policy (Exec_model.lower_specs ~engine_name ~config specs)

let model plan = plan.p_model

(* ------------------------------------------------------------------ *)
(* Arrival sources                                                     *)
(* ------------------------------------------------------------------ *)

type service_ops = {
  so_inject : Task.state -> int;
  so_cancel : Task.state -> bool;
  so_ready_live : unit -> int;
  so_inflight : unit -> int;
  so_completed : unit -> int;
}

type service = {
  sv_tick : service_ops -> now:int -> int;
  sv_next : now:int -> int option;
  sv_finished : service_ops -> now:int -> bool;
  sv_unarrived : unit -> int Seq.t;
}

(* A workload known in advance: build item [i]'s state as instance [i]
   (store [store k] for class [k]; [keep] sees it) once the clock
   reaches its arrival, finish once all have completed.  The function
   returned builds the items an aborted run never reached. *)
let fixed_source (m : Exec_model.t) ~store ~keep =
  let items = m.Exec_model.items and arrivals = m.Exec_model.arrivals in
  let n = Array.length items and next = ref 0 and task_base = ref 0 in
  let build () =
    let i = !next and k = items.(!next) in
    let inst =
      Exec_model.state m k ~store:(store k) ~task_id_base:!task_base ~inst_id:i
        ~arrival_ns:arrivals.(i)
    in
    task_base := !task_base + Exec_model.task_count m k;
    incr next;
    keep inst;
    inst
  in
  ( {
      sv_tick =
        (fun ops ~now ->
          let made = ref 0 in
          while !next < n && arrivals.(!next) <= now do
            made := !made + ops.so_inject (build ())
          done;
          !made);
      sv_next = (fun ~now:_ -> if !next < n then Some arrivals.(!next) else None);
      sv_finished = (fun ops ~now:_ -> ops.so_completed () = n);
      sv_unarrived = (fun () -> Seq.drop !next (Array.to_seq items));
    },
    fun () ->
      while !next < n do
        ignore (build () : Task.state)
      done )

let fixed m =
  let placeholder = Store.create [] in
  fst (fixed_source m ~store:(fun _ -> placeholder) ~keep:ignore)

type handler_snapshot = { hs_busy_until : int; hs_busy_ns : int; hs_tasks_run : int }

type resume_state = {
  rs_clock : int;
  rs_prng : int64 * int64 * int64 * int64;
  rs_handlers : handler_snapshot array;
}

type service_run = {
  sr_prng : int64 * int64 * int64 * int64;
  sr_handlers : handler_snapshot array;
  sr_aborted : string option;
}

(* Fault-path entry lists, by task id. *)
module Ids = Hashtbl.Make (struct
  include Int

  let hash i = i land max_int
end)

(* ------------------------------------------------------------------ *)
(* The deterministic substrate                                         *)
(* ------------------------------------------------------------------ *)

(* [Des] in virtual time: executions and DMA occupy modelled host cores
   and the fabric link, jitter draws from the run's one PRNG (the RANDOM
   policy's too), and workload-manager costs are modelled and charged
   on the overlay core. *)
let des_substrate ~obs ~clock0 ~prng plan (params : Core.params) (stats : Core.wm_stats) =
  let des = Des.create ~obs ~clock0 plan.p_config in
  let clock = Des.clock des in
  let wm_th = plan.p_model.Exec_model.n_pes in
  let jitter = params.Core.jitter in
  let scale ns = int_of_float (Float.round (ns /. plan.p_overlay_perf)) in
  {
    s_now = (fun () -> !clock);
    s_work = (fun th ns -> Des.work des th ns);
    s_sleep = (fun th ns -> Des.sleep des th ns);
    s_stream = (fun th ~bytes ns -> Des.stream des th ~bytes ns);
    s_await = (fun th -> Des.await des th);
    s_await_until = (fun th t -> Des.await_until des th t);
    s_signal = (fun th -> Des.signal des th);
    (* one thread runs at a time *)
    s_lock = ignore;
    s_unlock = ignore;
    s_jitter = (fun _ ns -> Core.jittered prng ~jitter ns);
    (* Timing only: outputs come from [Functional] after the run. *)
    s_cpu = (fun th _ _ ns -> Des.work des th ns);
    s_compute = (fun th _ _ ns -> Des.sleep des th ns);
    s_charge =
      (fun ns ->
        let c = scale ns in
        stats.Core.wm_ns <- stats.Core.wm_ns + c;
        Des.work des wm_th c);
    s_mark = (fun () -> 0);
    (* The calibrated cost for the live ready-list length, scaled by the
       overlay core; the machine then charges it there. *)
    s_sched_done =
      (fun _ ~ready ~ops ->
        let c = scale (float_of_int (plan.p_overhead ~ready ~ops)) in
        stats.Core.wm_ns <- stats.Core.wm_ns + c;
        c);
    s_tick_end = (fun _ ~busy:_ -> Des.sample_depth des);
    s_counters = Des.counters des;
    (* Resource managers are threads [0 .. n_pes-1], the workload
       manager thread [n_pes]; their first events are pushed in that
       order. *)
    s_run =
      (fun ~on_start ~on_resume ->
        for th = 0 to wm_th do
          Des.start des th
        done;
        Des.run des ~on_start ~on_resume);
  }

(* ------------------------------------------------------------------ *)
(* The monomorphic event loop                                          *)
(* ------------------------------------------------------------------ *)

let sched_window = Cost_model.sched_examined_cap

(* The slot of an instance that completed or was cancelled: holding no
   state, it keeps none alive. *)
let no_state =
  {
    Task.st_id = -1;
    st_cls = 0;
    st_task_base = 0;
    st_arrival_ns = 0;
    st_store = Store.create [];
    st_nodes = [||];
    st_remaining = 0;
    st_completed_at = -1;
  }

(* One run of the machine over the arrivals of [source], on the
   substrate that [substrate] builds once the handlers, statistics and
   engine metrics exist; [records] keeps per-task records; [resume]
   starts the per-PE horizons from a checkpoint (the substrate's clock
   starts at its instant). *)
let exec ~obs ~fault ~records ~resume ~prng plan (params : Core.params) source substrate =
  let model = plan.p_model in
  let n_pes = model.Exec_model.n_pes in
  let stride = n_pes in
  let wm_th = n_pes in
  (* Prices come from the task's class, at row [node * stride + pe];
     the policy loops read [p_est] at the row cached in the ready-list
     slot. *)
  let classes = model.Exec_model.classes in
  let est = plan.p_est and est_base = plan.p_est_base in
  let w = Task.width in
  let handlers =
    Array.mapi
      (fun i pe ->
        Core.make_handler ~pe ~index:i ~reservation_depth:params.Core.reservation_depth)
      model.Exec_model.pes
  in
  (match resume with
  | None -> ()
  | Some r ->
    if Array.length r.rs_handlers <> n_pes then
      invalid_arg "Compiled_engine.serve: resume PE count mismatch";
    Array.iteri
      (fun i (h : Core.handler) ->
        let s = r.rs_handlers.(i) in
        h.Core.h_busy_until <- s.hs_busy_until;
        h.Core.h_busy_ns <- s.hs_busy_ns;
        h.Core.h_tasks_run <- s.hs_tasks_run)
      handlers);
  let fault = Core.compile_fault fault ~handlers in
  let fault_on = Fault.enabled fault in
  let stats = Core.make_stats ~records model in
  let aborted () = match stats.Core.aborted with None -> false | Some _ -> true in
  (* Observability lowering: [traced] is constant for the whole run, so
     the untraced loop pays one predictable branch per hook site.
     Metric registration order is the reference engine's — engine handles
     here, then the substrate's ([Des.create]'s fabric instruments and
     event-heap depth gauge) — so [Metrics.pp] output is comparable
     byte-for-byte across engines. *)
  let traced = Obs.enabled obs in
  if traced then
    Obs.attach obs
      ~pe_labels:(Array.map (fun pe -> pe.Pe.label) model.Exec_model.pes)
      ~nodes:(Exec_model.node_names model);
  let s = substrate handlers stats in
  (* The per-handler lock guards [h_pending], [h_completed], [h_failed]
     and [h_stop], which the native substrate shares between domains. *)
  let lock = s.s_lock and unlock = s.s_unlock in
  (* ---- instance states ----
     The instances injected and neither completed nor cancelled sit in
     slots, which are reused: the machine holds no array indexed by
     instance or task id, so its memory follows the instances in
     flight.  A task is known by its handle, its instance's slot and
     its node: [(slot lsl bits) lor node]. *)
  let bits = plan.p_node_bits in
  let node_mask = (1 lsl bits) - 1 in
  let lv = ref [||] and lv_free = ref [||] and n_lv_free = ref 0 and n_lv = ref 0 in
  let st_of hd = !lv.(hd lsr bits) in
  let lv_alloc st =
    let sl =
      if !n_lv_free > 0 then begin
        decr n_lv_free;
        !lv_free.(!n_lv_free)
      end
      else begin
        let sl = !n_lv in
        if sl = Array.length !lv then begin
          let b = Array.make (max 16 (2 * sl)) no_state in
          Array.blit !lv 0 b 0 sl;
          (* A resource manager reads the slots under its handler's
             lock, so the new array is published under all of them. *)
          Array.iter lock handlers;
          lv := b;
          Array.iter unlock handlers;
          lv_free := Array.make (Array.length b) 0
        end;
        incr n_lv;
        sl
      end
    in
    !lv.(sl) <- st;
    sl
  in
  let lv_release sl =
    !lv.(sl) <- no_state;
    !lv_free.(!n_lv_free) <- sl;
    incr n_lv_free
  in
  (* ---- workload-manager state ----
     The ready collection is an intrusive doubly-linked list over slots:
     a task takes a slot when it becomes Ready and gives it back when it
     leaves the list, so the slot arrays grow to the peak ready count,
     not to the workload's task count.  Append on ready, O(1) unlink on
     dispatch.  The list holds exactly the Ready tasks in insertion
     order — the same sequence the reference engine's queue exposes
     once stale (already-dispatched) entries are skipped — so the
     scheduling window never rescans stale entries and never
     allocates.  A slot holds the task's handle and its price row in
     [est]. *)
  let sl_h = ref [||] and sl_row = ref [||] in
  let sl_nxt = ref [||] and sl_prv = ref [||] in
  let sl_free = ref [||] and n_free = ref 0 and n_slots = ref 0 in
  (* Under a fault plan, each slot's position in the reference FIFO
     (see [make_ready]). *)
  let sl_pos = ref [||] in
  let rl_head = ref (-1) in
  let rl_tail = ref (-1) in
  let rl_alloc hd row =
    let sl =
      if !n_free > 0 then begin
        decr n_free;
        !sl_free.(!n_free)
      end
      else begin
        let sl = !n_slots in
        if sl = Array.length !sl_h then begin
          (* the free stack is empty here, so it restarts at the new size *)
          let cap = max 64 (2 * sl) in
          let grow a fill =
            let b = Array.make cap fill in
            Array.blit a 0 b 0 sl;
            b
          in
          sl_h := grow !sl_h 0;
          sl_row := grow !sl_row 0;
          sl_nxt := grow !sl_nxt (-1);
          sl_prv := grow !sl_prv (-1);
          if fault_on then sl_pos := grow !sl_pos 0;
          sl_free := Array.make cap 0
        end;
        incr n_slots;
        sl
      end
    in
    !sl_h.(sl) <- hd;
    !sl_row.(sl) <- row;
    sl
  in
  (* Link slot [sl] in before slot [next] ([-1]: at the tail). *)
  let rl_link sl next =
    let p = if next < 0 then !rl_tail else !sl_prv.(next) in
    !sl_prv.(sl) <- p;
    !sl_nxt.(sl) <- next;
    if p < 0 then rl_head := sl else !sl_nxt.(p) <- sl;
    if next < 0 then rl_tail := sl else !sl_prv.(next) <- sl
  in
  let rl_unlink sl =
    let p = !sl_prv.(sl) and n = !sl_nxt.(sl) in
    if p >= 0 then !sl_nxt.(p) <- n else rl_head := n;
    if n >= 0 then !sl_prv.(n) <- p else rl_tail := p;
    !sl_free.(!n_free) <- sl;
    incr n_free
  in
  (* The reference ready list is a FIFO of entries that deletes lazily:
     every make_ready pushes an entry, and stale entries leave only from
     the head, when a scheduling round starts.  A task that becomes
     Ready again (a retry, or a drained reservation) therefore sits at
     its earliest entry still in the FIFO, not at the tail.  Under a
     fault plan — the only way a task becomes Ready twice — the list
     keeps that order: [fifo_pos] numbers the entries, [fifo_head] is
     the FIFO's head as of the last scheduling round, [entries] keeps
     each task's entry positions from the head on, and a revived task
     is linked in before the first task with a later position.  A
     task leaves [entries] once it can never be Ready again. *)
  let fifo_pos = ref 0 and fifo_head = ref 0 in
  let entries : int list Ids.t = Ids.create (if fault_on then 64 else 1) in
  let rl_insert hd row id =
    let pos = !fifo_pos in
    incr fifo_pos;
    let kept =
      match Ids.find entries id with
      | l -> List.filter (fun e -> e >= !fifo_head) l
      | exception Not_found -> []
    in
    Ids.replace entries id (kept @ [ pos ]);
    let sl = rl_alloc hd row in
    match kept with
    | [] ->
      !sl_pos.(sl) <- pos;
      rl_link sl (-1)
    | first :: _ ->
      !sl_pos.(sl) <- first;
      let next = ref !rl_head in
      while !next >= 0 && !sl_pos.(!next) < first do
        next := !sl_nxt.(!next)
      done;
      rl_link sl !next
  in
  (* The slot of a Ready task, for the callers that hold only its handle
     (a custom policy's assignment, a cancellation): a walk from the
     head, which finds a task from the window within the window. *)
  let slot_of hd =
    let sl = ref !rl_head in
    while !sl_h.(!sl) <> hd do
      sl := !sl_nxt.(!sl)
    done;
    !sl
  in
  let ready_live = ref 0 in
  let inflight = ref 0 in
  let completed = ref 0 in
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
  (* Whether the tick started a scheduling round: an idle one waited. *)
  let tick_busy = ref false in
  let tick_t0 = ref 0 in
  let stopped_at = ref 0 in
  let idle = Array.make (max 1 n_pes) false in
  let avail = Array.make (max 1 n_pes) 0 in
  let cand = Array.make (max 1 n_pes) 0 in
  (* Under a fault plan, whether each PE may take work this round. *)
  let pe_up = Array.make (max 1 n_pes) true in
  (* One invocation's assignments, in the policy's order, by handle
     ([-1]: a custom policy's task from outside the window).  A custom
     policy may return more than one per PE (the dispatch loop drops
     the unusable ones). *)
  let as_h : int array ref = ref [||] in
  let as_pe : int array ref = ref [||] in
  let as_slot : int array ref = ref [||] in
  let as_n = ref 0 in
  let custom = plan.p_pcode = P_custom in
  (* A custom policy's context, built as the reference engine's: the
     window is reusable scratch sized to the examination cap, holding a
     task record per entry built for the round ([cx_h] its handle), and
     the PE states are refreshed in place. *)
  let cx_ready : Task.t array ref = ref [||] in
  let cx_h = Array.make (if custom then sched_window else 0) 0 in
  let cx_pes =
    Array.map
      (fun pe -> { Scheduler.pe; idle = false; busy_until = 0; available = true })
      model.Exec_model.pes
  in
  let cx_estimate task i = Exec_model.estimate model task i in
  let make_ready hd =
    let st = st_of hd and j = hd land node_mask in
    let a = st.Task.st_nodes and b = j * w in
    let now = s.s_now () in
    a.(b + Task.f_status) <- Task.ready;
    a.(b + Task.f_ready) <- now;
    let row = est_base.(st.Task.st_cls) + (j * stride) in
    if fault_on then rl_insert hd row (st.Task.st_task_base + j)
    else rl_link (rl_alloc hd row) (-1);
    incr ready_live;
    Core.note_ready stats ~ready:!ready_live;
    if traced then
      Obs.on_task_ready obs ~now ~task:(st.Task.st_task_base + j) ~instance:st.Task.st_id
        ~cls:st.Task.st_cls ~node:j ~ready_depth:!ready_live
  in
  (* The resilient-dispatch bookkeeping is the reference engine's own.
     A PE death checks the live instances in id order, then the
     classes the source has yet to inject. *)
  let unfinished () =
    let insts = ref [] in
    for sl = !n_lv - 1 downto 0 do
      if !lv.(sl) != no_state then insts := !lv.(sl) :: !insts
    done;
    let by_id (a : Task.state) (b : Task.state) = Int.compare a.Task.st_id b.Task.st_id in
    Seq.append
      (Seq.concat_map
         (fun (st : Task.state) ->
           let a = st.Task.st_nodes in
           Core.unfinished_nodes ~cls:st.Task.st_cls ~nodes:(Array.length a / w)
             ~finished:(fun j -> a.((j * w) + Task.f_status) = Task.done_))
         (List.to_seq (List.sort by_id !insts)))
      (Seq.concat_map
         (fun k ->
           Core.unfinished_nodes ~cls:k ~nodes:(Exec_model.task_count model k)
             ~finished:(fun _ -> false))
         (source.sv_unarrived ()))
  in
  let res =
    Core.resilience ~fault ~obs ~stats ~model ~handlers ~unfinished ~inflight ~make_ready
      ~blocked:(fun hd ->
        (st_of hd).Task.st_nodes.(((hd land node_mask) * w) + Task.f_status) <- Task.blocked)
      ~lock ~unlock
  in
  (* Capabilities handed to the source.  Cancelling an instance with no
     Running task forgets it: its Ready tasks leave the ready list and
     its retries the backoff queue, so none of its tasks runs again. *)
  let ops =
    {
      so_inject =
        (fun (st : Task.state) ->
          let tp = classes.(st.Task.st_cls).Exec_model.topology in
          if traced then
            Obs.on_instance_injected obs ~now:(s.s_now ()) ~instance:st.Task.st_id
              ~app:tp.Task.tp_spec.App_spec.app_name;
          let sl = lv_alloc st in
          let entry = tp.Task.tp_entry in
          Array.iter (fun j -> make_ready ((sl lsl bits) lor j)) entry;
          Array.length entry);
      so_cancel =
        (fun (st : Task.state) ->
          let a = st.Task.st_nodes and n = Array.length st.Task.st_nodes / w in
          let running = ref false in
          for j = 0 to n - 1 do
            if a.((j * w) + Task.f_status) = Task.running then running := true
          done;
          (not !running)
          && begin
            let sl = ref (-1) in
            for k = 0 to !n_lv - 1 do
              if !lv.(k) == st then sl := k
            done;
            if fault_on then Core.withdraw_retries res ~instance:st.Task.st_id;
            for j = 0 to n - 1 do
              if fault_on then Ids.remove entries (st.Task.st_task_base + j);
              if a.((j * w) + Task.f_status) = Task.ready then begin
                a.((j * w) + Task.f_status) <- Task.blocked;
                rl_unlink (slot_of ((!sl lsl bits) lor j));
                decr ready_live
              end
            done;
            if !sl >= 0 then lv_release !sl;
            true
          end);
      so_ready_live = (fun () -> !ready_live);
      so_inflight = (fun () -> !inflight);
      so_completed = (fun () -> !completed);
    }
  in
  (* ---- resource-manager threads (Fig. 4) ---- *)
  let rm_pc = Array.make (max 1 n_pes) 0 in
  (* The attempt in hand: its task's handle, instance state (read under
     the handler's lock, released at the attempt's end) and fault-plan
     decision. *)
  let rm_h = Array.make (max 1 n_pes) 0 in
  let rm_st = Array.make (max 1 n_pes) no_state in
  let rm_dec = Array.make (max 1 n_pes) Fault.Proceed in
  let rm_started = Array.make (max 1 n_pes) 0 in
  (* A slowed attempt's extra PE time, slept after its execution. *)
  let rm_tail = Array.make (max 1 n_pes) 0 in
  (* Start of the current accelerator phase: the DMA phases' spans make
     the task's DMA time, and traced runs emit every span. *)
  let rm_ph0 = Array.make (max 1 n_pes) 0 in
  let rm_node i = rm_h.(i) land node_mask in
  let rm_row i = (rm_node i * stride) + i in
  let rm_cls i = classes.(rm_st.(i).Task.st_cls) in
  let rm_id i = rm_st.(i).Task.st_task_base + rm_node i in
  let rm_dma i = (rm_node i * w) + Task.f_dma in
  (* A substrate call that suspended the thread parks it at [pc]; one
     that did not lets it continue there at once.  Every transition is a
     tail call: on a substrate that never suspends (native), a thread's
     whole life is one chain of them on a bounded stack. *)
  let rec rm_then i pc suspended = if suspended then rm_pc.(i) <- pc else rm_goto i pc
  and rm_await i = rm_then i 1 (s.s_await i)
  and rm_wake i =
    let h = handlers.(i) in
    lock h;
    let stop = h.Core.h_stop in
    unlock h;
    if stop then () else rm_drain i
  and rm_drain i =
    let h = handlers.(i) in
    lock h;
    let next = if Queue.is_empty h.Core.h_pending then -1 else Queue.take h.Core.h_pending in
    let left = Queue.length h.Core.h_pending in
    if next >= 0 then rm_st.(i) <- st_of next;
    unlock h;
    if next < 0 then rm_await i
    else begin
      let now = s.s_now () in
      if traced && h.Core.h_capacity > 1 then
        Obs.on_reservation_popped obs ~now ~pe_index:i ~depth:left;
      rm_h.(i) <- next;
      rm_started.(i) <- now;
      if not fault_on then rm_exec i
      else begin
        (* A failing attempt never executes, so it draws no jitter. *)
        let d =
          Core.decide_attempt ~fault ~obs h ~task:(rm_id i)
            ~attempt:rm_st.(i).Task.st_nodes.((rm_node i * w) + Task.f_attempts)
            ~now ~est_ns:(rm_cls i).Exec_model.est.(rm_row i)
        in
        rm_dec.(i) <- d;
        match d with
        | Fault.Proceed -> rm_exec i
        | Fault.Proceed_slow extra_ns ->
          rm_tail.(i) <- extra_ns;
          rm_exec i
        | Fault.Fail { after_ns; _ } -> rm_then i 8 (s.s_sleep i after_ns)
      end
    end
  and rm_exec i =
    let c = rm_cls i and row = rm_row i in
    if plan.p_pe_is_cpu.(i) then
      rm_then i 2 (s.s_cpu i rm_st.(i) (rm_node i) (s.s_jitter i c.Exec_model.est.(row)))
    else begin
      rm_ph0.(i) <- s.s_now ();
      let dem = c.Exec_model.demand_in.(row) in
      if dem < 0 then rm_work i (s.s_jitter i c.Exec_model.dma_in.(row)) 3
      else rm_then i 6 (s.s_stream i ~bytes:c.Exec_model.bytes_in.(row) (s.s_jitter i dem))
    end
  and rm_work i ns pc = rm_then i pc (s.s_work i ns)
  and rm_acc_after_in i =
    let now = s.s_now () in
    rm_st.(i).Task.st_nodes.(rm_dma i) <- now - rm_ph0.(i);
    if traced then
      Obs.on_phase obs ~now ~task:(rm_id i) ~pe_index:i ~phase:Obs.Dma_in ~start_ns:rm_ph0.(i)
        ~dur_ns:(now - rm_ph0.(i));
    rm_ph0.(i) <- now;
    rm_then i 4
      (s.s_compute i rm_st.(i) (rm_node i)
         (s.s_jitter i (rm_cls i).Exec_model.compute.(rm_row i)))
  and rm_acc_after_comp i =
    let now = s.s_now () in
    if traced then
      Obs.on_phase obs ~now ~task:(rm_id i) ~pe_index:i ~phase:Obs.Device_compute
        ~start_ns:rm_ph0.(i) ~dur_ns:(now - rm_ph0.(i));
    rm_ph0.(i) <- now;
    let c = rm_cls i and row = rm_row i in
    let dem = c.Exec_model.demand_out.(row) in
    if dem < 0 then rm_work i (s.s_jitter i c.Exec_model.dma_out.(row)) 5
    else rm_then i 7 (s.s_stream i ~bytes:c.Exec_model.bytes_out.(row) (s.s_jitter i dem))
  and rm_fab_fix i fix pc =
    (* Fixed chunk/hop latency after the shared-link service. *)
    rm_then i pc (s.s_sleep i fix)
  and rm_executed i =
    let extra = rm_tail.(i) in
    if extra > 0 then begin
      rm_tail.(i) <- 0;
      rm_then i 8 (s.s_sleep i extra)
    end
    else rm_finish i
  and rm_finish i =
    let h = handlers.(i) in
    let now = s.s_now () in
    rm_st.(i).Task.st_nodes.((rm_node i * w) + Task.f_completed) <- now;
    rm_st.(i) <- no_state;
    let d = rm_dec.(i) in
    rm_dec.(i) <- Fault.Proceed;
    (* Every attempt occupied the PE; only successes count as run. *)
    lock h;
    Core.finish_attempt h rm_h.(i) d ~busy_ns:(now - rm_started.(i));
    unlock h;
    s.s_signal wm_th;
    rm_drain i
  and rm_goto i pc =
    match pc with
    | 1 -> rm_wake i
    | 2 -> rm_executed i
    | 5 ->
      let now = s.s_now () in
      let a = rm_st.(i).Task.st_nodes in
      a.(rm_dma i) <- a.(rm_dma i) + (now - rm_ph0.(i));
      if traced then
        Obs.on_phase obs ~now ~task:(rm_id i) ~pe_index:i ~phase:Obs.Dma_out
          ~start_ns:rm_ph0.(i) ~dur_ns:(now - rm_ph0.(i));
      rm_executed i
    | 8 -> rm_finish i
    | 3 -> rm_acc_after_in i
    | 4 -> rm_acc_after_comp i
    | 6 -> rm_fab_fix i (rm_cls i).Exec_model.fixed_in.(rm_row i) 3
    | 7 -> rm_fab_fix i (rm_cls i).Exec_model.fixed_out.(rm_row i) 5
    | _ -> assert false
  in
  (* ---- workload-manager thread (Fig. 3) ---- *)
  (* Monitor a completed attempt under the plan: [true] when it failed. *)
  let failed h hd =
    let st = st_of hd and j = hd land node_mask in
    Core.handle_failure res h ~task:hd ~id:(st.Task.st_task_base + j) ~instance:st.Task.st_id
      ~cls:st.Task.st_cls ~node:j
      ~attempt:st.Task.st_nodes.((j * w) + Task.f_attempts)
      ~now:(s.s_now ())
  in
  let rec wm_then pc suspended = if suspended then wm_pc := pc else wm_goto pc
  and wm_charge ns pc = wm_then pc (s.s_charge ns)
  and wm_tick_top () =
    tick_t0 := s.s_mark ();
    tick_busy := false;
    if traced then begin
      tick_completions := 0;
      tick_injected := 0
    end;
    (* Planned deaths take effect before any dispatch of the tick. *)
    if fault_on then Core.sweep_deaths res ~now:(s.s_now ());
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
      lock h;
      let hd = if Queue.is_empty h.Core.h_completed then -1 else Queue.take h.Core.h_completed in
      unlock h;
      if hd < 0 then begin
        incr sw_hi;
        wm_sweep_cont ()
      end
      else begin
        h.Core.h_inflight <- h.Core.h_inflight - 1;
        decr inflight;
        if fault_on && failed h hd then wm_after_completion () else wm_completed h hd
      end
    end
  and wm_completed h hd =
    let sl = hd lsr bits and j = hd land node_mask in
    let st = !lv.(sl) in
    let a = st.Task.st_nodes and b = j * w and cls = st.Task.st_cls in
    let id = st.Task.st_task_base + j in
    let completed_at = a.(b + Task.f_completed) in
    if traced then begin
      incr tick_completions;
      Obs.on_task_completed obs ~now:completed_at ~task:id ~instance:st.Task.st_id ~cls ~node:j
        ~pe_index:h.Core.h_index
        ~service_ns:(completed_at - a.(b + Task.f_dispatched))
        ~pe_depth:h.Core.h_inflight ~inflight:!inflight
    end;
    a.(b + Task.f_status) <- Task.done_;
    if records then
      Core.record_completion stats ~cls ~node:j ~instance:st.Task.st_id ~task:id
        ~pe_index:h.Core.h_index ~ready_ns:a.(b + Task.f_ready)
        ~dispatched_ns:a.(b + Task.f_dispatched) ~completed_ns:completed_at
        ~dma_ns:a.(b + Task.f_dma);
    if fault_on then Ids.remove entries id;
    st.Task.st_remaining <- st.Task.st_remaining - 1;
    let finished = st.Task.st_remaining = 0 in
    if finished then begin
      let now = s.s_now () in
      st.Task.st_completed_at <- now;
      Core.instance_completed stats ~cls ~arrival_ns:st.Task.st_arrival_ns ~now;
      incr completed
    end;
    let newly = ref 0 in
    let succ = classes.(cls).Exec_model.topology.Task.tp_succ.(j) in
    for k = 0 to Array.length succ - 1 do
      let u = (succ.(k) * w) + Task.f_unmet in
      a.(u) <- a.(u) - 1;
      if a.(u) = 0 then begin
        make_ready ((sl lsl bits) lor succ.(k));
        incr newly
      end
    done;
    if finished then lv_release sl;
    if !newly > 0 then
      wm_charge (Cost_model.ready_update_per_task_ns *. float_of_int !newly) 11
    else wm_after_completion ()
  and wm_after_completion () =
    if handlers.(!sw_hi).Core.h_capacity <= 1 then do_schedule 0
    else begin
      sw_batch := true;
      wm_sweep_cont ()
    end
  and do_schedule ret =
    ds_ret := ret;
    tick_busy := true;
    let now = s.s_now () in
    if fault_on then begin
      (* The reference pops the stale entries ahead of its first Ready
         one as a round starts. *)
      fifo_head := if !rl_head >= 0 then !sl_pos.(!rl_head) else !fifo_pos;
      for i = 0 to n_pes - 1 do
        pe_up.(i) <- Core.pe_ok res handlers.(i) ~now
      done
    end;
    let n_idle = ref 0 in
    for i = 0 to n_pes - 1 do
      let b = handlers.(i).Core.h_inflight < handlers.(i).Core.h_capacity && pe_up.(i) in
      idle.(i) <- b;
      if b then incr n_idle
    done;
    if aborted () || !ready_live = 0 || !n_idle = 0 then ds_end ()
    else begin
      let ready_len = !ready_live in
      let nready = if ready_len < sched_window then ready_len else sched_window in
      if traced then begin
        ds_ready := ready_len;
        ds_nready := nready
      end;
      as_n := 0;
      ds_ops := nready * n_pes;
      let t0 = s.s_mark () in
      run_policy now nready !n_idle;
      let cost = s.s_sched_done t0 ~ready:ready_len ~ops:!ds_ops in
      ds_cost := cost;
      wm_then 12 (s.s_work wm_th cost)
    end
  (* Same early exit as the built-ins in [Scheduler]: an assignment
     can only ever land on an idle PE and every other per-entry
     computation is scratch, so once the idle budget is exhausted the
     rest of the <= [sched_window] window is unobservable (RANDOM
     included: its draws are idle-gated).  [ops] is charged as
     [nready * n_pes], the full window the walk stands for. *)
  and run_policy now nready n_idle0 =
    let emit hd i sl =
      if !as_n = Array.length !as_h then begin
        let cap = max n_pes (2 * !as_n) in
        let grow a =
          let b = Array.make cap 0 in
          Array.blit a 0 b 0 !as_n;
          b
        in
        as_h := grow !as_h;
        as_pe := grow !as_pe;
        as_slot := grow !as_slot
      end;
      !as_h.(!as_n) <- hd;
      !as_pe.(!as_n) <- i;
      !as_slot.(!as_n) <- sl;
      incr as_n
    in
    let sl_h = !sl_h and sl_row = !sl_row and sl_nxt = !sl_nxt in
    let n_idle = ref n_idle0 in
    let cur = ref !rl_head in
    let j = ref 0 in
    (match plan.p_pcode with
    | P_frfs ->
      while !j < nready && !n_idle > 0 do
        let row = sl_row.(!cur) in
        let chosen = ref (-1) in
        for i = 0 to n_pes - 1 do
          if !chosen < 0 && idle.(i) && est.(row + i) <> min_int then chosen := i
        done;
        if !chosen >= 0 then begin
          idle.(!chosen) <- false;
          decr n_idle;
          emit sl_h.(!cur) !chosen !cur
        end;
        cur := sl_nxt.(!cur);
        incr j
      done
    | P_met ->
      while !j < nready && !n_idle > 0 do
        let row = sl_row.(!cur) in
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
          emit sl_h.(!cur) !best !cur
        end;
        cur := sl_nxt.(!cur);
        incr j
      done
    | P_eft ->
      for i = 0 to n_pes - 1 do
        avail.(i) <- (if idle.(i) then now else handlers.(i).Core.h_busy_until)
      done;
      while !j < nready && !n_idle > 0 do
        let row = sl_row.(!cur) in
        let best = ref (-1) and best_fin = ref 0 in
        for i = 0 to n_pes - 1 do
          let e = est.(row + i) in
          if e <> min_int && pe_up.(i) then begin
            let a = avail.(i) in
            let fin = (if a > now then a else now) + e in
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
            emit sl_h.(!cur) !best !cur
          end
        end;
        cur := sl_nxt.(!cur);
        incr j
      done
    | P_power ->
      while !j < nready && !n_idle > 0 do
        let row = sl_row.(!cur) in
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
          emit sl_h.(!cur) !best !cur
        end;
        cur := sl_nxt.(!cur);
        incr j
      done
    | P_random ->
      while !j < nready && !n_idle > 0 do
        let row = sl_row.(!cur) in
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
          emit sl_h.(!cur) i !cur
        end;
        cur := sl_nxt.(!cur);
        incr j
      done
    | P_custom ->
      while !j < nready do
        let hd = sl_h.(!cur) in
        let st = st_of hd in
        let t =
          Task.view classes.(st.Task.st_cls).Exec_model.topology st (hd land node_mask)
        in
        if Array.length !cx_ready = 0 then cx_ready := Array.make sched_window t;
        !cx_ready.(!j) <- t;
        cx_h.(!j) <- hd;
        cur := sl_nxt.(!cur);
        incr j
      done;
      for i = 0 to n_pes - 1 do
        let st = cx_pes.(i) in
        st.Scheduler.available <- pe_up.(i);
        st.Scheduler.idle <- idle.(i);
        st.Scheduler.busy_until <- handlers.(i).Core.h_busy_until
      done;
      let ctx =
        {
          Scheduler.now = now;
          ready = !cx_ready;
          nready;
          pes = cx_pes;
          estimate = cx_estimate;
          prng;
          ops = 0;
        }
      in
      let handle_of (t : Task.t) =
        let k = ref 0 in
        while !k < nready && !cx_ready.(!k) != t do
          incr k
        done;
        if !k < nready then cx_h.(!k) else -1
      in
      List.iter
        (fun (a : Scheduler.assignment) ->
          emit (handle_of a.Scheduler.task) a.Scheduler.pe_index (-1))
        (plan.p_policy.Scheduler.schedule ctx);
      ds_ops := ctx.Scheduler.ops)
  and wm_after_sched_work () =
    stats.Core.sched_ns <- stats.Core.sched_ns + !ds_cost;
    stats.Core.sched_invocations <- stats.Core.sched_invocations + 1;
    if traced then
      Obs.on_sched obs ~now:(s.s_now ()) ~ready:!ds_ready ~examined:!ds_nready ~ops:!ds_ops
        ~cost_ns:!ds_cost ~assigned:!as_n;
    ds_pos := 0;
    wm_dispatch_next ()
  and wm_dispatch_next () =
    if !ds_pos >= !as_n then ds_end ()
    else if (custom || fault_on) && not (dispatchable !ds_pos) then begin
      incr ds_pos;
      wm_dispatch_next ()
    end
    else wm_charge Cost_model.dispatch_per_task_ns 13
  (* A custom policy's assignment is dropped, uncharged, unless its
     task is from the window and still Ready (not listed twice) and its
     PE exists and supports it; under a fault plan, any assignment is,
     unless its PE can still take work now. *)
  and dispatchable k =
    let hd = !as_h.(k) and pi = !as_pe.(k) in
    hd >= 0
    &&
    let st = st_of hd and j = hd land node_mask in
    st.Task.st_nodes.((j * w) + Task.f_status) = Task.ready
    && pi >= 0 && pi < n_pes
    && est.(est_base.(st.Task.st_cls) + (j * stride) + pi) <> min_int
    && ((not fault_on) || Core.usable res handlers.(pi) ~now:(s.s_now ()))
  and wm_dispatch_commit () =
    let k = !ds_pos in
    let hd = !as_h.(k) and pi = !as_pe.(k) in
    let st = st_of hd and j = hd land node_mask in
    let a = st.Task.st_nodes and b = j * w in
    let h = handlers.(pi) in
    let now = s.s_now () in
    a.(b + Task.f_status) <- Task.running;
    a.(b + Task.f_attempts) <- a.(b + Task.f_attempts) + 1;
    rl_unlink (if custom then slot_of hd else !as_slot.(k));
    decr ready_live;
    a.(b + Task.f_dispatched) <- now;
    a.(b + Task.f_pe) <- pi;
    lock h;
    Queue.add hd h.Core.h_pending;
    let queued = Queue.length h.Core.h_pending in
    unlock h;
    h.Core.h_inflight <- h.Core.h_inflight + 1;
    incr inflight;
    let from = if h.Core.h_busy_until > now then h.Core.h_busy_until else now in
    h.Core.h_busy_until <- from + est.(est_base.(st.Task.st_cls) + (j * stride) + pi);
    let wait_ns = now - a.(b + Task.f_ready) in
    Core.note_dispatch stats ~wait_ns ~inflight:!inflight;
    if traced then begin
      Obs.on_task_dispatched obs ~now ~task:(st.Task.st_task_base + j) ~instance:st.Task.st_id
        ~cls:st.Task.st_cls ~node:j ~pe_index:pi ~wait_ns ~ready_depth:!ready_live
        ~pe_depth:h.Core.h_inflight ~inflight:!inflight;
      if h.Core.h_capacity > 1 then
        Obs.on_reservation_enqueued obs ~now ~pe_index:pi ~depth:queued
    end;
    s.s_signal pi;
    incr ds_pos;
    wm_dispatch_next ()
  and ds_end () =
    match !ds_ret with
    | 0 -> wm_sweep_cont ()
    | 1 -> wm_inject ()
    | 2 -> wm_fault_tail ()
    | _ -> wm_tick_tail ()
  and wm_inject () =
    (* An aborted run injects nothing more. *)
    let injected = if aborted () then 0 else source.sv_tick ops ~now:(s.s_now ()) in
    if traced then tick_injected := injected;
    if injected > 0 then
      wm_charge (Cost_model.ready_update_per_task_ns *. float_of_int injected) 14
    else wm_fault_tail ()
  and wm_fault_tail () =
    if fault_on && Core.fault_tick res ~now:(s.s_now ()) then do_schedule 3 else wm_tick_tail ()
  and wm_tick_tail () =
    s.s_tick_end !tick_t0 ~busy:!tick_busy;
    let now = s.s_now () in
    if traced then
      Obs.on_wm_tick obs ~now ~completions:!tick_completions ~injected:!tick_injected;
    (* An aborted run stops once in-flight work has drained. *)
    if source.sv_finished ops ~now || (aborted () && !inflight = 0) then begin
      stopped_at := now;
      Array.iter
        (fun (h : Core.handler) ->
          lock h;
          h.Core.h_stop <- true;
          unlock h;
          s.s_signal h.Core.h_index)
        handlers
    end
    else wm_await ()
  and wm_await () =
    let next = source.sv_next ~now:(s.s_now ()) in
    wm_await_until (if fault_on then Core.wm_deadline res next else next)
  and wm_await_until = function
    | Some t -> wm_then 15 (s.s_await_until wm_th t)
    | None -> wm_then 15 (s.s_await wm_th)
  and wm_goto pc =
    match pc with
    | 10 -> wm_sweep_start ()
    | 11 -> wm_after_completion ()
    | 12 -> wm_after_sched_work ()
    | 13 -> wm_dispatch_commit ()
    | 14 -> do_schedule 2
    | 15 -> wm_tick_top ()
    | _ -> assert false
  in
  (* ---- startup (resource managers, then the WM) and the event loop ---- *)
  (* A checkpoint is taken right after the tick that observed a
     quiescent instant, whose next action is the await on the next
     service deadline: a resumed WM starts with that await, not with a
     tick whose monitoring charge the uninterrupted run never paid. *)
  let wm_start () = if Option.is_some resume then wm_await () else wm_tick_top () in
  s.s_run
    ~on_start:(fun th -> if th = wm_th then wm_start () else rm_await th)
    ~on_resume:(fun th -> if th = wm_th then wm_goto !wm_pc else rm_goto th rm_pc.(th));
  (handlers, stats, s.s_counters, !stopped_at)

(* A batch run over [source] on the substrate [substrate prng] builds;
   [prng] is the run's engine PRNG, the RANDOM policy's. *)
let run_timed ~obs ~fault plan (params : Core.params) substrate source =
  let prng = Prng.create ~seed:params.Core.seed in
  let handlers, stats, fabric, stopped_at =
    exec ~obs ~fault ~records:true ~resume:None ~prng plan params source (substrate prng)
  in
  let config = plan.p_config in
  Core.report ~host_name:config.Config.host.Host.name ~config ~policy:plan.p_policy
    ~handlers ~model:plan.p_model ~stats ~fabric ~stopped_at

let on_des ~obs plan params prng _ stats = des_substrate ~obs ~clock0:0 ~prng plan params stats

let run ?(obs = Obs.disabled) ?fault plan params =
  run_timed ~obs ~fault plan params (on_des ~obs plan params) (fixed plan.p_model)

(* A batch run that keeps every instance, each with its own store,
   and returns them as task records. *)
let run_kept ~obs ~fault plan params substrate =
  let m = plan.p_model and kept = ref [] in
  let source, rest =
    fixed_source m ~store:(Exec_model.stores m) ~keep:(fun st -> kept := st :: !kept)
  in
  let report = run_timed ~obs ~fault plan params substrate source in
  rest ();
  (report, Array.of_list (List.rev_map (Exec_model.instance_of_state m) !kept))

let run_detailed ?(obs = Obs.disabled) ?fault plan params =
  let report, instances = run_kept ~obs ~fault plan params (on_des ~obs plan params) in
  Functional.fill_stores plan.p_model instances;
  (report, instances)

let run_on ?(obs = Obs.disabled) ?fault ~config ~policy model params substrate =
  run_kept ~obs ~fault (plan_of ~config ~policy model) params (fun _ -> substrate)

let serve ?(obs = Obs.disabled) ?fault ?resume plan (params : Core.params) source =
  let prng =
    match resume with
    | Some r -> Prng.of_state r.rs_prng
    | None -> Prng.create ~seed:params.Core.seed
  in
  let clock0 = match resume with Some r -> r.rs_clock | None -> 0 in
  let handlers, stats, _, _ =
    exec ~obs ~fault ~records:false ~resume ~prng plan params source (fun _ stats ->
        des_substrate ~obs ~clock0 ~prng plan params stats)
  in
  {
    sr_prng = Prng.state prng;
    sr_handlers =
      Array.map
        (fun (h : Core.handler) ->
          {
            hs_busy_until = h.Core.h_busy_until;
            hs_busy_ns = h.Core.h_busy_ns;
            hs_tasks_run = h.Core.h_tasks_run;
          })
        handlers;
    sr_aborted = stats.Core.aborted;
  }
