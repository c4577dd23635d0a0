module Pe = Dssoc_soc.Pe
module Config = Dssoc_soc.Config
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

type handler = {
  h_pe : Pe.t;
  h_index : int;  (** this handler's PE index (column of the price classes) *)
  h_capacity : int;  (** 1 + reservation-queue depth (1 = the paper's baseline) *)
  h_pending : int Queue.t;  (** dispatched by the WM, not yet executed *)
  h_completed : int Queue.t;  (** executed, awaiting WM bookkeeping *)
  mutable h_failed : (int * Fault.failure * int) list;
      (** the completed attempts that failed, not yet monitored: the
          task, its failure and the PE's quarantine *)
  mutable h_inflight : int;  (** pending + currently executing; WM-owned *)
  mutable h_stop : bool;
  mutable h_busy_ns : int;  (** occupancy (execution time), not queue residence *)
  mutable h_tasks_run : int;
  mutable h_busy_until : int;  (** EFT availability horizon; WM-owned *)
  mutable h_quarantined_until : int;
      (** WM-owned fault state: 0 = healthy, [max_int] = permanently
          dead, else the emulation time the quarantine lifts *)
}

let make_handler ~pe ~index ~reservation_depth =
  {
    h_pe = pe;
    h_index = index;
    h_capacity = 1 + max 0 reservation_depth;
    h_pending = Queue.create ();
    h_completed = Queue.create ();
    h_failed = [];
    h_inflight = 0;
    h_stop = false;
    h_busy_ns = 0;
    h_tasks_run = 0;
    h_busy_until = 0;
    h_quarantined_until = 0;
  }

(* ------------------------------------------------------------------ *)
(* Statistics accumulator                                              *)
(* ------------------------------------------------------------------ *)

type wm_stats = {
  mutable sched_invocations : int;
  mutable sched_ns : int;
  mutable wm_ns : int;
  records : Stats.columns;
  mutable faults : int;  (** failed or slowed execution attempts *)
  mutable retries : int;
  mutable quarantines : int;
  mutable pe_deaths : int;
  mutable aborted : string option;  (** first abort reason, if any *)
  mutable last_completion : int;
  latencies : latency array;  (** per class *)
  name_base : int array;  (** per class, its first node's name number *)
  mutable max_ready : int;
  mutable max_inflight : int;
  mutable dispatches : int;
  wait_us : Float.Array.t;  (** one cell: the waits' sum, unboxed *)
}

and latency = { mutable lat_count : int; mutable lat_sum : int; mutable lat_max : int }

let workload_tasks (model : Exec_model.t) =
  Array.fold_left (fun acc k -> acc + Exec_model.task_count model k) 0 model.Exec_model.items

let make_stats ~records (model : Exec_model.t) =
  {
    sched_invocations = 0;
    sched_ns = 0;
    wm_ns = 0;
    records = Stats.columns (if records then workload_tasks model else 0);
    faults = 0;
    retries = 0;
    quarantines = 0;
    pe_deaths = 0;
    aborted = None;
    last_completion = 0;
    latencies =
      Array.map (fun _ -> { lat_count = 0; lat_sum = 0; lat_max = 0 }) model.Exec_model.classes;
    name_base = Exec_model.name_bases model;
    max_ready = 0;
    max_inflight = 0;
    dispatches = 0;
    wait_us = Float.Array.make 1 0.0;
  }

let note_ready stats ~ready = if ready > stats.max_ready then stats.max_ready <- ready

let note_dispatch stats ~wait_ns ~inflight =
  if inflight > stats.max_inflight then stats.max_inflight <- inflight;
  stats.dispatches <- stats.dispatches + 1;
  Float.Array.set stats.wait_us 0 (Float.Array.get stats.wait_us 0 +. (float_of_int wait_ns /. 1e3))

let record_completion stats ~cls ~node ~instance ~task ~pe_index ~ready_ns ~dispatched_ns
    ~completed_ns ~dma_ns =
  Stats.add_record stats.records ~name:(stats.name_base.(cls) + node) ~instance ~task ~pe_index
    ~ready_ns ~dispatched_ns ~completed_ns ~dma_ns

let instance_completed stats ~cls ~arrival_ns ~now =
  if now > stats.last_completion then stats.last_completion <- now;
  let l = stats.latencies.(cls) and lat = now - arrival_ns in
  l.lat_count <- l.lat_count + 1;
  l.lat_sum <- l.lat_sum + lat;
  if lat > l.lat_max then l.lat_max <- lat

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
(* Shared protocol pieces                                              *)
(* ------------------------------------------------------------------ *)

(* Resolve an engine-facing fault plan against the run's handler
   array. *)
let compile_fault plan ~(handlers : handler array) =
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
(* Resilient dispatch: the non-suspending fault bookkeeping            *)
(* ------------------------------------------------------------------ *)

(* One fault-plan consultation at the start of an attempt.  The caller
   then models the attempt's PE time (execution, slowdown tail or
   detection latency), which is where the engines differ, and hands
   the decision to [finish_attempt]. *)
let decide_attempt ~fault ~obs (h : handler) ~task ~attempt ~now ~est_ns =
  let d = Fault.decide fault ~pe:h.h_index ~now ~task_id:task ~attempt ~est_ns in
  let injected name =
    if Obs.enabled obs then
      Obs.on_fault_injected obs ~now ~task ~pe:h.h_pe.Pe.label ~pe_index:h.h_index ~fault:name
        ~attempt
  in
  (match d with
  | Fault.Proceed -> ()
  | Fault.Proceed_slow _ -> injected "slowdown"
  | Fault.Fail { reason; _ } -> injected (Fault.failure_name reason));
  d

let finish_attempt h handle (d : Fault.decision) ~busy_ns =
  h.h_busy_ns <- h.h_busy_ns + busy_ns;
  (match d with
  | Fault.Fail { reason; quarantine_ns; _ } ->
    h.h_failed <- (handle, reason, quarantine_ns) :: h.h_failed
  | Fault.Proceed | Fault.Proceed_slow _ -> h.h_tasks_run <- h.h_tasks_run + 1);
  Queue.add handle h.h_completed

type resilience = {
  r_fault : Fault.t;
  r_obs : Obs.t;
  r_stats : wm_stats;
  r_model : Exec_model.t;
  r_handlers : handler array;
  r_unfinished : unit -> (int * int) Seq.t;
  r_inflight : int ref;  (** the workload manager's dispatched-but-unmonitored count *)
  r_make_ready : int -> unit;
  r_blocked : int -> unit;
  r_lock : handler -> unit;
  r_unlock : handler -> unit;
  mutable r_retry_q : (int * int * int) list;
      (** (release time, task, instance) of the tasks sleeping out a
          retry backoff, sorted by release time *)
}

let resilience ~fault ~obs ~stats ~model ~handlers ~unfinished ~inflight ~make_ready ~blocked
    ~lock ~unlock =
  {
    r_fault = fault;
    r_obs = obs;
    r_stats = stats;
    r_model = model;
    r_handlers = handlers;
    r_unfinished = unfinished;
    r_inflight = inflight;
    r_make_ready = make_ready;
    r_blocked = blocked;
    r_lock = lock;
    r_unlock = unlock;
    r_retry_q = [];
  }

let abort r reason = if r.r_stats.aborted = None then r.r_stats.aborted <- Some reason
let pe_alive h = h.h_quarantined_until <> max_int

(* Whether a live PE supports node [node] of class [cls]: its price is
   [min_int] exactly where it does not. *)
let has_alive_support r ~cls ~node =
  let est = r.r_model.Exec_model.classes.(cls).Exec_model.est in
  let row = node * r.r_model.Exec_model.n_pes in
  Array.exists (fun h -> pe_alive h && est.(row + h.h_index) <> min_int) r.r_handlers

(* "app/node" of node [node] of class [cls]. *)
let task_name r ~cls ~node =
  let tp = r.r_model.Exec_model.classes.(cls).Exec_model.topology in
  (tp.Task.tp_spec.App_spec.app_name, tp.Task.tp_nodes.(node).App_spec.node_name)

let no_surviving_pe r ~cls ~node =
  let app, node = task_name r ~cls ~node in
  Printf.sprintf "task %s/%s supports no surviving PE" app node

let unfinished_nodes ~cls ~nodes ~finished =
  Seq.filter_map (fun j -> if finished j then None else Some (cls, j)) (Seq.init nodes Fun.id)

(* Permanent loss of a PE: quarantine it forever, drain its reservation
   queue back to the ready list (those tasks never started, so
   re-dispatching them elsewhere is safe), and give up on the run if
   some unfinished task now has no surviving PE. *)
let kill_pe r h ~now =
  if pe_alive h then begin
    let stats = r.r_stats in
    h.h_quarantined_until <- max_int;
    stats.quarantines <- stats.quarantines + 1;
    stats.pe_deaths <- stats.pe_deaths + 1;
    if Obs.enabled r.r_obs then
      Obs.on_pe_quarantined r.r_obs ~now ~pe:h.h_pe.Pe.label ~pe_index:h.h_index
        ~until_ns:max_int ~permanent:true;
    r.r_lock h;
    let drained = List.of_seq (Queue.to_seq h.h_pending) in
    Queue.clear h.h_pending;
    r.r_unlock h;
    List.iter
      (fun t ->
        h.h_inflight <- h.h_inflight - 1;
        decr r.r_inflight;
        r.r_make_ready t)
      drained;
    match Seq.find (fun (cls, node) -> not (has_alive_support r ~cls ~node)) (r.r_unfinished ()) with
    | Some (cls, node) -> abort r (no_surviving_pe r ~cls ~node)
    | None -> ()
  end

let quarantine_pe r h ~until ~now =
  if pe_alive h && until > h.h_quarantined_until then begin
    h.h_quarantined_until <- until;
    r.r_stats.quarantines <- r.r_stats.quarantines + 1;
    if Obs.enabled r.r_obs then
      Obs.on_pe_quarantined r.r_obs ~now ~pe:h.h_pe.Pe.label ~pe_index:h.h_index ~until_ns:until
        ~permanent:false
  end

(* The failure of the attempt of [task] that [h] completed, taken out
   of the handler's list. *)
let take_failure r h task =
  r.r_lock h;
  let found = List.find_opt (fun (t, _, _) -> t = task) h.h_failed in
  if Option.is_some found then h.h_failed <- List.filter (fun (t, _, _) -> t <> task) h.h_failed;
  r.r_unlock h;
  found

let handle_failure r h ~task ~id ~instance ~cls ~node ~attempt ~now =
  match take_failure r h task with
  | None -> false
  | Some (_, reason, quarantine_ns) ->
    let stats = r.r_stats and obs = r.r_obs and fault = r.r_fault in
    stats.faults <- stats.faults + 1;
    if Obs.enabled obs then begin
      let app, node = task_name r ~cls ~node in
      Obs.on_task_failed obs ~now ~task:id ~instance ~app ~node ~pe:h.h_pe.Pe.label
        ~pe_index:h.h_index ~fault:(Fault.failure_name reason) ~attempt
    end;
    (match reason with
    | Fault.Pe_dead -> kill_pe r h ~now
    | _ when quarantine_ns = max_int -> kill_pe r h ~now
    | _ when quarantine_ns > 0 -> quarantine_pe r h ~until:(now + quarantine_ns) ~now
    | _ -> ());
    if not (has_alive_support r ~cls ~node) then abort r (no_surviving_pe r ~cls ~node)
    else if attempt >= Fault.max_attempts fault then begin
      let app, node = task_name r ~cls ~node in
      abort r
        (Printf.sprintf "task %s/%s exhausted its %d-attempt budget" app node
           (Fault.max_attempts fault))
    end
    else begin
      stats.retries <- stats.retries + 1;
      let backoff = Fault.backoff_ns fault ~attempt in
      let at = now + backoff in
      r.r_blocked task;
      let rec ins = function
        | ((t, _, _) as hd) :: tl when t <= at -> hd :: ins tl
        | rest -> (at, task, instance) :: rest
      in
      r.r_retry_q <- ins r.r_retry_q;
      if Obs.enabled obs then begin
        let app, node = task_name r ~cls ~node in
        Obs.on_task_retried obs ~now ~task:id ~instance ~app ~node ~attempt ~backoff_ns:backoff
      end
    end;
    true

let withdraw_retries r ~instance =
  r.r_retry_q <- List.filter (fun (_, _, i) -> i <> instance) r.r_retry_q

(* A PE at or past its scheduled death time must never receive work,
   even if the proactive kill sweep has not reached it yet: a dispatch
   that slips through consumes an attempt without a fault draw and
   changes the schedule. *)
let dead_at r h ~now =
  match Fault.death_ns r.r_fault ~pe:h.h_index with Some t -> now >= t | None -> false

let pe_ok r h ~now = h.h_quarantined_until <= now && not (dead_at r h ~now)
let usable r h ~now = h.h_inflight < h.h_capacity && pe_ok r h ~now

(* Planned deaths fire proactively, so a PE dies at its scheduled time
   even if nothing was dispatched to it. *)
let sweep_deaths r ~now =
  Array.iter
    (fun h ->
      if dead_at r h ~now && pe_alive h then begin
        r.r_stats.faults <- r.r_stats.faults + 1;
        kill_pe r h ~now
      end)
    r.r_handlers

(* The fault timeline at the tail of a WM iteration: deaths whose time
   was crossed within the iteration, quarantine expiry, then release of
   due retries.  True when a scheduling round should follow. *)
let fault_tick r ~now =
  sweep_deaths r ~now;
  let recovered = ref false in
  Array.iter
    (fun h ->
      if h.h_quarantined_until > 0 && pe_alive h && now >= h.h_quarantined_until then begin
        h.h_quarantined_until <- 0;
        recovered := true;
        if Obs.enabled r.r_obs then
          Obs.on_pe_recovered r.r_obs ~now ~pe:h.h_pe.Pe.label ~pe_index:h.h_index
      end)
    r.r_handlers;
  let released = ref 0 in
  let rec release () =
    match r.r_retry_q with
    | (t, task, _) :: rest when t <= now && r.r_stats.aborted = None ->
      r.r_retry_q <- rest;
      r.r_make_ready task;
      incr released;
      release ()
    | _ -> ()
  in
  release ();
  !released > 0 || !recovered

(* Under a plan, the WM's next wake-up besides completions: [next] (the
   engine's own arrival deadline), the first retry release, quarantine
   lifts and planned deaths.  An aborted run waits only for in-flight
   work. *)
let wm_deadline r next =
  if r.r_stats.aborted <> None then None
  else begin
    let best = ref next in
    let add t = match !best with Some b when b <= t -> () | _ -> best := Some t in
    (match r.r_retry_q with (t, _, _) :: _ -> add t | [] -> ());
    Array.iter
      (fun h ->
        if pe_alive h then begin
          if h.h_quarantined_until > 0 then add h.h_quarantined_until;
          match Fault.death_ns r.r_fault ~pe:h.h_index with Some t -> add t | None -> ()
        end)
      r.r_handlers;
    !best
  end

(* ------------------------------------------------------------------ *)
(* Report assembly                                                     *)
(* ------------------------------------------------------------------ *)

let report ~host_name ~(config : Config.t) ~(policy : Scheduler.policy)
    ~(handlers : handler array) ~(model : Exec_model.t) ~(stats : wm_stats)
    ~(fabric : fabric_counters) ~stopped_at =
  (* An aborted run leaves instances unfinished: its makespan is the
     instant its machine stopped, and latencies cover the finished
     instances only. *)
  let makespan = if stats.aborted <> None then stopped_at else stats.last_completion in
  (* Every app of the workload gets a row; classes of one app name
     share it. *)
  let app_tbl = Hashtbl.create 4 in
  Array.iteri
    (fun k (c : Exec_model.cls) ->
      let name = c.Exec_model.topology.Task.tp_spec.App_spec.app_name in
      let l = stats.latencies.(k) in
      let n, sum, mx = Option.value ~default:(0, 0, 0) (Hashtbl.find_opt app_tbl name) in
      Hashtbl.replace app_tbl name (n + l.lat_count, sum + l.lat_sum, max mx l.lat_max))
    model.Exec_model.classes;
  let app_stats =
    Hashtbl.fold
      (fun name (n, sum, mx) acc ->
        ( name,
          {
            Stats.instances = n;
            mean_latency_ns = float_of_int sum /. float_of_int (max 1 n);
            max_latency_ns = mx;
          } )
        :: acc)
      app_tbl []
    |> List.sort compare
  in
  let task_count = workload_tasks model in
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
    job_count = Array.length model.Exec_model.items;
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
    records = stats.records;
    names = Exec_model.names model;
    app_stats;
    verdict;
    resilience =
      {
        Stats.faults_injected = stats.faults;
        task_retries = stats.retries;
        pe_quarantines = stats.quarantines;
        pe_deaths = stats.pe_deaths;
        tasks_lost = task_count - stats.records.Stats.count;
      };
    fabric =
      {
        Stats.dma_streams = fabric.fc_streams;
        fabric_stalls = fabric.fc_stalls;
        fabric_stall_ns = fabric.fc_stall_ns;
        max_inflight_streams = fabric.fc_max_inflight;
      };
    max_ready_depth = stats.max_ready;
    max_inflight = stats.max_inflight;
    mean_wait_us =
      (if stats.dispatches = 0 then 0.0
       else Float.Array.get stats.wait_us 0 /. float_of_int stats.dispatches);
  }
