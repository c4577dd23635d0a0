type task_record = {
  name : int;
  instance : int;
  task : int;
  pe_index : int;
  ready_ns : int;
  dispatched_ns : int;
  completed_ns : int;
  dma_ns : int;
}

type columns = {
  mutable count : int;
  c_name : int array;
  c_instance : int array;
  c_task : int array;
  c_pe_index : int array;
  c_ready_ns : int array;
  c_dispatched_ns : int array;
  c_completed_ns : int array;
  c_dma_ns : int array;
}

let columns n =
  let col () = Array.make n 0 in
  {
    count = 0;
    c_name = col ();
    c_instance = col ();
    c_task = col ();
    c_pe_index = col ();
    c_ready_ns = col ();
    c_dispatched_ns = col ();
    c_completed_ns = col ();
    c_dma_ns = col ();
  }

let add_record c ~name ~instance ~task ~pe_index ~ready_ns ~dispatched_ns ~completed_ns ~dma_ns =
  let i = c.count in
  c.c_name.(i) <- name;
  c.c_instance.(i) <- instance;
  c.c_task.(i) <- task;
  c.c_pe_index.(i) <- pe_index;
  c.c_ready_ns.(i) <- ready_ns;
  c.c_dispatched_ns.(i) <- dispatched_ns;
  c.c_completed_ns.(i) <- completed_ns;
  c.c_dma_ns.(i) <- dma_ns;
  c.count <- i + 1

type pe_usage = {
  pe_label : string;
  pe_kind : string;
  busy_ns : int;
  tasks_run : int;
  busy_energy_mj : float;
  energy_mj : float;
}

type app_summary = { instances : int; mean_latency_ns : float; max_latency_ns : int }

type verdict = Completed | Degraded | Aborted of string

let verdict_name = function
  | Completed -> "completed"
  | Degraded -> "degraded"
  | Aborted _ -> "aborted"

type resilience = {
  faults_injected : int;
  task_retries : int;
  pe_quarantines : int;
  pe_deaths : int;
  tasks_lost : int;
}

let no_faults =
  { faults_injected = 0; task_retries = 0; pe_quarantines = 0; pe_deaths = 0; tasks_lost = 0 }

type fabric = {
  dma_streams : int;
  fabric_stalls : int;
  fabric_stall_ns : int;
  max_inflight_streams : int;
}

let no_fabric =
  { dma_streams = 0; fabric_stalls = 0; fabric_stall_ns = 0; max_inflight_streams = 0 }

type report = {
  host_name : string;
  config_label : string;
  policy_name : string;
  makespan_ns : int;
  job_count : int;
  task_count : int;
  pe_usage : pe_usage list;
  sched_invocations : int;
  sched_ns : int;
  wm_overhead_ns : int;
  records : columns;
  names : (string * string) array;
  app_stats : (string * app_summary) list;
  verdict : verdict;
  resilience : resilience;
  fabric : fabric;
  max_ready_depth : int;
  max_inflight : int;
  mean_wait_us : float;
}

let record_count r = r.records.count

let record r i =
  let c = r.records in
  if i < 0 || i >= c.count then invalid_arg "Stats.record";
  {
    name = c.c_name.(i);
    instance = c.c_instance.(i);
    task = c.c_task.(i);
    pe_index = c.c_pe_index.(i);
    ready_ns = c.c_ready_ns.(i);
    dispatched_ns = c.c_dispatched_ns.(i);
    completed_ns = c.c_completed_ns.(i);
    dma_ns = c.c_dma_ns.(i);
  }

let record_list r = List.init r.records.count (record r)

let record_app r t = fst r.names.(t.name)
let record_node r t = snd r.names.(t.name)
let record_pe r t = (List.nth r.pe_usage t.pe_index).pe_label

(* The records as a realized schedule, a record being its row.  They
   see no fabric admission, so no stall time is charged to them. *)
let critical_path r =
  let c = r.records in
  Dssoc_obs.Analyze.path_rows
    {
      Dssoc_obs.Analyze.f_task = Array.get c.c_task;
      f_instance = Array.get c.c_instance;
      f_pe_index = Array.get c.c_pe_index;
      f_ready_ns = Array.get c.c_ready_ns;
      f_dispatched_ns = Array.get c.c_dispatched_ns;
      f_completed_ns = Array.get c.c_completed_ns;
      f_dma_ns = Array.get c.c_dma_ns;
      f_stall_ns = (fun _ -> 0);
    }
    c.count ~makespan_ns:r.makespan_ns ()

let service_quantile_us r q =
  let c = r.records in
  if c.count = 0 then 0.0
  else
    Dssoc_stats.Quantile.quantile
      (Array.init c.count (fun i ->
           float_of_int (c.c_completed_ns.(i) - c.c_dispatched_ns.(i)) /. 1e3))
      q

let completed_fraction r = float_of_int r.records.count /. float_of_int (max 1 r.task_count)

let utilization r =
  let span = float_of_int (max 1 r.makespan_ns) in
  List.map (fun u -> (u.pe_label, float_of_int u.busy_ns /. span)) r.pe_usage

let mean_utilization_by_kind r =
  let span = float_of_int (max 1 r.makespan_ns) in
  let tbl = Hashtbl.create 4 in
  List.iter
    (fun u ->
      let sum, n = Option.value ~default:(0.0, 0) (Hashtbl.find_opt tbl u.pe_kind) in
      Hashtbl.replace tbl u.pe_kind (sum +. (float_of_int u.busy_ns /. span), n + 1))
    r.pe_usage;
  Hashtbl.fold (fun k (sum, n) acc -> (k, sum /. float_of_int n) :: acc) tbl []
  |> List.sort compare

let total_energy_mj r = List.fold_left (fun acc u -> acc +. u.energy_mj) 0.0 r.pe_usage

let total_busy_energy_mj r = List.fold_left (fun acc u -> acc +. u.busy_energy_mj) 0.0 r.pe_usage

let avg_sched_overhead_ns r =
  if r.sched_invocations = 0 then 0.0
  else float_of_int r.wm_overhead_ns /. float_of_int r.sched_invocations

let pp_summary fmt r =
  let ms ns = float_of_int ns /. 1e6 in
  Format.fprintf fmt "== %s | %s | %s ==@." r.host_name r.config_label r.policy_name;
  Format.fprintf fmt "  jobs: %d   tasks: %d   makespan: %.3f ms@." r.job_count r.task_count
    (ms r.makespan_ns);
  Format.fprintf fmt "  scheduler: %d invocations, %.3f ms total, %.2f us avg WM overhead@."
    r.sched_invocations (ms r.sched_ns) (avg_sched_overhead_ns r /. 1e3);
  Format.fprintf fmt "  energy: %.3f mJ across all PEs (%.3f mJ busy)@." (total_energy_mj r)
    (total_busy_energy_mj r);
  (* Fault-free runs keep the historical output byte-for-byte. *)
  (match (r.verdict, r.resilience) with
  | Completed, res when res = no_faults -> ()
  | v, res ->
    Format.fprintf fmt
      "  resilience: verdict %s%s; %d faults, %d retries, %d quarantines, %d PE deaths, \
       %.1f%% tasks completed@."
      (verdict_name v)
      (match v with Aborted reason -> Printf.sprintf " (%s)" reason | _ -> "")
      res.faults_injected res.task_retries res.pe_quarantines res.pe_deaths
      (100.0 *. completed_fraction r));
  (* Ideal-fabric runs keep the historical output byte-for-byte. *)
  (if r.fabric <> no_fabric then
     Format.fprintf fmt
       "  fabric: %d DMA streams, %d stalls, %.3f ms stalled, peak %d in flight@."
       r.fabric.dma_streams r.fabric.fabric_stalls
       (ms r.fabric.fabric_stall_ns)
       r.fabric.max_inflight_streams);
  List.iter
    (fun u ->
      Format.fprintf fmt "  %-8s busy %.3f ms (%d tasks, %.1f%% util)@." u.pe_label (ms u.busy_ns)
        u.tasks_run
        (100.0 *. float_of_int u.busy_ns /. float_of_int (max 1 r.makespan_ns)))
    r.pe_usage;
  List.iter
    (fun (app, s) ->
      Format.fprintf fmt "  %-16s x%d  mean latency %.3f ms  max %.3f ms@." app s.instances
        (s.mean_latency_ns /. 1e6) (ms s.max_latency_ns))
    r.app_stats

let records_csv r =
  let field = Dssoc_stats.Table.csv_field in
  let pes = Array.of_list (List.map (fun u -> u.pe_label) r.pe_usage) in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "app,instance,node,pe,ready_ns,dispatched_ns,completed_ns\n";
  let c = r.records in
  for i = 0 to c.count - 1 do
    let app, node = r.names.(c.c_name.(i)) in
    Buffer.add_string buf
      (Printf.sprintf "%s,%d,%s,%s,%d,%d,%d\n" (field app) c.c_instance.(i) (field node)
         (field pes.(c.c_pe_index.(i))) c.c_ready_ns.(i) c.c_dispatched_ns.(i)
         c.c_completed_ns.(i))
  done;
  Buffer.contents buf

let chrome_trace ?obs r =
  let module Json = Dssoc_json.Json in
  let module Obs = Dssoc_obs.Obs in
  let module Analyze = Dssoc_obs.Analyze in
  let pe_index =
    List.mapi (fun i u -> (u.pe_label, i)) r.pe_usage
  in
  let events =
    List.map
      (fun t ->
        let app, node = r.names.(t.name) in
        Json.obj
          [
            ("name", Json.str (Printf.sprintf "%s/%d:%s" app t.instance node));
            ("cat", Json.str app);
            ("ph", Json.str "X");
            ("ts", Json.float (float_of_int t.dispatched_ns /. 1e3));
            ("dur", Json.float (float_of_int (t.completed_ns - t.dispatched_ns) /. 1e3));
            ("pid", Json.int 1);
            ("tid", Json.int t.pe_index);
            ("args", Json.obj [ ("ready_us", Json.float (float_of_int t.ready_ns /. 1e3)) ]);
          ])
      (record_list r)
  in
  let threads =
    List.map
      (fun (label, i) ->
        Json.obj
          [
            ("name", Json.str "thread_name");
            ("ph", Json.str "M");
            ("pid", Json.int 1);
            ("tid", Json.int i);
            ("args", Json.obj [ ("name", Json.str label) ]);
          ])
      pe_index
  in
  (* Observation extras: accelerator DMA/compute sub-spans nested on
     the PE rows, and one Perfetto counter track per metrics gauge.
     Handler order equals [pe_usage] order, so the recorded [pe_index]
     is directly a [tid] here. *)
  let obs_extras =
    match obs with
    | None -> []
    | Some o ->
      let events = Obs.recorded_events o in
      let phases =
        List.filter_map
          (fun (e : Obs.event) ->
            match e.Obs.body with
            | Obs.Phase p ->
              Some
                (Json.obj
                   [
                     ("name", Json.str (Obs.phase_name p.phase));
                     ("cat", Json.str "accel");
                     ("ph", Json.str "X");
                     ("ts", Json.float (float_of_int p.start_ns /. 1e3));
                     ("dur", Json.float (float_of_int p.dur_ns /. 1e3));
                     ("pid", Json.int 1);
                     ("tid", Json.int p.pe_index);
                     ("args", Json.obj [ ("task", Json.int p.task) ]);
                   ])
            | _ -> None)
          events
      in
      let counters =
        List.concat_map
          (fun (name, series) ->
            List.map
              (fun (t_ns, v) ->
                Json.obj
                  [
                    ("name", Json.str name);
                    ("ph", Json.str "C");
                    ("ts", Json.float (float_of_int t_ns /. 1e3));
                    ("pid", Json.int 1);
                    ("args", Json.obj [ ("value", Json.int v) ]);
                  ])
              series)
          (Obs.counter_tracks o)
      in
      (* Critical-path highlighting: the binding chain of the realized
         schedule on its own thread row, one span per step, so the
         bottleneck sequence reads straight across the trace. *)
      let crit =
        let cp = Analyze.critical_path (Analyze.of_events events) in
        match cp.Analyze.cp_steps with
        | [] -> []
        | steps ->
          let tid = List.length pe_index in
          Json.obj
            [
              ("name", Json.str "thread_name");
              ("ph", Json.str "M");
              ("pid", Json.int 1);
              ("tid", Json.int tid);
              ("args", Json.obj [ ("name", Json.str "critical path") ]);
            ]
          :: List.map
               (fun (s : Analyze.step) ->
                 let x = s.Analyze.s_task in
                 Json.obj
                   [
                     ( "name",
                       Json.str
                         (Printf.sprintf "%s/%d:%s" x.Analyze.x_app x.Analyze.x_instance
                            x.Analyze.x_node) );
                     ("cat", Json.str "crit");
                     ("ph", Json.str "X");
                     ("ts", Json.float (float_of_int x.Analyze.x_dispatched_ns /. 1e3));
                     ( "dur",
                       Json.float
                         (float_of_int (x.Analyze.x_completed_ns - x.Analyze.x_dispatched_ns)
                         /. 1e3) );
                     ("pid", Json.int 1);
                     ("tid", Json.int tid);
                     ( "args",
                       Json.obj
                         [
                           ("pe", Json.str x.Analyze.x_pe);
                           ("edge", Json.str (Analyze.edge_name s.Analyze.s_edge));
                           ("slack_us", Json.float (float_of_int s.Analyze.s_slack_ns /. 1e3));
                         ] );
                   ])
               steps
      in
      phases @ counters @ crit
  in
  Json.obj
    [
      ("traceEvents", Json.list (threads @ events @ obs_extras));
      ("displayTimeUnit", Json.str "ms");
      ( "otherData",
        Json.obj
          [
            ("config", Json.str r.config_label);
            ("policy", Json.str r.policy_name);
            ("host", Json.str r.host_name);
          ] );
    ]

(* a-z, then A-Z, then 0-9; beyond 62 applications the alphabet wraps
   (letters are a reading aid, not an identifier). *)
let gantt_alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"

let gantt ?(width = 100) r =
  let width = max 1 width in
  let span = float_of_int (max 1 r.makespan_ns) in
  let records = record_list r in
  let apps = List.sort_uniq compare (List.map (fun t -> record_app r t) records) in
  let letter app =
    match List.find_index (fun a -> a = app) apps with
    | Some i -> gantt_alphabet.[i mod String.length gantt_alphabet]
    | None -> '?'
  in
  let buf = Buffer.create 1024 in
  List.iter
    (fun (app : string) -> Buffer.add_string buf (Printf.sprintf "  %c = %s\n" (letter app) app))
    apps;
  List.iteri
    (fun pe u ->
      let row = Bytes.make width '.' in
      List.iter
        (fun t ->
          if t.pe_index = pe then begin
            let pos ns =
              min (width - 1)
                (max 0 (int_of_float (float_of_int ns /. span *. float_of_int width)))
            in
            (* Clamp into the row and give zero-width (or malformed
               negative-duration) spans one cell, so an instantaneous
               task is still visible and the fill loop bounds are
               always ordered. *)
            let first = pos t.dispatched_ns in
            let last = max first (pos t.completed_ns) in
            for i = first to last do
              Bytes.set row i (letter (record_app r t))
            done
          end)
        records;
      Buffer.add_string buf (Printf.sprintf "%-8s |%s|\n" u.pe_label (Bytes.to_string row)))
    r.pe_usage;
  Buffer.add_string buf
    (Printf.sprintf "%-8s  0%s%.3f ms\n" "" (String.make (max 1 (width - 8)) ' ')
       (float_of_int r.makespan_ns /. 1e6));
  Buffer.contents buf
