(* The traced pass: where one emulation's host time goes, measured from
   outside.  Every call the benchmark makes into a library layer's
   public functions is bracketed by a span, and the per-layer figures
   derived from those calls are added to the run's series.  The pass is
   a run of its own, in one domain, so its spans nest strictly and its
   allocation counts repeat exactly. *)

module App_spec = Dssoc_apps.App_spec
module Workload = Dssoc_apps.Workload
module Config = Dssoc_soc.Config
module Fabric = Dssoc_soc.Fabric
module Pe = Dssoc_soc.Pe
module Emulator = Dssoc_runtime.Emulator
module Stats = Dssoc_runtime.Stats
module Task = Dssoc_runtime.Task
module Exec_model = Dssoc_runtime.Exec_model
module Scheduler = Dssoc_runtime.Scheduler
module Compiled_engine = Dssoc_runtime.Compiled_engine
module Engine_core = Dssoc_runtime.Engine_core
module Obs = Dssoc_obs.Obs
module Analyze = Dssoc_obs.Analyze
module Grid = Dssoc_explore.Grid
module Sweep = Dssoc_explore.Sweep
module Server = Dssoc_serve.Server

(* One design point of a workload, as the traced pass sees it. *)
type point = {
  label : string;
  grid : Grid.t;  (** a grid holding the point (one point for storm and serve) *)
  point : Grid.point;
  rebuild : unit -> Workload.t;  (** the apps-layer construction of the point's workload *)
  serve : Server.spec option;  (** serve-ramp: the server run the workload replays as a batch *)
}

type t = {
  spans : Spans.t;
  m : Measure.t;
  mutable obs : (int * Obs.t) option;  (** reused bundle, keyed on ring capacity *)
  orders : (string, int array) Hashtbl.t;  (** task indices in topological order, per app *)
  mutable ops : int;
}

let create m = { spans = Spans.create (); m; obs = None; orders = Hashtbl.create 8; ops = 0 }

(* The bundle a sweep worker would use for this point: a drop-free ring
   sized off the task count, reused across points with [Obs.reset]. *)
let obs_for t ~capacity =
  match t.obs with
  | Some (cap, obs) when cap = capacity ->
    Obs.reset obs;
    obs
  | _ ->
    let obs = Obs.make ~sink:(Obs.Sink.ring ~capacity ()) ~metrics:(Obs.Metrics.create ()) () in
    t.obs <- Some (capacity, obs);
    obs

let task_count (wl : Workload.t) =
  List.fold_left (fun acc (it : Workload.item) -> acc + List.length it.Workload.spec.App_spec.nodes) 0
    wl.Workload.items

let instantiate (wl : Workload.t) =
  let base = ref 0 in
  Array.of_list
    (List.mapi
       (fun i (it : Workload.item) ->
         let inst =
           Task.instantiate ~task_id_base:!base ~inst_id:i ~arrival_ns:it.Workload.arrival_ns
             it.Workload.spec
         in
         base := !base + Array.length inst.Task.tasks;
         inst)
       wl.Workload.items)

let topo_order t (app : App_spec.t) =
  match Hashtbl.find_opt t.orders app.App_spec.app_name with
  | Some o -> o
  | None ->
    let index = Hashtbl.create 16 in
    List.iteri (fun i (n : App_spec.node) -> Hashtbl.replace index n.App_spec.node_name i) app.App_spec.nodes;
    let o =
      Array.of_list
        (List.map
           (fun (n : App_spec.node) -> Hashtbl.find index n.App_spec.node_name)
           (App_spec.topological_order app))
    in
    Hashtbl.replace t.orders app.App_spec.app_name o;
    o

(* Every task's kernel, resolved for a CPU PE (or, for a task no CPU
   supports, the first PE that does) and called in topological order:
   the functional work a virtual emulation performs. *)
let run_kernels pes orders (insts : Task.instance array) =
  Array.iteri
    (fun i (inst : Task.instance) ->
      Array.iter
        (fun ti ->
          let task = inst.Task.tasks.(ti) in
          let pe =
            match List.find_opt (fun pe -> Pe.is_cpu pe.Pe.kind && Task.supports task pe) pes with
            | Some pe -> pe
            | None -> List.find (Task.supports task) pes
          in
          (Exec_model.resolve_kernel task pe) task.Task.store task.Task.node.App_spec.arguments)
        orders.(i))
    insts

let minor_words f =
  let w0 = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. w0)

let timed t ~id layer name f = Spans.record t.spans ~layer ~name ~point:id (fun () -> Harness.time f)

(* The server run itself, for serve-ramp's points. *)
let serve_part t ~id (p : point) spec =
  let timed layer name f = timed t ~id layer name f in
  let _, arrivals_s = timed "serve" "Server.materialize_debug" (fun () -> Server.materialize_debug spec) in
  let oc, run_s = timed "serve" "Server.run" (fun () -> Result.get_ok (Server.run spec)) in
  let add = Measure.add t.m in
  add "serve.arrivals_ms" (arrivals_s *. 1e3);
  add ("serve.run_ms." ^ p.label) (run_s *. 1e3);
  List.iter
    (fun (tr : Server.tenant_report) ->
      add (Printf.sprintf "serve.p95_sim_ms.%s.%s" tr.Server.tr_name p.label) tr.Server.tr_p95_ms)
    oc.Server.oc_tenants

(* One traced operation: the point's workload is built, instantiated,
   its kernels replayed, and it is emulated untraced and traced on the
   virtual engine, compiled (without its fault plan) and run untraced
   and traced on the compiled engine, analysed, and evaluated as a
   sweep row.  Untraced and traced runs alternate their order from one
   operation to the next. *)
let op t (p : point) =
  let id = t.ops in
  t.ops <- id + 1;
  let m = t.m and pt = p.point and grid = p.grid in
  let add = Measure.add m in
  let timed layer name f = timed t ~id layer name f in
  let pair first second = if id mod 2 = 0 then let a = first () in (a, second ()) else let b = second () in (first (), b) in
  Spans.record t.spans ~layer:"bench" ~name:p.label ~point:id @@ fun () ->
  Option.iter (serve_part t ~id p) p.serve;
  let wl, build_s = timed "apps" "workload build" p.rebuild in
  let insts, inst_s = timed "runtime" "Task.instantiate" (fun () -> instantiate wl) in
  let config = pt.Grid.config and fault = grid.Grid.fault in
  let orders = Array.map (fun (i : Task.instance) -> topo_order t i.Task.app) insts in
  let (), kernel_s = timed "dsp" "kernels" (fun () -> run_kernels (Config.pes config) orders insts) in
  let engine =
    Emulator.virtual_seeded ~jitter:grid.Grid.jitter ~reservation_depth:grid.Grid.reservation_depth
      pt.Grid.seed
  in
  let emulate ?obs ?fault config =
    Emulator.run_exn ~engine ~policy:pt.Grid.policy ?obs ?fault ~config ~workload:wl ()
  in
  let obs = obs_for t ~capacity:(max 65536 (32 * task_count wl)) in
  let ((r_v, words_v), emu_s), (r_vt, traced_s) =
    pair
      (fun () ->
        timed "runtime" "virtual emulation" (fun () -> minor_words (fun () -> emulate ?fault config)))
      (fun () ->
        timed "runtime" "virtual emulation, traced" (fun () ->
            Obs.reset obs;
            emulate ~obs ?fault config))
  in
  let events = Obs.Sink.total (Obs.sink obs) in
  let _, analyze_s =
    timed "obs" "Analyze.critical_path" (fun () ->
        Analyze.critical_path (Analyze.of_events (Obs.recorded_events obs)))
  in
  (* The compiled engine rejects fault plans, so it replays the point
     without one; on storm-faults that fault-free run is also the
     reference for the fault and fabric overheads. *)
  let r_ref, ref_s =
    match fault with
    | None -> (r_v, emu_s)
    | Some _ -> timed "runtime" "virtual emulation, no faults" (fun () -> emulate config)
  in
  if fault <> None then add "fault.overhead_ms" ((emu_s -. ref_s) *. 1e3);
  (match config.Config.fabric with
  | Fabric.Ideal -> ()
  | Fabric.Bus _ ->
    let _, ideal_s =
      timed "runtime" "virtual emulation, ideal fabric" (fun () ->
          emulate (Config.with_fabric Fabric.Ideal config))
    in
    add "soc.fabric_ms" ((ref_s -. ideal_s) *. 1e3));
  let policy = Result.get_ok (Scheduler.find pt.Grid.policy) in
  let plan, compile_s =
    timed "runtime" "Compiled_engine.compile" (fun () ->
        Compiled_engine.compile ~config ~workload:wl ~policy ())
  in
  let params =
    {
      Engine_core.seed = pt.Grid.seed;
      jitter = grid.Grid.jitter;
      reservation_depth = grid.Grid.reservation_depth;
    }
  in
  let ((r_c, words_c), comp_s), (_, comp_traced_s) =
    pair
      (fun () ->
        timed "runtime" "compiled emulation" (fun () ->
            minor_words (fun () -> Compiled_engine.run plan params)))
      (fun () ->
        timed "runtime" "compiled emulation, traced" (fun () ->
            Obs.reset obs;
            Compiled_engine.run ~obs plan params))
  in
  let events_c = Obs.Sink.total (Obs.sink obs) in
  let row, point_s =
    timed "explore" "Sweep.run_point" (fun () -> Sweep.run_point ~engine_kind:`Virtual grid pt)
  in
  let csv = Stats.records_csv in
  Measure.check m (p.label ^ ": tracing changed the virtual schedule") (csv r_v = csv r_vt);
  Measure.check m (p.label ^ ": compiled replay differs from virtual") (csv r_c = csv r_ref);
  if fault = None then
    Measure.check m (p.label ^ ": compiled and virtual event counts differ") (events = events_c);
  Measure.check m (p.label ^ ": sweep row differs from the emulation")
    (row.Sweep.makespan_ns = r_v.Stats.makespan_ns && row.Sweep.task_count = r_v.Stats.task_count);
  let ms s = s *. 1e3 in
  add "apps.workload_build_ms" (ms build_s);
  add "runtime.instantiate_ms" (ms inst_s);
  add "dsp.kernel_ms" (ms kernel_s);
  add "dsp.kernel_share" (kernel_s /. emu_s);
  add "runtime.virtual_emu_ms" (ms emu_s);
  add "runtime.virtual_loop_ms" (ms (emu_s -. kernel_s -. inst_s));
  add "runtime.compile_ms" (ms compile_s);
  add "runtime.compiled_emu_ms" (ms comp_s);
  add "runtime.events" (float_of_int events);
  add "runtime.ns_per_event.virtual" (emu_s *. 1e9 /. float_of_int (max 1 events));
  add "runtime.ns_per_event.compiled" (comp_s *. 1e9 /. float_of_int (max 1 events_c));
  add "runtime.minor_words.virtual" words_v;
  add "runtime.minor_words.compiled" words_c;
  add "runtime.tasks" (float_of_int r_v.Stats.task_count);
  add "runtime.sched_invocations" (float_of_int r_v.Stats.sched_invocations);
  add "obs.trace_overhead_pct.virtual" ((traced_s -. emu_s) /. emu_s *. 100.0);
  add "obs.trace_overhead_pct.compiled" ((comp_traced_s -. comp_s) /. comp_s *. 100.0);
  add "obs.analyze_ms" (ms analyze_s);
  add "explore.point_ms" (ms point_s);
  add "explore.row_overhead_ms" (ms (point_s -. traced_s -. analyze_s));
  add "soc.dma_streams" (float_of_int r_v.Stats.fabric.Stats.dma_streams);
  add "soc.fabric_stalls" (float_of_int r_v.Stats.fabric.Stats.fabric_stalls);
  add "fault.injected" (float_of_int r_v.Stats.resilience.Stats.faults_injected);
  add "fault.retries" (float_of_int r_v.Stats.resilience.Stats.task_retries)

(* Layers whose share of the traced pass is always reported, zero when
   a workload never calls into the layer. *)
let layers = [ "apps"; "dsp"; "runtime"; "obs"; "explore"; "serve" ]

(* Cycle [point k] for k = 0, 1, ... until [budget_s] is spent (at
   least one operation), then add each layer's share of the pass (its
   spans' self time over the pass's wall time) and write the spans as
   a Chrome trace to [trace_file]. *)
let pass m ~budget_s ~trace_file (point : int -> point) =
  let t = create m in
  let k = ref 0 in
  let (), wall_s =
    Harness.time (fun () ->
        ignore
          (Harness.sample ~budget_s
             [|
               (fun () ->
                 let p = point !k in
                 incr k;
                 snd
                   (Harness.time (fun () ->
                        ignore (Measure.attempt m ("traced " ^ p.label) (fun () -> op t p)))));
             |]))
  in
  let self = Spans.self_ms_by_layer t.spans in
  let share layer =
    Option.value ~default:0.0 (List.assoc_opt layer self) /. (wall_s *. 1e3)
  in
  List.iter
    (fun layer -> Measure.add m (layer ^ ".self_share") (share layer))
    (List.sort_uniq compare (layers @ List.map fst self));
  Measure.check m "per-layer self times exceed the traced pass"
    (List.fold_left (fun acc (_, ms) -> acc +. ms) 0.0 self <= (wall_s *. 1e3) +. 1e-6);
  Dssoc_json.Json.to_file trace_file (Spans.chrome_trace t.spans)
