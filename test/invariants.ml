(* Protocol invariants over one engine's own event log, for any engine:
   a check that holds without a second engine to compare against, so
   it covers the native engine's logs, whose timing no other engine
   can reproduce.  It reads the run's task-lifecycle events and the
   DAG of its instances:

   (i)   every task completes at most once, a task completes iff it is
         Done, and completions equal the report's records;
   (ii)  a task's completion follows its last dispatch, which follows
         its last ready;
   (iii) its last ready is no earlier than the completion of every DAG
         predecessor;
   (iv)  per PE, open dispatches never exceed 1 + reservation depth.  A
         dispatch is closed by the task's next completion, failure or
         ready (a dead PE's reservation queue drains back to the ready
         list); events are walked in timestamp order with completions
         and failures first on ties. *)

module Task = Dssoc_runtime.Task
module Stats = Dssoc_runtime.Stats
module App_spec = Dssoc_apps.App_spec
module Obs = Dssoc_obs.Obs

let check label ~depth ~(report : Stats.report) ~(instances : Task.instance array) obs =
  let fail fmt = Alcotest.failf ("%s: " ^^ fmt) label in
  let events = Obs.recorded_events obs in
  let last_ready = Hashtbl.create 64 and last_dispatch = Hashtbl.create 64 in
  let completed = Hashtbl.create 64 in
  List.iter
    (fun (e : Obs.event) ->
      match e.Obs.body with
      | Obs.Task_ready { task; _ } -> Hashtbl.replace last_ready task e.Obs.t_ns
      | Obs.Task_dispatched { task; _ } -> Hashtbl.replace last_dispatch task e.Obs.t_ns
      | Obs.Task_completed { task; _ } ->
        if Hashtbl.mem completed task then fail "task %d completed twice" task;
        Hashtbl.replace completed task e.Obs.t_ns
      | _ -> ())
    events;
  (* (i) *)
  if Hashtbl.length completed <> Stats.record_count report then
    fail "%d completions, %d records" (Hashtbl.length completed)
      (Stats.record_count report);
  let find tbl what (t : Task.t) =
    match Hashtbl.find_opt tbl t.Task.id with
    | Some ns -> ns
    | None -> fail "%s/%s (task %d) has no %s" t.Task.app_name t.Task.node.App_spec.node_name t.Task.id what
  in
  Array.iter
    (fun (inst : Task.instance) ->
      let by_name = Hashtbl.create 16 in
      Array.iter
        (fun (t : Task.t) -> Hashtbl.replace by_name t.Task.node.App_spec.node_name t)
        inst.Task.tasks;
      Array.iter
        (fun (t : Task.t) ->
          let name = t.Task.node.App_spec.node_name in
          match (t.Task.status = Task.Done, Hashtbl.mem completed t.Task.id) with
          | false, false -> ()
          | false, true -> fail "%s (task %d) completed but is not Done" name t.Task.id
          | true, false -> fail "%s (task %d) is Done but never completed" name t.Task.id
          | true, true ->
            (* (ii) *)
            let c = find completed "completion" t in
            let d = find last_dispatch "dispatch" t in
            let r = find last_ready "ready" t in
            if not (r <= d && d <= c) then
              fail "%s (task %d): ready %d, dispatch %d, completion %d" name t.Task.id r d c;
            (* (iii) *)
            List.iter
              (fun pred ->
                let p = Hashtbl.find by_name pred in
                let pc = find completed "completion" p in
                if r < pc then
                  fail "%s (task %d) ready at %d before predecessor %s completed at %d" name
                    t.Task.id r pred pc)
              t.Task.node.App_spec.predecessors)
        inst.Task.tasks)
    instances;
  (* (iv) *)
  let closing (e : Obs.event) =
    match e.Obs.body with Obs.Task_completed _ | Obs.Task_failed _ -> 0 | _ -> 1
  in
  let ordered =
    List.stable_sort
      (fun (a : Obs.event) (b : Obs.event) ->
        match Int.compare a.Obs.t_ns b.Obs.t_ns with 0 -> Int.compare (closing a) (closing b) | c -> c)
      events
  in
  let open_on = Hashtbl.create 64 and per_pe = Hashtbl.create 8 in
  let count pe = Option.value ~default:0 (Hashtbl.find_opt per_pe pe) in
  let close task =
    match Hashtbl.find_opt open_on task with
    | Some pe ->
      Hashtbl.remove open_on task;
      Hashtbl.replace per_pe pe (count pe - 1)
    | None -> ()
  in
  List.iter
    (fun (e : Obs.event) ->
      match e.Obs.body with
      | Obs.Task_dispatched { task; pe_index; _ } ->
        close task;
        Hashtbl.replace open_on task pe_index;
        let n = count pe_index + 1 in
        Hashtbl.replace per_pe pe_index n;
        if n > 1 + depth then
          fail "PE %d holds %d open dispatches at %d ns (depth %d)" pe_index n e.Obs.t_ns depth
      | Obs.Task_completed { task; _ } | Obs.Task_failed { task; _ } | Obs.Task_ready { task; _ } ->
        close task
      | _ -> ())
    ordered
