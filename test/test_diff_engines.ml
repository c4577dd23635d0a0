(* Differential tests between the emulation engines.

   The deterministic engine is the compiled integer-pc machine; the
   reference engine ([Virtual_engine], test-local) runs the direct-style
   [Engine_core] protocol over the same discrete-event substrate, and
   the pc machine must replay it exactly.  The native engine runs tasks
   on real OCaml domains under wall-clock time.  Against the
   deterministic engines its timings legitimately differ, but on small
   configurations where the scheduler has no real freedom the
   *decisions* must agree:
   Their timings legitimately differ, but on small configurations
   where the scheduler has no real freedom the *decisions* must agree:
   same task set, same per-task DAG ordering, same PE assignments and
   same functional outputs.  Makespans only have to land in a very
   coarse tolerance band — the virtual clock models the target SoC,
   the native clock measures this host. *)

module Task = Dssoc_runtime.Task
module Emulator = Dssoc_runtime.Emulator
module Stats = Dssoc_runtime.Stats
module Config = Dssoc_soc.Config
module App_spec = Dssoc_apps.App_spec
module Store = Dssoc_apps.Store
module Reference_apps = Dssoc_apps.Reference_apps
module Workload = Dssoc_apps.Workload
module Obs = Dssoc_obs.Obs
module Server = Dssoc_serve.Server
module Scheduler = Dssoc_runtime.Scheduler
module Engine_core = Dssoc_runtime.Engine_core

let policy_of name = Result.get_ok (Scheduler.find name)

(* A run of the reference engine, by default jitter-free with seed 1
   (the native comparisons' setting). *)
let reference ?(params = { Engine_core.seed = 1L; jitter = 0.0; reservation_depth = 0 }) ?obs
    ?fault ?(policy = "FRFS") ~config ~workload () =
  Virtual_engine.run_detailed ~params ?obs ?fault ~config ~workload ~policy:(policy_of policy) ()

let run_both config spec instances =
  let wl () = Workload.validation [ (spec, instances) ] in
  let vr, vi = reference ~config ~workload:(wl ()) () in
  let nr, ni =
    Result.get_ok (Emulator.run_detailed ~engine:Emulator.native_default ~config ~workload:(wl ()) ())
  in
  ((vr, vi), (nr, ni))

(* Completion order can differ between engines when several tasks run
   concurrently; compare records keyed by (instance, node) instead. *)
let by_task (r : Stats.report) =
  List.sort compare (List.map (fun (t : Stats.task_record) -> ((t.Stats.instance, t.Stats.node), t.Stats.pe)) r.Stats.records)

let check_counts (vr : Stats.report) (nr : Stats.report) =
  Alcotest.(check int) "job count agrees" vr.Stats.job_count nr.Stats.job_count;
  Alcotest.(check int) "task count agrees" vr.Stats.task_count nr.Stats.task_count;
  Alcotest.(check int) "record count agrees" (List.length vr.Stats.records)
    (List.length nr.Stats.records)

let check_makespan_band (vr : Stats.report) (nr : Stats.report) =
  (* Deliberately coarse: the two clocks measure different machines.
     The band still catches a hung engine (hours) or a no-op engine
     (zero / negative makespan). *)
  let ratio = float_of_int nr.Stats.makespan_ns /. float_of_int (max 1 vr.Stats.makespan_ns) in
  Alcotest.(check bool) "native makespan positive" true (nr.Stats.makespan_ns > 0);
  Alcotest.(check bool)
    (Printf.sprintf "makespan ratio %.3f within [1e-3, 1e3]" ratio)
    true
    (ratio > 1e-3 && ratio < 1e3)

let test_chain_parity () =
  (* wifi_tx is a linear chain: only one task is ever ready, so FRFS
     must make identical decisions in both engines — every task on the
     first CPU, in chain order. *)
  let config = Config.zcu102_cores_ffts ~cores:2 ~ffts:0 in
  let (vr, vi), (nr, ni) = run_both config (Reference_apps.wifi_tx ()) 1 in
  check_counts vr nr;
  let order (r : Stats.report) = List.map (fun (t : Stats.task_record) -> t.Stats.node) r.Stats.records in
  Alcotest.(check (list string)) "same completion order" (order vr) (order nr);
  Alcotest.(check bool) "same per-task PE assignments" true (by_task vr = by_task nr);
  List.iter
    (fun (t : Stats.task_record) ->
      Alcotest.(check string) (t.Stats.node ^ " on first cpu") "cpu0" t.Stats.pe)
    nr.Stats.records;
  check_makespan_band vr nr;
  (* functional outputs agree bit-for-bit *)
  Alcotest.(check bool) "same transmitted time-domain signal" true
    (Store.get_cbuf vi.(0).Task.store "tx_time" = Store.get_cbuf ni.(0).Task.store "tx_time")

let test_dag_parity_single_pe () =
  (* range_detection is a diamond DAG; on a single CPU both engines
     serialise it, and every linear extension they pick must respect
     the DAG.  With one PE and FRFS the ready-list evolution is fully
     determined, so the orders must also be identical. *)
  let config = Config.zcu102_cores_ffts ~cores:1 ~ffts:0 in
  let spec = Reference_apps.range_detection () in
  let (vr, vi), (nr, ni) = run_both config spec 1 in
  check_counts vr nr;
  let order (r : Stats.report) = List.map (fun (t : Stats.task_record) -> t.Stats.node) r.Stats.records in
  Alcotest.(check (list string)) "same serialisation" (order vr) (order nr);
  Alcotest.(check bool) "all on the single PE" true
    (List.for_all (fun (t : Stats.task_record) -> t.Stats.pe = "cpu0") nr.Stats.records);
  (* both serialisations are topological orders of the app DAG *)
  let check_topological (r : Stats.report) name =
    let position = List.mapi (fun i (t : Stats.task_record) -> (t.Stats.node, i)) r.Stats.records in
    List.iter
      (fun (n : App_spec.node) ->
        List.iter
          (fun pred ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: %s before %s" name pred n.App_spec.node_name)
              true
              (List.assoc pred position < List.assoc n.App_spec.node_name position))
          n.App_spec.predecessors)
      spec.App_spec.nodes
  in
  check_topological vr "virtual";
  check_topological nr "native";
  check_makespan_band vr nr;
  Alcotest.(check int) "same recovered lag" (Store.get_i32 vi.(0).Task.store "lag")
    (Store.get_i32 ni.(0).Task.store "lag")

let test_multi_instance_parity () =
  (* Two chain instances on one CPU: arrival order forces instance 0's
     chain to interleave deterministically ahead of instance 1 under
     FRFS in both engines. *)
  let config = Config.zcu102_cores_ffts ~cores:1 ~ffts:0 in
  let (vr, _), (nr, _) = run_both config (Reference_apps.wifi_tx ()) 2 in
  check_counts vr nr;
  Alcotest.(check bool) "same per-task PE assignments" true (by_task vr = by_task nr);
  let per_instance_order (r : Stats.report) inst =
    List.filter_map
      (fun (t : Stats.task_record) -> if t.Stats.instance = inst then Some t.Stats.node else None)
      r.Stats.records
  in
  let chain = [ "CRC"; "SCRAMBLE"; "ENCODE"; "INTERLEAVE"; "MODULATE"; "PILOT"; "IFFT" ] in
  List.iter
    (fun inst ->
      Alcotest.(check (list string))
        (Printf.sprintf "virtual instance %d follows the chain" inst)
        chain (per_instance_order vr inst);
      Alcotest.(check (list string))
        (Printf.sprintf "native instance %d follows the chain" inst)
        chain (per_instance_order nr inst))
    [ 0; 1 ]

(* ------------- functional-agreement matrix ------------- *)

(* Both engines run the same Engine_core protocol; what differs is
   timing (modelled vs measured).  Timing legitimately changes *which*
   PE a policy picks, so across the full matrix of reference apps x
   policies x reservation depths we do not compare assignments between
   engines — we assert what must hold regardless of timing: the same
   task population ran, every task completed on a PE that exists in
   the configuration and supports it, and the kernels computed
   identical output data (kernels are the same host closures on every
   PE, so outputs are assignment-independent). *)

let matrix_apps =
  [
    ("range_detection", Reference_apps.range_detection);
    ("wifi_tx", Reference_apps.wifi_tx);
    ("wifi_rx", Reference_apps.wifi_rx);
    ("pulse_doppler", Reference_apps.pulse_doppler);
  ]

let matrix_policies = [ "FRFS"; "MET"; "EFT"; "RANDOM"; "POWER" ]
let matrix_depths = [ 0; 2 ]

let check_stores_agree label (vi : Task.instance array) (ni : Task.instance array) =
  Alcotest.(check int) (label ^ ": same instance count") (Array.length vi) (Array.length ni);
  Array.iteri
    (fun i (v : Task.instance) ->
      let n = ni.(i) in
      List.iter
        (fun var ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: instance %d var %s agrees" label i var)
            true
            (Store.get_raw v.Task.store var = Store.get_raw n.Task.store var))
        (Store.names v.Task.store))
    vi

let check_assignments_valid label config (instances : Task.instance array) =
  let pes = Config.pes config in
  Array.iter
    (fun (inst : Task.instance) ->
      Array.iter
        (fun (t : Task.t) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s/%s done" label t.Task.app_name t.Task.node.App_spec.node_name)
            true (t.Task.status = Task.Done);
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s/%s ran on a supporting PE (%s)" label t.Task.app_name
               t.Task.node.App_spec.node_name t.Task.pe_label)
            true
            (List.exists
               (fun (pe : Dssoc_soc.Pe.t) ->
                 pe.Dssoc_soc.Pe.label = t.Task.pe_label && Task.supports t pe)
               pes))
        inst.Task.tasks)
    instances

let test_functional_agreement_matrix () =
  let config = Config.zcu102_cores_ffts ~cores:2 ~ffts:1 in
  List.iter
    (fun (app_name, spec_fn) ->
      List.iter
        (fun policy ->
          List.iter
            (fun depth ->
              let label = Printf.sprintf "%s/%s/depth%d" app_name policy depth in
              let wl () = Workload.validation [ (spec_fn (), 1) ] in
              let vr, vi =
                reference
                  ~params:{ Engine_core.seed = 1L; jitter = 0.0; reservation_depth = depth }
                  ~policy ~config ~workload:(wl ()) ()
              in
              let nr, ni =
                Result.get_ok
                  (Emulator.run_detailed
                     ~engine:(Emulator.native_seeded ~reservation_depth:depth 1L)
                     ~policy ~config ~workload:(wl ()) ())
              in
              check_counts vr nr;
              check_makespan_band vr nr;
              check_assignments_valid (label ^ "/virtual") config vi;
              check_assignments_valid (label ^ "/native") config ni;
              check_stores_agree label vi ni;
              Oracle.check (label ^ "/virtual") ~config vi)
            matrix_depths)
        matrix_policies)
    matrix_apps

(* ---------------- reservation queues (depth > 0) ---------------- *)

(* With reservation_depth > 0 the shared workload manager takes the
   batched-completion branch (handler capacity > 1 defers do_schedule
   until the monitoring sweep finishes).  Parity pins down that
   batching changes *when* the scheduler runs, never *what* it decides
   on constrained configurations. *)

let run_virtual_depth config spec instances depth =
  let wl = Workload.validation [ (spec, instances) ] in
  reference ~params:{ Engine_core.seed = 1L; jitter = 0.0; reservation_depth = depth } ~config
    ~workload:wl ()

let test_reservation_chain_parity () =
  (* Linear chain on two CPUs: one task ready at a time, so depth 1
     and 3 must produce the same assignments as the native engine. *)
  let config = Config.zcu102_cores_ffts ~cores:2 ~ffts:0 in
  let spec = Reference_apps.wifi_tx () in
  let (_, _), (nr, ni) = run_both config spec 1 in
  List.iter
    (fun depth ->
      let vr, vi = run_virtual_depth config spec 1 depth in
      check_counts vr nr;
      Alcotest.(check bool)
        (Printf.sprintf "depth %d: same per-task PE assignments" depth)
        true
        (by_task vr = by_task nr);
      Alcotest.(check bool)
        (Printf.sprintf "depth %d: batching exercised" depth)
        true
        (vr.Stats.sched_invocations > 0);
      check_makespan_band vr nr;
      Alcotest.(check bool)
        (Printf.sprintf "depth %d: same transmitted signal" depth)
        true
        (Store.get_cbuf vi.(0).Task.store "tx_time"
        = Store.get_cbuf ni.(0).Task.store "tx_time"))
    [ 1; 3 ]

let test_reservation_multi_instance_parity () =
  (* Two chain instances on one CPU: the reservation queue lets the WM
     pre-assign the next ready task behind the running one, but with a
     single PE the assignment target is forced, so per-task PEs and
     per-instance chain order must still agree with the native run. *)
  let config = Config.zcu102_cores_ffts ~cores:1 ~ffts:0 in
  let spec = Reference_apps.wifi_tx () in
  let (_, _), (nr, _) = run_both config spec 2 in
  let chain = [ "CRC"; "SCRAMBLE"; "ENCODE"; "INTERLEAVE"; "MODULATE"; "PILOT"; "IFFT" ] in
  List.iter
    (fun depth ->
      let vr, _ = run_virtual_depth config spec 2 depth in
      check_counts vr nr;
      Alcotest.(check bool)
        (Printf.sprintf "depth %d: same per-task PE assignments" depth)
        true
        (by_task vr = by_task nr);
      let per_instance_order inst =
        List.filter_map
          (fun (t : Stats.task_record) ->
            if t.Stats.instance = inst then Some t.Stats.node else None)
          vr.Stats.records
      in
      List.iter
        (fun inst ->
          Alcotest.(check (list string))
            (Printf.sprintf "depth %d: instance %d follows the chain" depth inst)
            chain (per_instance_order inst))
        [ 0; 1 ])
    [ 1; 3 ]

let test_reservation_fewer_invocations_same_decisions () =
  (* Depth 0 vs depth 2 on the same DAG and single PE: batched
     completions must reduce scheduler invocations without changing a
     single assignment. *)
  let config = Config.zcu102_cores_ffts ~cores:1 ~ffts:0 in
  let spec = Reference_apps.range_detection () in
  let vr0, vi0 = run_virtual_depth config spec 1 0 in
  let vr2, vi2 = run_virtual_depth config spec 1 2 in
  Alcotest.(check bool) "same per-task PE assignments" true (by_task vr0 = by_task vr2);
  Alcotest.(check bool) "depth 2 schedules no more often" true
    (vr2.Stats.sched_invocations <= vr0.Stats.sched_invocations);
  Alcotest.(check int) "same recovered lag" (Store.get_i32 vi0.(0).Task.store "lag")
    (Store.get_i32 vi2.(0).Task.store "lag")

let test_native_reservation_depth_differential () =
  (* The native engine now runs the same reservation queues as the
     virtual one.  Two chain instances on one CPU leave the scheduler
     no freedom, so depth 0 and depth 2 native runs must make the same
     decisions and compute the same signal — only dispatch batching
     may differ. *)
  let config = Config.zcu102_cores_ffts ~cores:1 ~ffts:0 in
  let spec = Reference_apps.wifi_tx () in
  let run depth =
    let wl = Workload.validation [ (spec, 2) ] in
    Result.get_ok
      (Emulator.run_detailed
         ~engine:(Emulator.native_seeded ~reservation_depth:depth 1L)
         ~config ~workload:wl ())
  in
  let nr0, ni0 = run 0 in
  let nr2, ni2 = run 2 in
  check_counts nr0 nr2;
  Alcotest.(check bool) "same per-task PE assignments" true (by_task nr0 = by_task nr2);
  let chain = [ "CRC"; "SCRAMBLE"; "ENCODE"; "INTERLEAVE"; "MODULATE"; "PILOT"; "IFFT" ] in
  let per_instance_order (r : Stats.report) inst =
    List.filter_map
      (fun (t : Stats.task_record) ->
        if t.Stats.instance = inst then Some t.Stats.node else None)
      r.Stats.records
  in
  List.iter
    (fun inst ->
      Alcotest.(check (list string))
        (Printf.sprintf "depth 0: instance %d follows the chain" inst)
        chain (per_instance_order nr0 inst);
      Alcotest.(check (list string))
        (Printf.sprintf "depth 2: instance %d follows the chain" inst)
        chain (per_instance_order nr2 inst))
    [ 0; 1 ];
  Alcotest.(check bool) "depth 2 schedules" true (nr2.Stats.sched_invocations > 0);
  List.iter
    (fun inst ->
      Alcotest.(check bool)
        (Printf.sprintf "instance %d: same transmitted signal" inst)
        true
        (Store.get_cbuf ni0.(inst).Task.store "tx_time"
        = Store.get_cbuf ni2.(inst).Task.store "tx_time"))
    [ 0; 1 ]

(* ---------------- fault differential ---------------- *)

module Fault = Dssoc_fault.Fault

(* Fault draws are keyed on (task, attempt) alone, and a die@0 rule
   fires proactively before anything is dispatched, so the fault
   schedule is engine-independent by construction: both engines must
   reach the same verdict with the same completed-task multiset and
   the same retry counts, for every policy.  (PE-targeted
   probabilistic rules would not give this — which attempts fail would
   still agree, but on which PE an attempt runs is timing.) *)

let fault_plan () =
  Result.get_ok (Fault.of_spec ~seed:5L "fft2:die@0,*:transient:p=0.1:recover=0.2ms")

let completed_multiset (r : Stats.report) =
  List.sort compare
    (List.map
       (fun (t : Stats.task_record) -> (t.Stats.app, t.Stats.instance, t.Stats.node))
       r.Stats.records)

let test_fault_parity_across_policies () =
  let config = Config.zcu102_cores_ffts ~cores:2 ~ffts:1 in
  let wl () =
    Workload.validation
      [ (Reference_apps.range_detection (), 1); (Reference_apps.wifi_tx (), 1) ]
  in
  List.iter
    (fun policy ->
      let label = "faults/" ^ policy in
      let vr, vi = reference ~policy ~fault:(fault_plan ()) ~config ~workload:(wl ()) () in
      let nr, ni =
        Result.get_ok
          (Emulator.run_detailed ~engine:Emulator.native_default ~policy
             ~fault:(fault_plan ()) ~config ~workload:(wl ()) ())
      in
      Alcotest.(check string)
        (label ^ ": virtual degraded")
        "degraded"
        (Stats.verdict_name vr.Stats.verdict);
      Alcotest.(check string)
        (label ^ ": same verdict")
        (Stats.verdict_name vr.Stats.verdict)
        (Stats.verdict_name nr.Stats.verdict);
      Alcotest.(check bool)
        (label ^ ": same completed-task multiset")
        true
        (completed_multiset vr = completed_multiset nr);
      Alcotest.(check int)
        (label ^ ": same retry count")
        vr.Stats.resilience.Stats.task_retries nr.Stats.resilience.Stats.task_retries;
      Alcotest.(check int)
        (label ^ ": same fault count")
        vr.Stats.resilience.Stats.faults_injected nr.Stats.resilience.Stats.faults_injected;
      Alcotest.(check int)
        (label ^ ": one death each")
        vr.Stats.resilience.Stats.pe_deaths nr.Stats.resilience.Stats.pe_deaths;
      check_assignments_valid (label ^ "/virtual") config vi;
      check_assignments_valid (label ^ "/native") config ni;
      List.iter
        (fun (r : Stats.report) ->
          List.iter
            (fun (t : Stats.task_record) ->
              Alcotest.(check bool) (label ^ ": dead PE executed nothing") true
                (t.Stats.pe <> "fft2"))
            r.Stats.records)
        [ vr; nr ];
      check_stores_agree label vi ni;
      Oracle.check (label ^ "/virtual") ~config vi)
    matrix_policies

(* An aborted run leaves instances part-done: their outputs are the
   kernels of the tasks that did complete, in topological order. *)
let test_aborted_fault_outputs () =
  let config = Config.zcu102_cores_ffts ~cores:2 ~ffts:1 in
  let fault =
    Result.get_ok (Fault.of_spec ~seed:5L "*:transient:p=0.3:recover=0.2ms,retries=2")
  in
  let r, insts =
    reference ~fault ~config
      ~workload:
        (Workload.validation
           [ (Reference_apps.wifi_tx (), 1); (Reference_apps.range_detection (), 1) ])
      ()
  in
  Alcotest.(check string) "aborted" "aborted" (Stats.verdict_name r.Stats.verdict);
  let done_ =
    Array.fold_left
      (fun acc (inst : Task.instance) ->
        Array.fold_left
          (fun acc (t : Task.t) -> if t.Task.status = Task.Done then acc + 1 else acc)
          acc inst.Task.tasks)
      0 insts
  in
  Alcotest.(check bool)
    (Printf.sprintf "part of the run completed (%d of %d tasks)" done_ r.Stats.task_count)
    true
    (done_ > 0 && done_ < r.Stats.task_count);
  Oracle.check "aborted" ~config insts

(* A resident service's run takes a fault plan like a batch run: a
   service that admits every instance on arrival and finishes once all
   have completed must leave every instance and every PE exactly where
   the batch run of the same plan does. *)
let test_service_under_fault_plan () =
  let module Compiled = Dssoc_runtime.Compiled_engine in
  let config = Config.zcu102_cores_ffts ~cores:2 ~ffts:1 in
  let wl () =
    Workload.validation
      [ (Reference_apps.range_detection (), 3); (Reference_apps.wifi_tx (), 2) ]
  in
  let fault =
    Result.get_ok (Fault.of_spec ~seed:9L "fft2:die@40us,*:transient:p=0.2:recover=0.1ms")
  in
  let params = { Engine_core.seed = 3L; jitter = 0.03; reservation_depth = 1 } in
  let plan = Compiled.compile ~config ~workload:(wl ()) ~policy:Scheduler.eft () in
  let batch, insts = Compiled.run_detailed ~fault plan params in
  let service (insts : Task.instance array) =
    let next = ref 0 and n = Array.length insts in
    {
      Compiled.sv_tick =
        (fun ops ~now ->
          let made = ref 0 in
          while !next < n && insts.(!next).Task.arrival_ns <= now do
            made := !made + ops.Compiled.so_inject insts.(!next);
            incr next
          done;
          !made);
      sv_next = (fun ~now:_ -> None);
      sv_finished = (fun ops ~now:_ -> ops.Compiled.so_completed () = n);
    }
  in
  let sr = Compiled.run_service ~fault plan params ~service in
  Alcotest.(check bool) "the plan struck" true (batch.Stats.resilience.Stats.task_retries > 0);
  Alcotest.(check (list int)) "instance completion times"
    (Array.to_list (Array.map (fun (i : Task.instance) -> i.Task.completed_at) insts))
    (Array.to_list
       (Array.map (fun (i : Task.instance) -> i.Task.completed_at) sr.Compiled.sr_instances));
  Alcotest.(check (list (pair int int))) "per-PE busy time and tasks run"
    (List.map
       (fun (u : Stats.pe_usage) -> (u.Stats.busy_ns, u.Stats.tasks_run))
       batch.Stats.pe_usage)
    (Array.to_list
       (Array.map
          (fun (h : Compiled.handler_snapshot) -> (h.Compiled.hs_busy_ns, h.Compiled.hs_tasks_run))
          sr.Compiled.sr_handlers))

(* ---------------- event-stream parity ---------------- *)

(* Timings, PE choices and event interleavings legitimately differ
   between the engines, but both run the same workload-manager
   protocol, so the task-lifecycle *multiset* — which (app, node,
   instance) triples were injected, became ready, were dispatched and
   completed — must be identical. *)

let lifecycle_multiset obs =
  List.filter_map
    (fun (e : Obs.event) ->
      match e.Obs.body with
      | Obs.Instance_injected { instance; app } -> Some ("injected", app, "", instance)
      | Obs.Task_ready { instance; app; node; _ } -> Some ("ready", app, node, instance)
      | Obs.Task_dispatched { instance; app; node; _ } -> Some ("dispatched", app, node, instance)
      | Obs.Task_completed { instance; app; node; _ } -> Some ("completed", app, node, instance)
      | _ -> None)
    (Obs.recorded_events obs)
  |> List.sort compare

let test_event_multiset_parity () =
  let config = Config.zcu102_cores_ffts ~cores:2 ~ffts:1 in
  let wl () =
    Workload.validation
      [ (Reference_apps.wifi_tx (), 1); (Reference_apps.range_detection (), 2) ]
  in
  let observe run =
    let obs = Obs.make ~sink:(Obs.Sink.ring ()) () in
    ignore (run ~obs);
    lifecycle_multiset obs
  in
  let vm = observe (fun ~obs -> reference ~obs ~config ~workload:(wl ()) ()) in
  let nm =
    observe (fun ~obs ->
        Result.get_ok
          (Emulator.run_detailed ~engine:(Emulator.native_seeded 1L) ~config ~workload:(wl ())
             ~obs ()))
  in
  Alcotest.(check bool) "non-trivial stream" true (List.length vm > 10);
  Alcotest.(check int) "same lifecycle event count" (List.length vm) (List.length nm);
  Alcotest.(check bool) "same task-event multiset" true (vm = nm);
  (* internal consistency: within each engine, every task that became
     ready was dispatched and completed exactly once *)
  let project kind m =
    List.filter_map (fun (k, app, node, inst) -> if k = kind then Some (app, node, inst) else None) m
  in
  List.iter
    (fun (name, m) ->
      Alcotest.(check bool) (name ^ ": ready = dispatched") true
        (project "ready" m = project "dispatched" m);
      Alcotest.(check bool) (name ^ ": ready = completed") true
        (project "ready" m = project "completed" m))
    [ ("virtual", vm); ("native", nm) ]

(* ---------------- compiled engine: exact replay ---------------- *)

(* The compiled engine's contract is stronger than the native one's:
   it must replay the reference engine *byte for byte* — same
   records_csv, same report, same final stores — for every policy, any
   reservation depth, any jitter and any fault plan.  The matrices
   below pin that contract on the reference mix, the fig9-style
   workload and a fig10 performance trace, and on three fault
   plans. *)

module Compiled = Dssoc_runtime.Compiled_engine
module Kernels = Dssoc_apps.Kernels
module Prng = Dssoc_util.Prng

let qtest = QCheck_alcotest.to_alcotest


(* Two policies outside the built-ins, which the compiled engine calls
   through their closures.  LIFO_TEST walks the window newest first,
   each task to the first idle PE that supports it, counting one op per
   PE examined.  HIGH_PE_TEST walks it oldest first, each task to the
   highest-indexed idle supporting PE or, on one PRNG draw in four, to
   the idle supporting PE with the earliest estimated finish; it counts
   every draw and every PE examined. *)
let lifo_policy =
  {
    Scheduler.name = "LIFO_TEST";
    schedule =
      (fun ctx ->
        let pes = ctx.Scheduler.pes in
        let out = ref [] in
        for j = ctx.Scheduler.nready - 1 downto 0 do
          let t = ctx.Scheduler.ready.(j) in
          let chosen = ref (-1) in
          Array.iteri
            (fun i st ->
              ctx.Scheduler.ops <- ctx.Scheduler.ops + 1;
              if !chosen < 0 && st.Scheduler.idle && Task.supports t st.Scheduler.pe then
                chosen := i)
            pes;
          if !chosen >= 0 then begin
            pes.(!chosen).Scheduler.idle <- false;
            out := { Scheduler.task = t; pe_index = !chosen } :: !out
          end
        done;
        List.rev !out);
  }

let high_pe_policy =
  {
    Scheduler.name = "HIGH_PE_TEST";
    schedule =
      (fun ctx ->
        let pes = ctx.Scheduler.pes in
        let out = ref [] in
        for j = 0 to ctx.Scheduler.nready - 1 do
          let t = ctx.Scheduler.ready.(j) in
          let by_finish = Prng.int ctx.Scheduler.prng 4 = 0 in
          ctx.Scheduler.ops <- ctx.Scheduler.ops + 1;
          let chosen = ref (-1) and best = ref max_int in
          for i = Array.length pes - 1 downto 0 do
            let st = pes.(i) in
            ctx.Scheduler.ops <- ctx.Scheduler.ops + 1;
            if st.Scheduler.idle && Task.supports t st.Scheduler.pe then
              if by_finish then begin
                let fin =
                  max ctx.Scheduler.now st.Scheduler.busy_until + ctx.Scheduler.estimate t i
                in
                if fin < !best then begin
                  best := fin;
                  chosen := i
                end
              end
              else if !chosen < 0 then chosen := i
          done;
          if !chosen >= 0 then begin
            pes.(!chosen).Scheduler.idle <- false;
            out := { Scheduler.task = t; pe_index = !chosen } :: !out
          end
        done;
        List.rev !out);
  }

let () = List.iter Scheduler.register [ lifo_policy; high_pe_policy ]
let custom_policies = [ "LIFO_TEST"; "HIGH_PE_TEST" ]

(* On divergence, show the first differing line rather than two
   multi-thousand-line blobs. *)
let check_lines_identical label what vtext ctext =
  if not (String.equal vtext ctext) then begin
    let vl = String.split_on_char '\n' vtext and cl = String.split_on_char '\n' ctext in
    let rec first i = function
      | a :: ta, b :: tb ->
        if String.equal a b then first (i + 1) (ta, tb)
        else Printf.sprintf "line %d: virtual %S vs compiled %S" i a b
      | a :: _, [] -> Printf.sprintf "line %d only in virtual: %S" i a
      | [], b :: _ -> Printf.sprintf "line %d only in compiled: %S" i b
      | [], [] -> "equal length, no differing line (?)"
    in
    Alcotest.failf "%s: %s diverges at %s" label what (first 0 (vl, cl))
  end

let check_csv_identical label vcsv ccsv = check_lines_identical label "records_csv" vcsv ccsv

let check_stores_identical label (vi : Task.instance array) (ci : Task.instance array) =
  Alcotest.(check int) (label ^ ": same instance count") (Array.length vi) (Array.length ci);
  Array.iteri
    (fun i (v : Task.instance) ->
      List.iter
        (fun var ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: instance %d var %s byte-identical" label i var)
            true
            (Bytes.equal (Store.get_raw v.Task.store var) (Store.get_raw ci.(i).Task.store var)))
        (Store.names v.Task.store))
    vi

let compiled_scenarios =
  [
    ( "reference-mix",
      (fun () -> Config.zcu102_cores_ffts ~cores:2 ~ffts:1),
      fun () ->
        Workload.validation
          [ (Reference_apps.range_detection (), 2); (Reference_apps.wifi_tx (), 2);
            (Reference_apps.wifi_rx (), 1) ] );
    ( "fig9-mix",
      (fun () -> Config.zcu102_cores_ffts ~cores:3 ~ffts:2),
      fun () ->
        Workload.validation
          [ (Reference_apps.pulse_doppler (), 1); (Reference_apps.range_detection (), 2);
            (Reference_apps.wifi_tx (), 2); (Reference_apps.wifi_rx (), 2) ] );
    ( "fig10-rate1.71",
      (fun () -> Config.zcu102_cores_ffts ~cores:3 ~ffts:2),
      fun () -> Workload.table2_workload ~rate:1.71 () );
  ]

let matrix_jitters = [ 0.0; 0.03 ]

let traced_obs () = Obs.make ~sink:(Obs.Sink.ring ()) ~metrics:(Obs.Metrics.create ()) ()

let metrics_text obs =
  match Obs.metrics obs with
  | Some m -> Format.asprintf "%a" Obs.Metrics.pp m
  | None -> ""

(* ---------------- fault plans: digests pinned before unification ---------------- *)

(* Three fault plans over the policy matrix: a planned death at 0 plus
   transients, the storm spec on a starved one-deep bus (retries whose
   stale ready-list entries revive), and a plan whose two-attempt budget
   aborts the run.  Each cell's records CSV, JSONL event log and
   [Metrics.pp] text are pinned to MD5s captured from the deterministic
   engine before fault plans moved onto the integer-pc machine, so the
   resilience bookkeeping the reference and the pc machine now share
   cannot drift by agreeing with itself. *)

let reference_mix () =
  Workload.validation
    [ (Reference_apps.range_detection (), 2); (Reference_apps.wifi_tx (), 2);
      (Reference_apps.wifi_rx (), 1) ]

let storm_mix () =
  Workload.validation
    [ (Reference_apps.pulse_doppler (), 1); (Reference_apps.range_detection (), 3);
      (Reference_apps.wifi_tx (), 3); (Reference_apps.wifi_rx (), 2) ]

let fault_cells =
  [
    ( "die0+transient",
      (fun () -> Config.zcu102_cores_ffts ~cores:2 ~ffts:1),
      reference_mix,
      Some ("fft2:die@0,*:transient:p=0.1:recover=0.2ms", 5L) );
    ( "storm",
      (fun () ->
        Config.with_fabric
          (Result.get_ok (Dssoc_soc.Fabric.of_spec "bus:bw=100MB/s,fifo=1"))
          (Config.zcu102_cores_ffts ~cores:2 ~ffts:2)),
      storm_mix,
      Some ("*:transient:p=0.05:recover=0.2ms,accel:dma:p=0.05,retries=6", 3L) );
    ( "abort",
      (fun () -> Config.zcu102_cores_ffts ~cores:2 ~ffts:1),
      reference_mix,
      Some ("*:transient:p=0.3:recover=0.2ms,retries=2", 5L) );
  ]

let fault_of = Option.map (fun (spec, seed) -> Result.get_ok (Fault.of_spec ~seed spec))
let md5 s = Digest.to_hex (Digest.string s)

let pinned_fault_digests =
  [
    ( "die0+transient/FRFS/depth0",
      "ee32584bc5145cceb0e8d2c9c9917075", "31a40f54e777837b9f046e447e7c7d61",
      "adb27747d6d8aa81d603fcfa60213c62" );
    ( "die0+transient/FRFS/depth2",
      "1641f4a86cf703450aea192ce393a295", "3af18007bfae0dbeea6493e70f4134c3",
      "5b5188afee05ac574b91de3963777cf4" );
    ( "die0+transient/MET/depth0",
      "6382cc9de042f3d9739fc379f795f322", "0b960eb6185e98607885768a2e163915",
      "34c769116b448e278b8d0d3b12f7871e" );
    ( "die0+transient/MET/depth2",
      "de1962aaf853a3548ef7000740e9ff52", "f914928924e154ea3550fb0bb8e144de",
      "fbd3d2efc2473c06931e10419b819053" );
    ( "die0+transient/EFT/depth0",
      "a5e685a756ff83d2d5692b7894390638", "3ffb6c5bfc20f23d7b0c6a106d77fae1",
      "59a937109f021ee156b7a63601d2a0b9" );
    ( "die0+transient/EFT/depth2",
      "b82af2f7397284cb503e05a84b3b1ea7", "3e509c52b9eb6b981bacf6f9020ca771",
      "01a8968542fca60a34149c08a9e0e842" );
    ( "die0+transient/RANDOM/depth0",
      "8568f2fe50e22895fbe13c7ae916780d", "629f0a745433170901d6c48ceb58d5bc",
      "9c35c983346779238893c4aa7e6af9d9" );
    ( "die0+transient/RANDOM/depth2",
      "9811fd2bb8f097d170af09b15ffa2296", "98e454aba53ac8ee38ead751c88e62ce",
      "7126bf184e0cac4c387a1e6041c12bd9" );
    ( "die0+transient/POWER/depth0",
      "6382cc9de042f3d9739fc379f795f322", "0b960eb6185e98607885768a2e163915",
      "34c769116b448e278b8d0d3b12f7871e" );
    ( "die0+transient/POWER/depth2",
      "de1962aaf853a3548ef7000740e9ff52", "f914928924e154ea3550fb0bb8e144de",
      "fbd3d2efc2473c06931e10419b819053" );
    ( "die0+transient/LIFO_TEST/depth0",
      "3731eab307c8d6fa56fee56a55dc6b39", "062170a638cfbb6a2fcaafacf6502856",
      "0f6e7f8a9967ea1fd5df46d614716631" );
    ( "die0+transient/LIFO_TEST/depth2",
      "b08d170caca7b672d9d7cdf56fbc0403", "9ea360a73cadd79420b22221fd8be119",
      "1cc508ee5bb9c6bec1dd9e7500586c4b" );
    ( "die0+transient/HIGH_PE_TEST/depth0",
      "6ba2fdedc23aa6bc11713ea46c629255", "6ab0a7b1d6120d02a84cef6d4b3ddde1",
      "8205c4f8ac9f7617968be9ec834103f5" );
    ( "die0+transient/HIGH_PE_TEST/depth2",
      "4a66559b361e8851c55778ee7eed08ef", "96fe4e4dfe073d4617487dacba06515e",
      "51b089bd73d25dd150af2cb9b5e3062e" );
    ( "storm/FRFS/depth0",
      "5d7def6367669efe2ad0fe264e9ec634", "5099b0085148f6c42ccfa6f75974e517",
      "203b0647d60cd28e7026893de2f21fc5" );
    ( "storm/FRFS/depth2",
      "e874a11dfb2d63dfc155dee75bd42fef", "849e6887d499db474d6ea4453a5f511b",
      "f12175db34515306689b17515892e133" );
    ( "storm/MET/depth0",
      "846674c43b7fa6f697f28de8b412741a", "4a186e3b8acc2b826add0c175956d652",
      "952b7ffd0c161b468b6f858b31106c06" );
    ( "storm/MET/depth2",
      "c15820ac8a7a809d37436ec227810168", "1182d72f943d9fc18fd56341a732e97a",
      "ff44ac5963c7b3acad65d04dd001b8dc" );
    ( "storm/EFT/depth0",
      "7b71a38e75caf90740538709b4af96ae", "325be23f223f961b814fbac635671bfb",
      "29de00c49f65608466a82d0b87370d17" );
    ( "storm/EFT/depth2",
      "11236daa61012842a5d9152c17d7cc80", "79fc5d7a41716a19e33d440b22d5b7b8",
      "5f9a1bee5a531daa622c3ccf12c7e285" );
    ( "storm/RANDOM/depth0",
      "15b5af1be01ca583e67945d2a3f920c5", "702389637b6d502da688ba6ec69c4b9d",
      "1d369ecdebeb0d437d2ee1f4480ba23c" );
    ( "storm/RANDOM/depth2",
      "8d423aaf798efb0f4b5f0335bd6fb778", "ccf2a7ae752f55a4c340ebcd7bfc8304",
      "5944188b6789d2ae67db3f4e684cbe8c" );
    ( "storm/POWER/depth0",
      "846674c43b7fa6f697f28de8b412741a", "4a186e3b8acc2b826add0c175956d652",
      "952b7ffd0c161b468b6f858b31106c06" );
    ( "storm/POWER/depth2",
      "c15820ac8a7a809d37436ec227810168", "1182d72f943d9fc18fd56341a732e97a",
      "ff44ac5963c7b3acad65d04dd001b8dc" );
    ( "storm/LIFO_TEST/depth0",
      "34ae19656f5488cc12c1a0d80225bd90", "30128c4ed23647950697064b46a9d3b9",
      "5ab6d1ac764744e9e9f272b23d2b4fa8" );
    ( "storm/LIFO_TEST/depth2",
      "7e5a44f81d31e4de3f37a5f548f23eff", "4067f02c9c47d2427c2efbeef0748e72",
      "d1bdc9d506bdfe41142e8bc4055433f1" );
    ( "storm/HIGH_PE_TEST/depth0",
      "b32f880911273e580ca68f8f08fb3101", "b23fa46668a470118bfa1e1c111915a4",
      "6b631a30e9ca316a04b96ccc5fc8b96d" );
    ( "storm/HIGH_PE_TEST/depth2",
      "dc92935e35bd9815b94828f33140c3d2", "07fd9e31f5e8f93ef4c67f38f6304203",
      "97e871b12a94e8ae8f4b9fd0eadc0c09" );
    ( "abort/FRFS/depth0",
      "3aadb211833fafc995223327d2850a5d", "c160849d4aaa58d9abd8903f1404db52",
      "f25559f2ccb765136000a286231c8392" );
    ( "abort/FRFS/depth2",
      "a6850f56e7615ac43797633ab7b19a04", "5545d0e87c72319abf9e91287fadf283",
      "f66f96cfc09be78db03c3558fa88546c" );
    ( "abort/MET/depth0",
      "53effba44ec6dd7b19e3c50a6f6a4772", "6d91ba3d1a1fea25ae56cce088824546",
      "cb8fb4bf8fe20ba261cf6c010bf8bba5" );
    ( "abort/MET/depth2",
      "ade49b2b635a29ee65fa2bd830ca8972", "b449db5e8493906013fab4c8158ec459",
      "e307e50a50a115ae5f4130ecac08af04" );
    ( "abort/EFT/depth0",
      "596b6bc9608ac3ca55f76d311fdcde0c", "8187d749430f790946bc781c09ef1e1d",
      "102d49002d9c89911d92ad0a6f06e0c2" );
    ( "abort/EFT/depth2",
      "f80d0c35dc1fd3adac152de24d6067b2", "bf4abcd5d93b78d04d0ea7fd100d4f19",
      "50981e66e4b2c7b147e40cf7ff648723" );
    ( "abort/RANDOM/depth0",
      "8a7215ed3d19fecafa486171ee015a36", "172da9944b27c1f653258a0a19ab2111",
      "8d6818462a18e90509111fe388901c80" );
    ( "abort/RANDOM/depth2",
      "bd608f914f4fcc6f91f10ba6cb78572a", "1912f52c0cbd1f230de5a51a7a527cd7",
      "b427ddea203a4736b909b982f4024d54" );
    ( "abort/POWER/depth0",
      "53effba44ec6dd7b19e3c50a6f6a4772", "6d91ba3d1a1fea25ae56cce088824546",
      "cb8fb4bf8fe20ba261cf6c010bf8bba5" );
    ( "abort/POWER/depth2",
      "ade49b2b635a29ee65fa2bd830ca8972", "b449db5e8493906013fab4c8158ec459",
      "e307e50a50a115ae5f4130ecac08af04" );
    ( "abort/LIFO_TEST/depth0",
      "a3c641ec0cb10c06aa1f5781c322b156", "7da61334dbda4dbd9fccce4ca38990cc",
      "0e39fa323506fe53bc30b6ccd2cbcb3d" );
    ( "abort/LIFO_TEST/depth2",
      "684dacaa8b00598f18f7e143e630bc80", "06f18c5de94f75a1f000894624a8fab8",
      "54e604aba3bf63d6bc30c185ead90e05" );
    ( "abort/HIGH_PE_TEST/depth0",
      "a2c9cfdd33fbcf19d8c1479695c3d531", "b58454f64fd3c0c559dc068a1b889b7b",
      "ab9a6d91135302f70555b17cba742649" );
    ( "abort/HIGH_PE_TEST/depth2",
      "cb5811cacd9e1286120229437b5e7192", "a961b0a46ee93d3a6bc55edaacc42b62",
      "38b94db50fe9b8f780aa15d3b6a5825b" );
  ]

let check_pinned_digests label (r : Stats.report) obs =
  match List.find_opt (fun (l, _, _, _) -> l = label) pinned_fault_digests with
  | None -> Alcotest.failf "%s: no pinned digests" label
  | Some (_, csv, jsonl, metrics) ->
    Alcotest.(check string) (label ^ ": records CSV digest") csv (md5 (Stats.records_csv r));
    Alcotest.(check string) (label ^ ": JSONL digest") jsonl
      (md5 (Obs.to_jsonl (Obs.recorded_events obs)));
    Alcotest.(check string) (label ^ ": Metrics.pp digest") metrics (md5 (metrics_text obs))


(* The replay matrices walk every cell: the fault-free scenarios at
   both jitters, then the fault cells at jitter 0.03, each over the
   policy matrix and both reservation depths. *)
let replay_cells =
  List.map (fun (scen, config_fn, wl_fn) -> (scen, config_fn, wl_fn, None)) compiled_scenarios
  @ fault_cells

let each_replay_cell f =
  List.iter
    (fun (scen, config_fn, wl_fn, fault) ->
      let config = config_fn () in
      List.iter
        (fun policy ->
          (* One plan per (scenario, policy): params and fault plans are
             run inputs, not compile inputs, so depth, jitter and the
             fault plan reuse the plan — the matrices double as a
             plan-reuse check. *)
          let plan = Compiled.compile ~config ~workload:(wl_fn ()) ~policy:(policy_of policy) () in
          List.iter
            (fun depth ->
              List.iter
                (fun jitter ->
                  let label =
                    match fault with
                    | None -> Printf.sprintf "%s/%s/depth%d/jitter%.2f" scen policy depth jitter
                    | Some _ -> Printf.sprintf "%s/%s/depth%d" scen policy depth
                  in
                  let params = { Engine_core.seed = 7L; jitter; reservation_depth = depth } in
                  f ~label ~config ~wl_fn ~policy ~plan ~params ~fault:(fault_of fault))
                (if fault = None then matrix_jitters else [ 0.03 ]))
            matrix_depths)
        (matrix_policies @ custom_policies))
    replay_cells

let check_same_run label ~config (vr, vi) (cr, ci) =
  check_csv_identical label (Stats.records_csv vr) (Stats.records_csv cr);
  Alcotest.(check int) (label ^ ": same makespan") vr.Stats.makespan_ns cr.Stats.makespan_ns;
  Alcotest.(check int) (label ^ ": same WM overhead") vr.Stats.wm_overhead_ns
    cr.Stats.wm_overhead_ns;
  Alcotest.(check (float 1e-9)) (label ^ ": same busy energy") (Stats.total_busy_energy_mj vr)
    (Stats.total_busy_energy_mj cr);
  Alcotest.(check (float 1e-9)) (label ^ ": same total energy") (Stats.total_energy_mj vr)
    (Stats.total_energy_mj cr);
  Alcotest.(check bool) (label ^ ": same report") true (vr = cr);
  check_stores_identical label vi ci;
  Oracle.check (label ^ "/virtual") ~config vi;
  Oracle.check (label ^ "/compiled") ~config ci

let test_compiled_exact_replay () =
  each_replay_cell (fun ~label ~config ~wl_fn ~policy ~plan ~params ~fault ->
      let vr, vi = reference ~params ?fault ~config ~workload:(wl_fn ()) ~policy () in
      let cr, ci = Compiled.run_detailed ?fault plan params in
      check_same_run label ~config (vr, vi) (cr, ci);
      if fault <> None then
        match List.find_opt (fun (l, _, _, _) -> l = label) pinned_fault_digests with
        | Some (_, csv, _, _) ->
          Alcotest.(check string) (label ^ ": records CSV digest") csv (md5 (Stats.records_csv cr))
        | None -> Alcotest.failf "%s: no pinned digests" label)

let test_compiled_plan_purity () =
  (* A plan is immutable apart from scratch buffers: compiling twice
     and interleaving runs (including runs under different params in
     between) must not change what any given (plan, params) pair
     produces. *)
  let config = Config.zcu102_cores_ffts ~cores:2 ~ffts:1 in
  let wl () =
    Workload.validation
      [ (Reference_apps.range_detection (), 2); (Reference_apps.wifi_tx (), 1) ]
  in
  let compile () = Compiled.compile ~config ~workload:(wl ()) ~policy:Scheduler.eft () in
  let p1 = compile () and p2 = compile () in
  let params = { Engine_core.seed = 3L; jitter = 0.03; reservation_depth = 1 } in
  let other = { Engine_core.seed = 9L; jitter = 0.01; reservation_depth = 0 } in
  let baseline = Stats.records_csv (Compiled.run p1 params) in
  Alcotest.(check string) "second plan replays the first" baseline
    (Stats.records_csv (Compiled.run p2 params));
  ignore (Compiled.run p1 other);
  ignore (Compiled.run p2 other);
  Alcotest.(check string) "plan 1 unchanged after interleaved runs" baseline
    (Stats.records_csv (Compiled.run p1 params));
  Alcotest.(check string) "plan 2 unchanged after interleaved runs" baseline
    (Stats.records_csv (Compiled.run p2 params))

(* ---------------- functional outputs: one image per closure assignment ---------------- *)

(* The reference apps register one closure per transform under both the
   CPU and the accelerator symbol, so [Functional] computes one image
   per archetype.  Compilation runs no kernel; the allocation bound
   still pins the SDR mix's compile cost (a kernel memo that compared
   two whole-store copies per pulse-Doppler FFT node once allocated
   about 800 MB per compile). *)
let test_compiled_compile_cost () =
  let config = Config.zcu102_cores_ffts ~cores:3 ~ffts:2 in
  let workload = Workload.validation (List.map (fun a -> (a, 1)) (Reference_apps.all ())) in
  List.iter
    (fun (cpu, accel) ->
      Alcotest.(check bool) (cpu ^ " and " ^ accel ^ " are one closure") true
        (Kernels.lookup_exn ~shared_object:"pulse_doppler.so" ~symbol:cpu
        == Kernels.lookup_exn ~shared_object:"fft_accel.so" ~symbol:accel))
    [ ("pd_FFT_0_CPU", "pd_FFT_0_ACCEL"); ("pd_IFFT_0_CPU", "pd_IFFT_0_ACCEL") ];
  let before = Gc.allocated_bytes () in
  ignore (Compiled.compile ~config ~workload ~policy:Scheduler.frfs ());
  let mb = (Gc.allocated_bytes () -. before) /. 1048576.0 in
  Alcotest.(check bool) (Printf.sprintf "SDR-mix compile allocates %.1f MB <= 64 MB" mb) true
    (mb <= 64.0)

(* Distinct CPU and accelerator closures for one node are supported:
   [Functional] runs one kernel chain per closure assignment (which
   closure each node ran, given its recorded PE), whether or not the
   closures happen to agree.  No reference app registers distinct
   closures any more, so a synthetic archetype does: a source, four
   parallel transforms with a CPU and an accelerator symbol each, and
   a sink. *)
let memo_calls = ref 0

let memo_ys = List.init 4 (Printf.sprintf "y%d")

let register_memo_object ~accel_offset =
  let xf dst offset store _args =
    incr memo_calls;
    Store.set_i32 store dst ((2 * Store.get_i32 store "x") + offset)
  in
  Kernels.register_object "memo_cpu.so"
    (("src", fun store _ -> Store.set_i32 store "x" 21)
     :: ("sum", fun store _ ->
            Store.set_i32 store "total"
              (List.fold_left (fun acc y -> acc + Store.get_i32 store y) 0 memo_ys))
     :: List.map (fun y -> ("xf_" ^ y, xf y 0)) memo_ys);
  Kernels.register_object "memo_accel.so"
    (List.map (fun y -> ("xf_" ^ y, xf y accel_offset)) memo_ys)

let memo_spec () =
  let i32 = { Store.bytes = 4; is_ptr = false; ptr_alloc_bytes = 0; init = [] } in
  let entry ?shared_object platform runfunc cost =
    { App_spec.platform; runfunc; shared_object; cost_us = Some cost }
  in
  let node name preds platforms =
    {
      App_spec.node_name = name;
      arguments = [];
      predecessors = preds;
      successors = [];
      platforms;
      kernel_class = "generic";
      size = 1;
      bytes_in = 0;
      bytes_out = 0;
    }
  in
  App_spec.of_edges ~app_name:"memo" ~shared_object:"memo_cpu.so"
    ~variables:(List.map (fun v -> (v, i32)) ("x" :: "total" :: memo_ys))
    ~nodes:
      ((node "src" [] [ entry "cpu" "src" 5.0 ]
        :: List.map
             (fun y ->
               node ("xf_" ^ y) [ "src" ]
                 [ entry "cpu" ("xf_" ^ y) 40.0;
                   entry ~shared_object:"memo_accel.so" "fft" ("xf_" ^ y) 10.0 ])
             memo_ys)
      @ [ node "sum" (List.map (( ^ ) "xf_") memo_ys) [ entry "cpu" "sum" 5.0 ] ])

let test_compiled_memo_distinct_closures () =
  let config = Config.zcu102_cores_ffts ~cores:2 ~ffts:1 in
  let params = { Engine_core.seed = 5L; jitter = 0.02; reservation_depth = 0 } in
  List.iter
    (fun (case, accel_offset) ->
      register_memo_object ~accel_offset;
      let accel_totals = ref 0 in
      List.iter
        (fun policy ->
          let label = Printf.sprintf "%s/%s" case policy in
          let wl () = Workload.validation [ (memo_spec (), 3) ] in
          memo_calls := 0;
          let plan = Compiled.compile ~config ~workload:(wl ()) ~policy:(policy_of policy) () in
          Alcotest.(check int) (label ^ ": compile runs no kernel") 0 !memo_calls;
          let cr, ci = Compiled.run_detailed plan params in
          let run_calls = !memo_calls in
          let vr, vi = reference ~params ~policy ~config ~workload:(wl ()) () in
          check_csv_identical label (Stats.records_csv vr) (Stats.records_csv cr);
          check_stores_identical label vi ci;
          Oracle.check (label ^ "/virtual") ~config vi;
          Oracle.check (label ^ "/compiled") ~config ci;
          (* One chain (four transforms) per distinct assignment of the
             transforms to CPU or accelerator closures. *)
          let assignments =
            List.sort_uniq compare
              (Array.to_list
                 (Array.map
                    (fun (inst : Task.instance) ->
                      Array.to_list
                        (Array.map
                           (fun (t : Task.t) ->
                             List.exists
                               (fun (pe : Dssoc_soc.Pe.t) ->
                                 pe.Dssoc_soc.Pe.label = t.Task.pe_label
                                 && not (Dssoc_soc.Pe.is_cpu pe.Dssoc_soc.Pe.kind))
                               (Config.pes config))
                           inst.Task.tasks))
                    ci))
          in
          Alcotest.(check int) (label ^ ": one chain per closure assignment")
            (4 * List.length assignments) run_calls;
          Array.iter
            (fun (inst : Task.instance) ->
              if Store.get_i32 inst.Task.store "total" <> 4 * 42 then incr accel_totals)
            ci)
        matrix_policies;
      (* Non-vacuous: in the divergent case some instance's store shows
         the accelerator's output. *)
      Alcotest.(check bool) (case ^ ": accelerator outputs visible") (accel_offset <> 0)
        (!accel_totals > 0))
    [ ("equal outputs", 0); ("different outputs", 1) ]

(* ---------------- deterministic output semantics ---------------- *)

let () =
  Kernels.register_object "racy.so"
    [
      ("noop", fun _ _ -> ());
      ("set1", fun store _ -> Store.set_i32 store "x" 1);
      ("set2", fun store _ -> Store.set_i32 store "x" 2);
    ]

let racy_node name preds platforms ~bytes_in =
  {
    App_spec.node_name = name;
    arguments = [ "x" ];
    predecessors = preds;
    successors = [];
    platforms =
      List.map
        (fun (platform, runfunc) ->
          { App_spec.platform; runfunc; shared_object = None; cost_us = None })
        platforms;
    kernel_class = "generic";
    size = 1;
    bytes_in;
    bytes_out = 0;
  }

let racy_spec ~app_name nodes =
  App_spec.of_edges ~app_name ~shared_object:"racy.so"
    ~variables:[ ("x", { Store.bytes = 4; is_ptr = false; ptr_alloc_bytes = 0; init = [] }) ]
    ~nodes

(* [a] and [b] both write [x] and no path joins them: src -> mid -> b
   on a CPU, src -> a on the FFT behind a long DMA-in.  In dispatch
   order [a] finishes last, but the deterministic engines define the
   outputs by topological order (src, mid, a, b), so both must give
   x = 2 whatever the schedule. *)
let test_racy_dag_topological_order () =
  let config = Config.zcu102_cores_ffts ~cores:2 ~ffts:1 in
  let spec () =
    racy_spec ~app_name:"racy"
      [
        racy_node "src" [] [ ("cpu", "noop") ] ~bytes_in:0;
        racy_node "mid" [ "src" ] [ ("cpu", "noop") ] ~bytes_in:0;
        racy_node "b" [ "mid" ] [ ("cpu", "set2") ] ~bytes_in:0;
        racy_node "a" [ "src" ] [ ("fft", "set1") ] ~bytes_in:(1 lsl 20);
      ]
  in
  let wl () = Workload.validation [ (spec (), 1) ] in
  let params = { Engine_core.seed = 1L; jitter = 0.0; reservation_depth = 0 } in
  let _, vi = reference ~params ~config ~workload:(wl ()) () in
  let plan = Compiled.compile ~config ~workload:(wl ()) ~policy:Scheduler.frfs () in
  let _, ci = Compiled.run_detailed plan params in
  check_stores_identical "racy" vi ci;
  Oracle.check "racy" ~config vi;
  Alcotest.(check int) "x follows topological order" 2 (Store.get_i32 vi.(0).Task.store "x")

(* A symbol the registry lacks fails the run up front with the same
   error on every engine — including on a PE the schedule never uses,
   and on the native engine, whose resource-manager domain used to die
   on it while the workload manager spun forever. *)
let test_missing_kernel engine () =
  let cases =
    [
      ( "only PE",
        Config.zcu102_cores_ffts ~cores:1 ~ffts:0,
        racy_spec ~app_name:"missing_cpu" [ racy_node "only" [] [ ("cpu", "nope") ] ~bytes_in:0 ] );
      ( "unused PE",
        Config.zcu102_cores_ffts ~cores:2 ~ffts:1,
        racy_spec ~app_name:"missing_fft"
          [ racy_node "only" [] [ ("cpu", "noop"); ("fft", "nope") ] ~bytes_in:0 ] );
    ]
  in
  List.iter
    (fun (case, config, spec) ->
      match Emulator.run ~engine ~config ~workload:(Workload.validation [ (spec, 2) ]) () with
      | Error msg ->
        Alcotest.(check string) case
          {|Exec_model.resolve_kernel: symbol "nope" not found in "racy.so"|} msg
      | Ok _ -> Alcotest.failf "%s: ran with a missing kernel" case)
    cases

(* Only [run_detailed] reads stores.  A report-only reference run and a
   service run give every instance one shared, empty placeholder;
   [run_detailed] gives each instance a store of its own, filled as the
   oracle says. *)
let test_placeholder_stores () =
  let config = Config.zcu102_cores_ffts ~cores:2 ~ffts:1 in
  let wl () =
    Workload.validation [ (Reference_apps.range_detection (), 3); (Reference_apps.wifi_tx (), 2) ]
  in
  let params = { Engine_core.seed = 1L; jitter = 0.0; reservation_depth = 0 } in
  let shared label = function
    | [] -> Alcotest.failf "%s: no stores seen" label
    | s :: rest ->
      Alcotest.(check bool) (label ^ ": one store") true (List.for_all (( == ) s) rest);
      Alcotest.(check (list string)) (label ^ ": the placeholder is empty") [] (Store.names s)
  in
  (* A report-only run returns no instances, but its policy sees them. *)
  let seen = ref [] in
  let spy =
    {
      Scheduler.name = "FRFS";
      schedule =
        (fun ctx ->
          for j = 0 to ctx.Scheduler.nready - 1 do
            seen := ctx.Scheduler.ready.(j).Task.store :: !seen
          done;
          Scheduler.frfs.Scheduler.schedule ctx);
    }
  in
  ignore (Virtual_engine.run ~params ~config ~workload:(wl ()) ~policy:spy ());
  shared "report-only run" !seen;
  let service (insts : Task.instance array) =
    let next = ref 0 in
    let n = Array.length insts in
    {
      Compiled.sv_tick =
        (fun ops ~now ->
          let made = ref 0 in
          while !next < n && insts.(!next).Task.arrival_ns <= now do
            made := !made + ops.Compiled.so_inject insts.(!next);
            incr next
          done;
          !made);
      sv_next = (fun ~now:_ -> None);
      sv_finished =
        (fun ops ~now:_ ->
          !next = n && ops.Compiled.so_ready_live () = 0 && ops.Compiled.so_inflight () = 0);
    }
  in
  let plan = Compiled.compile ~config ~workload:(wl ()) ~policy:Scheduler.frfs () in
  let sr = Compiled.run_service plan params ~service in
  let served = sr.Compiled.sr_instances in
  Alcotest.(check bool) "service run completes every instance" true
    (Array.for_all (fun (i : Task.instance) -> i.Task.completed_at >= 0) served);
  shared "service run" (Array.to_list (Array.map (fun (i : Task.instance) -> i.Task.store) served));
  let _, detailed =
    Virtual_engine.run_detailed ~params ~config ~workload:(wl ()) ~policy:Scheduler.frfs ()
  in
  Array.iteri
    (fun i (a : Task.instance) ->
      Array.iteri
        (fun j (b : Task.instance) ->
          if i < j then
            Alcotest.(check bool) "run_detailed: a store per instance" true (a.Task.store != b.Task.store))
        detailed)
    detailed;
  Oracle.check "run_detailed" ~config detailed

(* ---------------- compiled engine: observability lowering ---------------- *)

module Analyze = Dssoc_obs.Analyze

(* The lowered hooks must make a traced compiled run indistinguishable
   from a traced reference run: same event stream (byte-for-byte as
   JSONL), same metrics registry contents and registration order, on
   top of the untraced exact-replay contract. *)
let test_compiled_obs_parity () =
  each_replay_cell (fun ~label ~config ~wl_fn ~policy ~plan ~params ~fault ->
      let vobs = traced_obs () and cobs = traced_obs () in
      let vr, vi = reference ~params ~obs:vobs ?fault ~config ~workload:(wl_fn ()) ~policy () in
      let cr, ci = Compiled.run_detailed ~obs:cobs ?fault plan params in
      check_lines_identical label "event JSONL"
        (Obs.to_jsonl (Obs.recorded_events vobs))
        (Obs.to_jsonl (Obs.recorded_events cobs));
      check_lines_identical label "metrics" (metrics_text vobs) (metrics_text cobs);
      check_same_run label ~config (vr, vi) (cr, ci);
      match fault with
      | None ->
        (* and the shared analytics layer sees the same run *)
        let cp = Analyze.critical_path (Analyze.of_events (Obs.recorded_events cobs)) in
        Alcotest.(check int) (label ^ ": crit path = makespan") cr.Stats.makespan_ns
          cp.Analyze.cp_length_ns
      | Some _ -> check_pinned_digests label cr cobs)

(* ---------------- compiled engine: random-DAG properties ---------------- *)

(* The reference apps exercise a handful of DAG shapes; the properties
   below throw randomly wired DAGs at the compiler so the CSR
   adjacency lowering, the ready bookkeeping and the policy loops are
   checked on shapes nobody hand-picked. *)

let () =
  Kernels.register_object "qdag.so"
    [
      ( "bump",
        fun store args ->
          (* One shared accumulator: every node execution adds its
             first argument's length-independent constant, so the
             final store is a function of *which* tasks ran, not of
             scheduling order. *)
          ignore args;
          Store.set_i32 store "acc" (Store.get_i32 store "acc" + 1) );
    ]

(* Deterministically derive a random DAG from [seed]: n nodes, each
   wired to a random subset of its predecessors (guaranteeing at least
   one edge from the previous node half the time), each supported on
   cpu and — with probability 1/2 — also on the FFT accelerator. *)
let random_dag seed =
  let prng = Prng.create ~seed:(Int64.of_int (0x5EED + seed)) in
  let n = 3 + Prng.int prng 8 in
  let nodes =
    List.init n (fun i ->
        let preds =
          List.filteri (fun j _ -> j < i && Prng.bool prng) (List.init n (fun j -> j))
          |> List.map (Printf.sprintf "n%d")
        in
        let preds =
          if i > 0 && preds = [] && Prng.bool prng then [ Printf.sprintf "n%d" (i - 1) ]
          else preds
        in
        let platforms =
          { App_spec.platform = "cpu"; runfunc = "bump"; shared_object = None; cost_us = None }
          ::
          (if Prng.bool prng then
             [ { App_spec.platform = "fft"; runfunc = "bump"; shared_object = None;
                 cost_us = None } ]
           else [])
        in
        {
          App_spec.node_name = Printf.sprintf "n%d" i;
          arguments = [ "acc" ];
          predecessors = preds;
          successors = [];
          platforms;
          kernel_class = "generic";
          size = 1 + Prng.int prng 64;
          bytes_in = 0;
          bytes_out = 0;
        })
  in
  App_spec.of_edges ~app_name:(Printf.sprintf "qdag%d" seed) ~shared_object:"qdag.so"
    ~variables:[ ("acc", { Store.bytes = 4; is_ptr = false; ptr_alloc_bytes = 0; init = [] }) ]
    ~nodes

let qcheck_compiled_respects_adjacency =
  QCheck.Test.make ~name:"compiled run respects random-DAG adjacency" ~count:30
    QCheck.(make Gen.(int_range 0 10_000))
    (fun seed ->
      let spec = random_dag seed in
      let config = Config.zcu102_cores_ffts ~cores:2 ~ffts:1 in
      let plan =
        Compiled.compile ~config
          ~workload:(Workload.validation [ (spec, 2) ])
          ~policy:Scheduler.frfs ()
      in
      let r, insts =
        Compiled.run_detailed plan { Engine_core.seed = 1L; jitter = 0.0; reservation_depth = 0 }
      in
      (* every task completed exactly once... *)
      let n = List.length spec.App_spec.nodes in
      if List.length r.Stats.records <> 2 * n then
        QCheck.Test.fail_reportf "expected %d records, got %d" (2 * n)
          (List.length r.Stats.records);
      (* ...the kernel ran once per task (adjacency lost no node)... *)
      Array.iter
        (fun (inst : Task.instance) ->
          if Store.get_i32 inst.Task.store "acc" <> n then
            QCheck.Test.fail_reportf "instance ran %d of %d kernels"
              (Store.get_i32 inst.Task.store "acc") n)
        insts;
      (* ...and no task was dispatched before all its predecessors
         completed: the CSR lowering round-trips the DAG. *)
      let completed = Hashtbl.create 16 in
      List.iter
        (fun (t : Stats.task_record) ->
          Hashtbl.replace completed (t.Stats.instance, t.Stats.node) t.Stats.completed_ns)
        r.Stats.records;
      List.for_all
        (fun (t : Stats.task_record) ->
          let node = App_spec.node spec t.Stats.node in
          List.for_all
            (fun pred ->
              match Hashtbl.find_opt completed (t.Stats.instance, pred) with
              | Some c -> c <= t.Stats.dispatched_ns
              | None -> false)
            node.App_spec.predecessors)
        r.Stats.records)

let qcheck_compiled_replays_virtual =
  QCheck.Test.make ~name:"compiled replays virtual on random DAGs" ~count:30
    QCheck.(make Gen.(pair (int_range 0 10_000) (pair (int_range 0 4) (int_range 0 2))))
    (fun (seed, (policy_ix, depth)) ->
      let spec = random_dag seed in
      let config = Config.zcu102_cores_ffts ~cores:2 ~ffts:1 in
      let policy = List.nth matrix_policies policy_ix in
      let wl () = Workload.validation [ (spec, 2) ] in
      let params =
        { Engine_core.seed = Int64.of_int (seed + 1); jitter = 0.03; reservation_depth = depth }
      in
      let vr, _ = reference ~params ~policy ~config ~workload:(wl ()) () in
      let plan =
        Compiled.compile ~config ~workload:(wl ()) ~policy:(policy_of policy) ()
      in
      let cr = Compiled.run plan params in
      if not (String.equal (Stats.records_csv vr) (Stats.records_csv cr)) then
        QCheck.Test.fail_reportf "records diverge for seed %d policy %s depth %d" seed policy
          depth;
      vr.Stats.makespan_ns = cr.Stats.makespan_ns && completed_multiset vr = completed_multiset cr)

let qcheck_crit_path_equals_makespan =
  (* The critical path's gaps and services partition [0, makespan] for
     any realized schedule — pinned on random DAGs through both
     engines, whose traced streams must also agree byte-for-byte. *)
  QCheck.Test.make ~name:"critical-path length = makespan on random DAGs (both engines)"
    ~count:30
    QCheck.(make Gen.(pair (int_range 0 10_000) (pair (int_range 0 4) (int_range 0 2))))
    (fun (seed, (policy_ix, depth)) ->
      let spec = random_dag seed in
      let config = Config.zcu102_cores_ffts ~cores:2 ~ffts:1 in
      let policy = List.nth matrix_policies policy_ix in
      let wl () = Workload.validation [ (spec, 2) ] in
      let params =
        { Engine_core.seed = Int64.of_int (seed + 1); jitter = 0.03; reservation_depth = depth }
      in
      let vobs = traced_obs () and cobs = traced_obs () in
      let vr, _ = reference ~params ~policy ~obs:vobs ~config ~workload:(wl ()) () in
      let plan = Compiled.compile ~config ~workload:(wl ()) ~policy:(policy_of policy) () in
      let cr = Compiled.run ~obs:cobs plan params in
      let cp_len obs =
        (Analyze.critical_path (Analyze.of_events (Obs.recorded_events obs))).Analyze.cp_length_ns
      in
      if cp_len vobs <> vr.Stats.makespan_ns then
        QCheck.Test.fail_reportf "virtual: crit path %d <> makespan %d (seed %d %s depth %d)"
          (cp_len vobs) vr.Stats.makespan_ns seed policy depth;
      if cp_len cobs <> cr.Stats.makespan_ns then
        QCheck.Test.fail_reportf "compiled: crit path %d <> makespan %d (seed %d %s depth %d)"
          (cp_len cobs) cr.Stats.makespan_ns seed policy depth;
      String.equal
        (Obs.to_jsonl (Obs.recorded_events vobs))
        (Obs.to_jsonl (Obs.recorded_events cobs)))

(* Random DAGs under random fault plans: planned deaths at 0 and
   mid-run (a dead PE's reservation queue drains), transients, DMA
   errors, hangs, slowdowns and an aborting budget, over every policy
   and depths 0-2.  The pc machine must replay the reference's records,
   report and event log byte for byte. *)
let random_fault_specs =
  [|
    "fft2:die@0,*:transient:p=0.2:recover=0.1ms";
    "fft2:die@60us,cpu1:die@150us,*:transient:p=0.1:recover=0.05ms";
    "accel:dma:p=0.3:recover=50us,cpu:hang:p=0.1:recover=0.1ms";
    "*:slow:p=0.3:factor=3,*:transient:p=0.1:recover=20us";
    "*:transient:p=0.4:recover=0.1ms,retries=2";
  |]

let qcheck_faulted_replay =
  QCheck.Test.make ~name:"random DAGs x fault plans" ~count:60
    QCheck.(
      make
        Gen.(
          pair (int_range 0 10_000)
            (triple (int_range 0 (List.length (matrix_policies @ custom_policies) - 1))
               (int_range 0 2)
               (int_range 0 (Array.length random_fault_specs - 1)))))
    (fun (seed, (policy_ix, depth, spec_ix)) ->
      let spec = random_dag seed in
      let config = Config.zcu102_cores_ffts ~cores:2 ~ffts:1 in
      let policy = List.nth (matrix_policies @ custom_policies) policy_ix in
      let wl () = Workload.validation [ (spec, 3) ] in
      let fault =
        Result.get_ok (Fault.of_spec ~seed:(Int64.of_int seed) random_fault_specs.(spec_ix))
      in
      let params =
        { Engine_core.seed = Int64.of_int (seed + 1); jitter = 0.03; reservation_depth = depth }
      in
      let vobs = traced_obs () and cobs = traced_obs () in
      let vr, _ = reference ~params ~obs:vobs ~fault ~config ~workload:(wl ()) ~policy () in
      let plan = Compiled.compile ~config ~workload:(wl ()) ~policy:(policy_of policy) () in
      let cr = Compiled.run ~obs:cobs ~fault plan params in
      let same what a b =
        if not (String.equal a b) then
          QCheck.Test.fail_reportf "%s diverges for seed %d policy %s depth %d plan %S" what
            seed policy depth random_fault_specs.(spec_ix)
      in
      same "records" (Stats.records_csv vr) (Stats.records_csv cr);
      same "event log"
        (Obs.to_jsonl (Obs.recorded_events vobs))
        (Obs.to_jsonl (Obs.recorded_events cobs));
      same "metrics" (metrics_text vobs) (metrics_text cobs);
      vr = cr)

(* A custom policy's unusable assignments are dropped, not committed.
   BAD_TEST answers FRFS's assignments, then FRFS's first task again, a
   task on a PE that cannot run it and one on a PE that does not exist.
   Every task must still run exactly once, identically on both
   engines. *)
let test_custom_policy_bad_assignments () =
  let extras = ref 0 in
  let bad =
    {
      Scheduler.name = "BAD_TEST";
      schedule =
        (fun ctx ->
          let pes = ctx.Scheduler.pes in
          match Scheduler.frfs.Scheduler.schedule ctx with
          | [] -> []
          | first :: _ as good ->
            let unsupported = ref [] in
            for j = 0 to ctx.Scheduler.nready - 1 do
              let t = ctx.Scheduler.ready.(j) in
              Array.iteri
                (fun i st ->
                  if !unsupported = [] && not (Task.supports t st.Scheduler.pe) then
                    unsupported := [ { Scheduler.task = t; pe_index = i } ])
                pes
            done;
            if !unsupported <> [] then incr extras;
            good
            @ [ first; { first with Scheduler.pe_index = Array.length pes } ]
            @ !unsupported);
    }
  in
  Scheduler.register bad;
  let config = Config.zcu102_cores_ffts ~cores:2 ~ffts:1 in
  let wl () =
    Workload.validation
      [ (Reference_apps.range_detection (), 3); (Reference_apps.wifi_tx (), 2);
        (Reference_apps.pulse_doppler (), 1) ]
  in
  let tasks = Array.fold_left (fun n (it : Task.instance) -> n + Array.length it.Task.tasks) 0 in
  let run engine =
    Result.get_ok (Emulator.run_detailed ~engine ~policy:"BAD_TEST" ~config ~workload:(wl ()) ())
  in
  let params = { Engine_core.seed = 5L; jitter = 0.03; reservation_depth = 0 } in
  let vr, vi = reference ~params ~policy:"BAD_TEST" ~config ~workload:(wl ()) () in
  let cr, ci = run (Emulator.Compiled params) in
  Alcotest.(check bool) "the policy made unsupported assignments" true (!extras > 0);
  List.iter
    (fun (label, (r : Stats.report), insts) ->
      let keys =
        List.map (fun (x : Stats.task_record) -> (x.Stats.instance, x.Stats.node)) r.Stats.records
      in
      Alcotest.(check int) (label ^ ": every task ran") (tasks insts) (List.length keys);
      Alcotest.(check int) (label ^ ": no task ran twice") (List.length keys)
        (List.length (List.sort_uniq compare keys));
      Alcotest.(check bool) (label ^ ": completed") true (r.Stats.verdict = Stats.Completed);
      Oracle.check label ~config insts)
    [ ("virtual", vr, vi); ("compiled", cr, ci) ];
  check_csv_identical "bad assignments" (Stats.records_csv vr) (Stats.records_csv cr);
  Alcotest.(check bool) "same report" true (vr = cr)

(* A resident server with a custom policy runs on the compiled engine's
   closure call; its report is pinned byte for byte. *)
let golden_custom_server =
  {|serve report: clock 8.573 ms, 2 tenants
tenant           prio  offered  admitted  completed  shed  timeout  thr/ms  p95_ms  slo_ms  slo_miss  verdict       digest
gold                1       48        48         41     0        7   4.782   1.142   3.000         0  timeout       d68aa67829e77a20aa7644b2a403d424
bulk                0       64        64         52     0       12   6.066   1.324   5.000         0  timeout       b6583cf1fdc4267d255429ab5f9719ee
total: offered 112, admitted 112, completed 93, shed 0, timed-out 19
|}

let test_custom_policy_server () =
  let ok = function Ok x -> x | Error e -> failwith e in
  let spec =
    {
      Server.sp_config = Config.zcu102_cores_ffts ~cores:3 ~ffts:1;
      sp_policy = lifo_policy;
      sp_seed = 7L;
      sp_jitter = 0.0;
      sp_duration_ms = 8.0;
      sp_admission = ok (Server.admission_of_spec "policy=degrade:queue=6:max-ready=12:timeout=2ms");
      sp_tenants =
        ok
          (Server.tenants_of_spec
             "gold:apps=range_detection+wifi_tx:rate=6:prio=1:slo=3ms;bulk:apps=range_detection:rate=10:slo=5ms");
    }
  in
  Alcotest.(check string) "report" golden_custom_server (Server.render_report (ok (Server.run spec)))

let () =
  Alcotest.run "diff_engines"
    [
      ( "virtual vs native",
        [
          Alcotest.test_case "linear chain parity" `Slow test_chain_parity;
          Alcotest.test_case "DAG parity on one PE" `Slow test_dag_parity_single_pe;
          Alcotest.test_case "multi-instance chain parity" `Slow test_multi_instance_parity;
          Alcotest.test_case "functional agreement matrix" `Slow test_functional_agreement_matrix;
        ] );
      ( "reservation queues",
        [
          Alcotest.test_case "chain parity at depth 1 and 3" `Slow test_reservation_chain_parity;
          Alcotest.test_case "multi-instance parity at depth 1 and 3" `Slow
            test_reservation_multi_instance_parity;
          Alcotest.test_case "batching preserves decisions" `Slow
            test_reservation_fewer_invocations_same_decisions;
          Alcotest.test_case "native reservation-depth differential" `Slow
            test_native_reservation_depth_differential;
        ] );
      ( "fault injection",
        [
          Alcotest.test_case "fault parity across the policy matrix" `Slow
            test_fault_parity_across_policies;
          Alcotest.test_case "aborted run outputs" `Quick test_aborted_fault_outputs;
          Alcotest.test_case "service run under a fault plan" `Quick test_service_under_fault_plan;
        ] );
      ( "stores",
        [ Alcotest.test_case "placeholder unless outputs are read" `Quick test_placeholder_stores ] );
      ( "missing kernel",
        [
          Alcotest.test_case "virtual" `Quick
            (test_missing_kernel (Emulator.virtual_seeded ~jitter:0.0 1L));
          Alcotest.test_case "compiled" `Quick
            (test_missing_kernel (Emulator.compiled_seeded 1L));
          Alcotest.test_case "native" `Quick (test_missing_kernel Emulator.native_default);
        ] );
      ( "event streams",
        [ Alcotest.test_case "task-lifecycle multiset parity" `Slow test_event_multiset_parity ] );
      ( "virtual vs compiled",
        [
          Alcotest.test_case "exact-replay matrix" `Slow test_compiled_exact_replay;
          Alcotest.test_case "plan purity under interleaved runs" `Quick
            test_compiled_plan_purity;
          Alcotest.test_case "SDR-mix compile cost" `Quick test_compiled_compile_cost;
          Alcotest.test_case "memo with distinct CPU/accel closures" `Quick
            test_compiled_memo_distinct_closures;
          Alcotest.test_case "racy DAG outputs follow topological order" `Quick
            test_racy_dag_topological_order;
          qtest qcheck_compiled_respects_adjacency;
          qtest qcheck_compiled_replays_virtual;
          qtest qcheck_faulted_replay;
          Alcotest.test_case "custom policy's unusable assignments dropped" `Quick
            test_custom_policy_bad_assignments;
          Alcotest.test_case "server with a custom policy" `Quick test_custom_policy_server;
        ] );
      ( "observability lowering",
        [
          Alcotest.test_case "traced-replay matrix (events + metrics)" `Slow
            test_compiled_obs_parity;
          qtest qcheck_crit_path_equals_makespan;
        ] );
    ]
