(* Fault-injection and resilient-dispatch tests.

   The fault plan is pure data: draws are keyed on (task, attempt)
   alone, so a plan's schedule is a function of the workload, never of
   the engine, the clock, or the PE a task happens to land on.  The
   unit tests pin that purity down; the run tests exercise the
   workload manager's retry / quarantine / degradation machinery on
   the deterministic engine, checked against the reference engine;
   the property test checks the
   central safety invariant — no dispatch to a quarantined PE. *)

module Fault = Dssoc_fault.Fault
module Task = Dssoc_runtime.Task
module Emulator = Dssoc_runtime.Emulator
module Stats = Dssoc_runtime.Stats
module Scheduler = Dssoc_runtime.Scheduler
module Native_engine = Dssoc_runtime.Native_engine
module Config = Dssoc_soc.Config
module Reference_apps = Dssoc_apps.Reference_apps
module App_spec = Dssoc_apps.App_spec
module Kernels = Dssoc_apps.Kernels
module Workload = Dssoc_apps.Workload
module Obs = Dssoc_obs.Obs

let qtest = QCheck_alcotest.to_alcotest

let plan_of_spec ?seed spec =
  match Fault.of_spec ?seed spec with
  | Ok plan -> plan
  | Error msg -> Alcotest.failf "spec %S rejected: %s" spec msg

(* ---------------- spec parsing ---------------- *)

let test_spec_ok () =
  let plan = plan_of_spec ~seed:9L "fft0:die@2ms,*:transient:p=0.1:recover=0.5ms,retries=6" in
  Alcotest.(check int64) "seed" 9L plan.Fault.fault_seed;
  Alcotest.(check int) "two rules" 2 (List.length plan.Fault.rules);
  Alcotest.(check int) "retries knob" 6 plan.Fault.max_attempts;
  (match plan.Fault.rules with
  | [ { Fault.target = Fault.Pe_named "fft0"; fault = Fault.Die_at t }; _ ] ->
    Alcotest.(check int) "die time" 2_000_000 t
  | _ -> Alcotest.fail "first rule should be fft0:die@2ms");
  match List.nth plan.Fault.rules 1 with
  | { Fault.target = Fault.All; fault = Fault.Transient_faults { p; recover_ns } } ->
    Alcotest.(check (float 1e-9)) "p" 0.1 p;
    Alcotest.(check int) "recover" 500_000 recover_ns
  | _ -> Alcotest.fail "second rule should be *:transient"

let test_spec_knobs () =
  let plan = plan_of_spec "*:hang:p=0.2,backoff=50us,backoff-cap=2ms" in
  Alcotest.(check int) "backoff base" 50_000 plan.Fault.backoff_base_ns;
  Alcotest.(check int) "backoff cap" 2_000_000 plan.Fault.backoff_cap_ns;
  match plan.Fault.rules with
  | [ { Fault.fault = Fault.Hangs { p; recover_ns }; _ } ] ->
    Alcotest.(check (float 1e-9)) "p" 0.2 p;
    Alcotest.(check int) "default recover" 1_000_000 recover_ns
  | _ -> Alcotest.fail "expected one hang rule"

let test_spec_rejects () =
  let rejects spec =
    match Fault.of_spec spec with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "spec %S should be rejected" spec
  in
  rejects "";
  rejects "fft0:die";  (* missing @TIME *)
  rejects "fft0:die@soon";
  rejects "*:transient";  (* missing p *)
  rejects "*:transient:p=1.5";
  rejects "*:meteor:p=0.1";
  rejects "*:slow:p=0.5";  (* missing factor *)
  rejects "*:slow:p=0.5:factor=0.5";  (* factor < 1 *)
  rejects "retries=0";
  rejects "backoff=fast"

(* Error messages name the offending clause: index, text and character
   offset, then the specific complaint — pinned so the CLI surface
   stays diagnosable. *)
let test_spec_error_messages () =
  let pin spec expected =
    match Fault.of_spec spec with
    | Ok _ -> Alcotest.failf "spec %S should be rejected" spec
    | Error msg -> Alcotest.(check string) (Printf.sprintf "message for %S" spec) expected msg
  in
  pin "fft0:die@soon"
    {|fault spec: clause 1 ("fft0:die@soon", at offset 0): die@ wants a duration, got "soon"|};
  pin "fft0:die@1ms,*:meteor:p=0.1"
    {|fault spec: clause 2 ("*:meteor:p=0.1", at offset 13): unknown fault kind "meteor"|};
  pin "retries=3,*:transient"
    "fault spec: clause 2 (\"*:transient\", at offset 10): missing p=PROB";
  pin "*:hang:p=0.2,retries=0"
    {|fault spec: clause 2 ("retries=0", at offset 13): retries wants a positive integer, got "0"|};
  pin "*:slow:p=0.5:factor=0.5"
    {|fault spec: clause 1 ("*:slow:p=0.5:factor=0.5", at offset 0): factor wants a float >= 1, got "0.5"|};
  pin "" "empty fault spec"

(* ---------------- compilation ---------------- *)

let cpu label = { Fault.pe_label = label; pe_kind = "cpu_a53"; pe_is_cpu = true }
let fft label = { Fault.pe_label = label; pe_kind = "accel_fft"; pe_is_cpu = false }
let pes () = [| cpu "cpu0"; cpu "cpu1"; fft "fft2" |]

let test_compile_targets () =
  let compiled spec = Fault.compile (plan_of_spec spec) ~pes:(pes ()) in
  Alcotest.(check bool) "label target" true (Fault.enabled (compiled "fft2:die@1ms"));
  Alcotest.(check bool) "kind target" true (Fault.enabled (compiled "accel_fft:die@1ms"));
  Alcotest.(check bool) "group target" true (Fault.enabled (compiled "accel:dma:p=0.5"));
  Alcotest.(check bool) "empty plan disabled" false
    (Fault.enabled (Fault.compile Fault.default_plan ~pes:(pes ())));
  let raises spec =
    match compiled spec with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "compiling %S should raise" spec
  in
  raises "fft9:die@1ms";
  (* dma only applies to accelerator PEs, so a cpu-targeted dma rule
     ends up matching nothing *)
  raises "cpu:dma:p=0.5"

let test_death_schedule () =
  let t = Fault.compile (plan_of_spec "fft2:die@3ms,accel:die@1ms") ~pes:(pes ()) in
  Alcotest.(check (option int)) "earliest death wins" (Some 1_000_000)
    (Fault.death_ns t ~pe:2);
  Alcotest.(check (option int)) "cpus never die" None (Fault.death_ns t ~pe:0);
  Alcotest.(check (option int)) "disabled: no deaths" None
    (Fault.death_ns Fault.disabled ~pe:2)

(* ---------------- decisions ---------------- *)

let test_decide_pure () =
  (* The decision for (task, attempt) under an all-PE rule must not
     depend on the PE or the clock — that is what makes fault
     schedules replay identically across engines. *)
  let t = Fault.compile (plan_of_spec ~seed:3L "*:transient:p=0.5") ~pes:(pes ()) in
  for task_id = 0 to 40 do
    for attempt = 1 to 3 do
      let d0 = Fault.decide t ~pe:0 ~now:0 ~task_id ~attempt ~est_ns:10_000 in
      let d1 = Fault.decide t ~pe:2 ~now:987_654 ~task_id ~attempt ~est_ns:10_000 in
      Alcotest.(check bool)
        (Printf.sprintf "task %d attempt %d agrees across PEs and times" task_id attempt)
        true (d0 = d1)
    done
  done

let test_decide_extremes () =
  let t0 = Fault.compile (plan_of_spec "*:transient:p=0") ~pes:(pes ()) in
  let t1 = Fault.compile (plan_of_spec "*:transient:p=1:recover=7us") ~pes:(pes ()) in
  for task_id = 0 to 20 do
    (match Fault.decide t0 ~pe:0 ~now:0 ~task_id ~attempt:1 ~est_ns:1000 with
    | Fault.Proceed -> ()
    | _ -> Alcotest.fail "p=0 must always proceed");
    match Fault.decide t1 ~pe:0 ~now:0 ~task_id ~attempt:1 ~est_ns:1000 with
    | Fault.Fail { reason = Fault.Transient; quarantine_ns; _ } ->
      Alcotest.(check int) "quarantine from recover" 7_000 quarantine_ns
    | _ -> Alcotest.fail "p=1 must always fail"
  done;
  (* a dead PE fails everything, permanently *)
  let td = Fault.compile (plan_of_spec "fft2:die@1ms") ~pes:(pes ()) in
  match Fault.decide td ~pe:2 ~now:2_000_000 ~task_id:0 ~attempt:1 ~est_ns:1000 with
  | Fault.Fail { reason = Fault.Pe_dead; quarantine_ns; _ } ->
    Alcotest.(check bool) "permanent quarantine" true (quarantine_ns = max_int)
  | _ -> Alcotest.fail "dispatch past the death time must fail"

let test_backoff_and_watchdog () =
  let t = Fault.compile (plan_of_spec "*:transient:p=0.5,backoff=100us,backoff-cap=1ms") ~pes:(pes ()) in
  Alcotest.(check int) "first backoff is the base" 100_000 (Fault.backoff_ns t ~attempt:1);
  Alcotest.(check int) "doubles" 200_000 (Fault.backoff_ns t ~attempt:2);
  Alcotest.(check int) "caps" 1_000_000 (Fault.backoff_ns t ~attempt:5);
  Alcotest.(check int) "stays capped far out" 1_000_000 (Fault.backoff_ns t ~attempt:62);
  Alcotest.(check int) "watchdog floor" 1_000_000 (Fault.watchdog_ns t ~est_ns:10);
  Alcotest.(check int) "watchdog scales" 8_000_000 (Fault.watchdog_ns t ~est_ns:1_000_000)

(* ---------------- resilient runs (deterministic engine) ---------------- *)

let det_engine = Emulator.virtual_seeded ~jitter:0.0 1L

let config () = Config.zcu102_cores_ffts ~cores:2 ~ffts:1

let workload () =
  Workload.validation [ (Reference_apps.range_detection (), 2); (Reference_apps.wifi_tx (), 1) ]

(* A resilient run on the deterministic engine, checked against the
   test-local reference engine: the two must agree on the whole report
   before any test reads it. *)
let run_checked
    ?(params = { Dssoc_runtime.Engine_core.seed = 1L; jitter = 0.0; reservation_depth = 0 })
    ?(policy = "FRFS") ?obs ~fault ~config ~workload () =
  let r =
    Result.get_ok
      (Emulator.run ~engine:(Emulator.Virtual params) ~policy ?obs ~fault ~config ~workload ())
  in
  let reference =
    Virtual_engine.run ~params ~fault ~config ~workload
      ~policy:(Result.get_ok (Scheduler.find policy)) ()
  in
  Alcotest.(check string) "records CSV = reference's" (Stats.records_csv reference)
    (Stats.records_csv r);
  Alcotest.(check bool) "report = reference's" true (r = reference);
  r

let run_fault plan = run_checked ~fault:plan ~config:(config ()) ~workload:(workload ()) ()

let test_fault_free_pristine () =
  (* No plan — and an empty plan — must leave the run Completed with
     zeroed resilience counters. *)
  let r = Result.get_ok (Emulator.run ~engine:det_engine ~config:(config ()) ~workload:(workload ()) ()) in
  Alcotest.(check string) "verdict" "completed" (Stats.verdict_name r.Stats.verdict);
  Alcotest.(check bool) "no resilience activity" true (r.Stats.resilience = Stats.no_faults);
  Alcotest.(check (float 1e-9)) "all tasks" 1.0 (Stats.completed_fraction r)

let test_transient_degraded () =
  let r = run_fault (plan_of_spec ~seed:5L "*:transient:p=0.2:recover=0.1ms") in
  Alcotest.(check string) "verdict" "degraded" (Stats.verdict_name r.Stats.verdict);
  Alcotest.(check bool) "faults recorded" true (r.Stats.resilience.Stats.faults_injected > 0);
  Alcotest.(check bool) "retries recorded" true (r.Stats.resilience.Stats.task_retries > 0);
  Alcotest.(check (float 1e-9)) "still completes everything" 1.0 (Stats.completed_fraction r);
  Alcotest.(check int) "no tasks lost" 0 r.Stats.resilience.Stats.tasks_lost

let test_accel_death_cpu_fallback () =
  (* Kill the only accelerator: every FFT task must fall back to a CPU
     from its platform list and the run must degrade, not abort. *)
  let r = run_fault (plan_of_spec "fft2:die@0") in
  Alcotest.(check string) "verdict" "degraded" (Stats.verdict_name r.Stats.verdict);
  Alcotest.(check int) "one death" 1 r.Stats.resilience.Stats.pe_deaths;
  Alcotest.(check (float 1e-9)) "workload survives" 1.0 (Stats.completed_fraction r);
  List.iter
    (fun (t : Stats.task_record) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s avoided the dead PE" t.Stats.app t.Stats.node)
        true
        (t.Stats.pe <> "fft2"))
    r.Stats.records

let test_midrun_death_degrades () =
  let r = run_fault (plan_of_spec "fft2:die@100us") in
  Alcotest.(check string) "verdict" "degraded" (Stats.verdict_name r.Stats.verdict);
  Alcotest.(check (float 1e-9)) "workload survives" 1.0 (Stats.completed_fraction r)

let contains ~needle haystack =
  let n = String.length needle in
  let rec go i = i + n <= String.length haystack && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_budget_exhaustion_aborts () =
  let r = run_fault (plan_of_spec "*:transient:p=1:recover=1us") in
  (match r.Stats.verdict with
  | Stats.Aborted reason ->
    Alcotest.(check bool) "reason names the budget" true (contains ~needle:"attempt budget" reason)
  | _ -> Alcotest.fail "p=1 transients must exhaust the attempt budget");
  Alcotest.(check bool) "tasks lost" true (r.Stats.resilience.Stats.tasks_lost > 0);
  Alcotest.(check bool) "fraction below 1" true (Stats.completed_fraction r < 1.0)

let test_no_survivor_aborts () =
  (* A cpu-only workload whose only PE dies has nowhere left to go. *)
  let config = Config.zcu102_cores_ffts ~cores:1 ~ffts:0 in
  let workload = Workload.validation [ (Reference_apps.wifi_tx (), 1) ] in
  let r = run_checked ~fault:(plan_of_spec "cpu0:die@0") ~config ~workload () in
  match r.Stats.verdict with
  | Stats.Aborted _ -> Alcotest.(check bool) "nothing completed" true (r.Stats.records = [])
  | v -> Alcotest.failf "expected an abort, got %s" (Stats.verdict_name v)

let test_deterministic_replay () =
  let spec = "fft2:die@1ms,*:transient:p=0.1:recover=0.2ms" in
  let r1 = run_fault (plan_of_spec ~seed:11L spec) in
  let r2 = run_fault (plan_of_spec ~seed:11L spec) in
  Alcotest.(check string) "same records CSV" (Stats.records_csv r1) (Stats.records_csv r2);
  Alcotest.(check int) "same makespan" r1.Stats.makespan_ns r2.Stats.makespan_ns;
  Alcotest.(check bool) "same resilience" true (r1.Stats.resilience = r2.Stats.resilience);
  let r3 = run_fault (plan_of_spec ~seed:12L spec) in
  Alcotest.(check bool) "fault seed matters" true
    (r3.Stats.resilience <> r1.Stats.resilience || r3.Stats.makespan_ns <> r1.Stats.makespan_ns)

(* A retried task is made ready again while the stale ready-list entry
   of its failed attempt is still queued, so the entry revives and the
   task sits in the list twice.  The scheduling snapshot must take it
   once: otherwise FRFS can hand it two idle PEs, its kernel runs twice
   and its successors are released twice.  These are the contended,
   faulted rate-1.71 runs that hit the duplicate. *)
let test_retry_dispatched_once () =
  let bus = Result.get_ok (Dssoc_soc.Fabric.of_spec "bus:bw=100MB/s,fifo=1") in
  let config = Config.with_fabric bus (Config.zcu102_cores_ffts ~cores:2 ~ffts:2) in
  let spec = "*:transient:p=0.05:recover=0.2ms,accel:dma:p=0.05,retries=6" in
  for i = 0 to 19 do
    let seed = Dssoc_util.Prng.derive_seed ~seed:1L ~index:i in
    let r =
      run_checked
        ~params:{ Dssoc_runtime.Engine_core.seed; jitter = 0.03; reservation_depth = 0 }
        ~fault:(plan_of_spec ~seed spec) ~config
        ~workload:(Workload.table2_workload ~rate:1.71 ())
        ()
    in
    let seen = Hashtbl.create 8192 in
    List.iter
      (fun (t : Stats.task_record) ->
        let key = (t.Stats.instance, t.Stats.node) in
        if Hashtbl.mem seen key then
          Alcotest.failf "seed index %d: %s/%d:%s completed twice" i t.Stats.app t.Stats.instance
            t.Stats.node;
        Hashtbl.replace seen key ())
      r.Stats.records
  done

(* ---------------- event-level safety property ---------------- *)

(* No Task_dispatched event may target a PE inside one of its
   quarantine windows: [t_quarantine, until_ns) for transients,
   [t_quarantine, inf) for deaths. *)
let quarantine_violations events =
  let windows = Hashtbl.create 8 in
  let violations = ref 0 in
  List.iter
    (fun (e : Obs.event) ->
      match e.Obs.body with
      | Obs.Pe_quarantined { pe_index; until_ns; permanent; _ } ->
        let until = if permanent then max_int else until_ns in
        Hashtbl.replace windows pe_index (max until (Option.value ~default:0 (Hashtbl.find_opt windows pe_index)))
      | Obs.Task_dispatched { pe_index; _ } ->
        (match Hashtbl.find_opt windows pe_index with
        | Some until when e.Obs.t_ns < until -> incr violations
        | _ -> ())
      | _ -> ())
    events;
  !violations

let prop_no_dispatch_to_quarantined =
  QCheck.Test.make ~name:"retry/backoff never dispatches to a quarantined PE" ~count:25
    QCheck.(pair (int_bound 1000) (int_bound 3))
    (fun (seed, policy_idx) ->
      let policy = List.nth [ "FRFS"; "MET"; "EFT"; "POWER" ] policy_idx in
      let plan =
        plan_of_spec ~seed:(Int64.of_int seed) "fft2:die@100us,*:transient:p=0.15:recover=0.3ms"
      in
      let obs = Obs.make ~sink:(Obs.Sink.ring ()) () in
      ignore (run_checked ~policy ~obs ~fault:plan ~config:(config ()) ~workload:(workload ()) ());
      quarantine_violations (Obs.recorded_events obs) = 0)

(* ---------------- event log under heavy faults ---------------- *)

let test_faulted_log_keeps_every_task () =
  (* Four attempts in five fail, so retries multiply each task's
     events (about 40 per task here); the event log keeps all of them,
     however few slots it preallocated, and the analysis of the log
     sees every task the run completed. *)
  let fault =
    plan_of_spec ~seed:1L "*:transient:p=0.8:recover=1us,retries=200,backoff=1us,backoff-cap=2us"
  in
  let obs = Obs.make ~sink:(Obs.Sink.ring ~capacity:16 ()) () in
  let r =
    Result.get_ok
      (Emulator.run ~engine:det_engine ~obs ~fault ~config:(config ()) ~workload:(workload ()) ())
  in
  let events = Obs.recorded_events obs in
  Alcotest.(check bool) "tasks were retried" true (r.Stats.resilience.Stats.task_retries > 0);
  Alcotest.(check int) "every event retained" (Obs.Sink.total (Obs.sink obs)) (List.length events);
  Alcotest.(check int) "analysis sees every completed task" (List.length r.Stats.records)
    (List.length (Dssoc_obs.Analyze.tasks (Dssoc_obs.Analyze.of_sink (Obs.sink obs))))

(* ---------------- native teardown (satellite) ---------------- *)

let test_native_poisoned_run_joins_domains () =
  (* A policy that raises mid-run poisons the workload manager.  The
     native engine must still join every handler domain and re-raise.
     Leaks would accumulate across iterations and blow OCaml's domain
     limit long before 40 x 3 spawns, so looping doubles as a
     no-live-domains check. *)
  let config = Config.zcu102_cores_ffts ~cores:3 ~ffts:0 in
  let poison = { Scheduler.name = "POISON"; schedule = (fun _ -> failwith "poisoned policy") } in
  for i = 1 to 40 do
    match
      Native_engine.run ~config
        ~workload:(Workload.validation [ (Reference_apps.wifi_tx (), 1) ])
        ~policy:poison ()
    with
    | _ -> Alcotest.failf "iteration %d: the poisoned policy must raise" i
    | exception Failure msg ->
      Alcotest.(check string) (Printf.sprintf "iteration %d propagates the error" i)
        "poisoned policy" msg
  done;
  (* and the engine still works afterwards *)
  let r =
    Native_engine.run ~config
      ~workload:(Workload.validation [ (Reference_apps.wifi_tx (), 1) ])
      ~policy:Scheduler.frfs ()
  in
  Alcotest.(check string) "subsequent run completes" "completed" (Stats.verdict_name r.Stats.verdict)

let () = Kernels.register_object "boom.so" [ ("boom", fun _ _ -> failwith "kernel boom") ]

(* A kernel that raises inside a handler domain used to kill that
   domain while the workload manager spun forever.  The run must stop,
   join every domain and re-raise the kernel's exception.  It runs on a
   worker domain under a wall-clock deadline, so a regression fails
   here instead of hanging the suite. *)
let test_native_raising_kernel () =
  let spec =
    App_spec.of_edges ~app_name:"boom" ~shared_object:"boom.so" ~variables:[]
      ~nodes:
        [
          {
            App_spec.node_name = "only";
            arguments = [];
            predecessors = [];
            successors = [];
            platforms =
              [ { App_spec.platform = "cpu"; runfunc = "boom"; shared_object = None; cost_us = None } ];
            kernel_class = "generic";
            size = 1;
            bytes_in = 0;
            bytes_out = 0;
          };
        ]
  in
  let config = Config.zcu102_cores_ffts ~cores:1 ~ffts:0 in
  let outcome = Atomic.make None in
  let worker =
    Domain.spawn (fun () ->
        Atomic.set outcome
          (Some
             (match
                Emulator.run ~engine:Emulator.native_default ~config
                  ~workload:(Workload.validation [ (spec, 1) ]) ()
              with
             | _ -> "returned"
             | exception Failure msg -> msg
             | exception e -> Printexc.to_string e)))
  in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while Atomic.get outcome = None && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  match Atomic.get outcome with
  | None -> Alcotest.fail "the native run had not returned after 10 s"
  | Some msg ->
    Domain.join worker;
    Alcotest.(check string) "the kernel's exception is re-raised" "kernel boom" msg

let test_emulator_surfaces_fault_plan_errors () =
  (* A rule that matches no PE must come back as an Error, not an
     exception, through the Emulator facade — on both engines. *)
  let plan = plan_of_spec "fft9:die@1ms" in
  List.iter
    (fun engine ->
      match Emulator.run ~engine ~fault:plan ~config:(config ()) ~workload:(workload ()) () with
      | Error msg -> Alcotest.(check bool) "names the target" true (contains ~needle:"fft9" msg)
      | Ok _ -> Alcotest.fail "a no-match fault rule must be rejected")
    [ det_engine; Emulator.native_default ]

let () =
  Alcotest.run "fault"
    [
      ( "spec",
        [
          Alcotest.test_case "parses rules and knobs" `Quick test_spec_ok;
          Alcotest.test_case "knob clauses" `Quick test_spec_knobs;
          Alcotest.test_case "rejects malformed specs" `Quick test_spec_rejects;
          Alcotest.test_case "error messages name token and position" `Quick
            test_spec_error_messages;
        ] );
      ( "compile",
        [
          Alcotest.test_case "target resolution" `Quick test_compile_targets;
          Alcotest.test_case "death schedule" `Quick test_death_schedule;
        ] );
      ( "decide",
        [
          Alcotest.test_case "pure in PE and time" `Quick test_decide_pure;
          Alcotest.test_case "probability extremes" `Quick test_decide_extremes;
          Alcotest.test_case "backoff and watchdog" `Quick test_backoff_and_watchdog;
        ] );
      ( "resilient runs",
        [
          Alcotest.test_case "fault-free runs stay pristine" `Quick test_fault_free_pristine;
          Alcotest.test_case "transients degrade but complete" `Slow test_transient_degraded;
          Alcotest.test_case "accelerator death falls back to CPUs" `Slow
            test_accel_death_cpu_fallback;
          Alcotest.test_case "mid-run death degrades" `Slow test_midrun_death_degrades;
          Alcotest.test_case "budget exhaustion aborts" `Slow test_budget_exhaustion_aborts;
          Alcotest.test_case "no surviving PE aborts" `Quick test_no_survivor_aborts;
          Alcotest.test_case "deterministic replay" `Slow test_deterministic_replay;
          Alcotest.test_case "retried task dispatched once" `Slow test_retry_dispatched_once;
          qtest prop_no_dispatch_to_quarantined;
        ] );
      ( "observability",
        [
          Alcotest.test_case "heavily faulted log keeps every task" `Quick
            test_faulted_log_keeps_every_task;
        ] );
      ( "native teardown",
        [
          Alcotest.test_case "poisoned run joins all domains" `Slow
            test_native_poisoned_run_joins_domains;
          Alcotest.test_case "fault-plan errors surface as Error" `Slow
            test_emulator_surfaces_fault_plan_errors;
          Alcotest.test_case "raising kernel stops the run" `Quick test_native_raising_kernel;
        ] );
    ]
