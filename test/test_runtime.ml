module Task = Dssoc_runtime.Task
module Scheduler = Dssoc_runtime.Scheduler
module Exec_model = Dssoc_runtime.Exec_model
module Emulator = Dssoc_runtime.Emulator
module Stats = Dssoc_runtime.Stats
module Config = Dssoc_soc.Config
module Pe = Dssoc_soc.Pe
module Fabric = Dssoc_soc.Fabric
module Cost_model = Dssoc_soc.Cost_model
module App_spec = Dssoc_apps.App_spec
module Store = Dssoc_apps.Store
module Reference_apps = Dssoc_apps.Reference_apps
module Workload = Dssoc_apps.Workload
module Prng = Dssoc_util.Prng

let qtest = QCheck_alcotest.to_alcotest

let det_engine = Emulator.virtual_seeded ~jitter:0.0 1L

let cfg_3c2f () = Config.zcu102_cores_ffts ~cores:3 ~ffts:2

(* ---------------------- Task ---------------------- *)

let test_instantiate () =
  let spec = Reference_apps.range_detection () in
  let inst = Task.instantiate ~task_id_base:100 ~inst_id:7 ~arrival_ns:55 spec in
  Alcotest.(check int) "task count" 6 (Array.length inst.Task.tasks);
  Alcotest.(check int) "remaining" 6 inst.Task.remaining;
  Alcotest.(check int) "arrival" 55 inst.Task.arrival_ns;
  Alcotest.(check int) "id base" 100 inst.Task.tasks.(0).Task.id;
  (* The DAG lives in the topology, over the instance's task array. *)
  let tp = Task.topology spec in
  let names idx =
    List.map (fun j -> inst.Task.tasks.(j).Task.node.App_spec.node_name) (Array.to_list idx)
  in
  Alcotest.(check (list string)) "entry nodes (LFM, FFT_0)" [ "LFM"; "FFT_0" ] (names tp.Task.tp_entry);
  let max_t = inst.Task.tasks.(5) in
  Alcotest.(check string) "last node" "MAX" max_t.Task.node.App_spec.node_name;
  Alcotest.(check int) "MAX waits on IFFT" 1 max_t.Task.unmet;
  Alcotest.(check (list string)) "LFM successors" [ "FFT_1" ] (names tp.Task.tp_succ.(0))

let test_supports_generic_cpu () =
  let spec = Reference_apps.range_detection () in
  let inst = Task.instantiate ~task_id_base:0 ~inst_id:0 ~arrival_ns:0 spec in
  let lfm = inst.Task.tasks.(0) in
  let fft0 = inst.Task.tasks.(1) in
  let cpu_pe = Pe.make ~id:0 ~kind:(Pe.Cpu Pe.a53) in
  let big_pe = Pe.make ~id:1 ~kind:(Pe.Cpu Pe.a15_big) in
  let fft_pe = Pe.make ~id:2 ~kind:(Pe.Accel Pe.zynq_fft) in
  Alcotest.(check bool) "cpu entry matches a53" true (Task.supports lfm cpu_pe);
  Alcotest.(check bool) "cpu entry matches big (portability)" true (Task.supports lfm big_pe);
  Alcotest.(check bool) "LFM does not run on fft" false (Task.supports lfm fft_pe);
  Alcotest.(check bool) "FFT_0 runs on fft accel" true (Task.supports fft0 fft_pe)

(* ---------------------- Scheduler ---------------------- *)

let mk_ctx ?(now = 0) ready pes =
  {
    Scheduler.now;
    ready = Array.of_list ready;
    nready = List.length ready;
    pes;
    estimate = (fun t i -> Exec_model.estimate_ns t pes.(i).Scheduler.pe);
    prng = Prng.create ~seed:1L;
    ops = 0;
  }

let rd_tasks () =
  let spec = Reference_apps.range_detection () in
  let inst = Task.instantiate ~task_id_base:0 ~inst_id:0 ~arrival_ns:0 spec in
  inst.Task.tasks

let pe_states kinds =
  Array.of_list
    (List.mapi
       (fun i kind ->
         { Scheduler.pe = Pe.make ~id:i ~kind; idle = true; busy_until = 0; available = true })
       kinds)

let test_frfs_order () =
  let tasks = rd_tasks () in
  let lfm = tasks.(0) and fft0 = tasks.(1) in
  let pes = pe_states [ Pe.Cpu Pe.a53; Pe.Cpu Pe.a53 ] in
  let ctx = mk_ctx [ lfm; fft0 ] pes in
  let assignments = Scheduler.frfs.Scheduler.schedule ctx in
  Alcotest.(check int) "both assigned" 2 (List.length assignments);
  let first = List.hd assignments in
  Alcotest.(check string) "first ready first" "LFM" first.Scheduler.task.Task.node.App_spec.node_name;
  Alcotest.(check int) "to first idle PE" 0 first.Scheduler.pe_index

let test_frfs_skips_unsupported () =
  let tasks = rd_tasks () in
  let lfm = tasks.(0) in
  (* only an FFT accelerator available: LFM (cpu-only) cannot run *)
  let pes = pe_states [ Pe.Accel Pe.zynq_fft ] in
  let assignments = Scheduler.frfs.Scheduler.schedule (mk_ctx [ lfm ] pes) in
  Alcotest.(check int) "nothing assigned" 0 (List.length assignments)

let test_met_picks_min_exec () =
  let tasks = rd_tasks () in
  let fft0 = tasks.(1) in
  (* FFT-512 is faster on the accelerator than on the A53. *)
  let pes = pe_states [ Pe.Cpu Pe.a53; Pe.Accel Pe.zynq_fft ] in
  let assignments = Scheduler.met.Scheduler.schedule (mk_ctx [ fft0 ] pes) in
  Alcotest.(check int) "assigned" 1 (List.length assignments);
  Alcotest.(check int) "accelerator chosen" 1 (List.hd assignments).Scheduler.pe_index

let test_eft_waits_for_busy_favorite () =
  let tasks = rd_tasks () in
  let fft0 = tasks.(1) in
  (* Accelerator busy but about to free; CPU idle but much slower: EFT
     leaves the task waiting for the accelerator. *)
  let pes = pe_states [ Pe.Cpu Pe.a53; Pe.Accel Pe.zynq_fft ] in
  pes.(1).Scheduler.idle <- false;
  pes.(1).Scheduler.busy_until <- 1_000;
  let assignments = Scheduler.eft.Scheduler.schedule (mk_ctx [ fft0 ] pes) in
  Alcotest.(check int) "task waits" 0 (List.length assignments)

let test_eft_uses_idle_when_better () =
  let tasks = rd_tasks () in
  let fft0 = tasks.(1) in
  let pes = pe_states [ Pe.Cpu Pe.a53; Pe.Accel Pe.zynq_fft ] in
  pes.(1).Scheduler.idle <- false;
  (* Accelerator will be busy for a long time: CPU finishes earlier. *)
  pes.(1).Scheduler.busy_until <- 100_000_000;
  let assignments = Scheduler.eft.Scheduler.schedule (mk_ctx [ fft0 ] pes) in
  Alcotest.(check int) "assigned to cpu" 1 (List.length assignments);
  Alcotest.(check int) "cpu index" 0 (List.hd assignments).Scheduler.pe_index

let test_random_deterministic_with_seed () =
  let tasks = rd_tasks () in
  let lfm = tasks.(0) in
  let run () =
    let pes = pe_states [ Pe.Cpu Pe.a53; Pe.Cpu Pe.a53; Pe.Cpu Pe.a53 ] in
    let ctx = mk_ctx [ lfm ] pes in
    (List.hd (Scheduler.random.Scheduler.schedule ctx)).Scheduler.pe_index
  in
  Alcotest.(check int) "same seed same choice" (run ()) (run ())

let test_registry () =
  Alcotest.(check bool) "frfs found" true (Result.is_ok (Scheduler.find "frfs"));
  Alcotest.(check bool) "case-insensitive" true (Result.is_ok (Scheduler.find "Eft"));
  Alcotest.(check bool) "unknown" true (Result.is_error (Scheduler.find "heft2000"));
  Scheduler.register { Scheduler.name = "CUSTOM_TEST"; schedule = (fun _ -> []) };
  Alcotest.(check bool) "custom registered" true (Result.is_ok (Scheduler.find "custom_test"))

let test_overhead_model () =
  let frfs5 = Scheduler.overhead_ns ~policy_name:"FRFS" ~ready:100 ~pes:5 ~ops:0 in
  Alcotest.(check int) "FRFS @5 PEs = 2.5us" 2_500 frfs5;
  let met = Scheduler.overhead_ns ~policy_name:"MET" ~ready:100 ~pes:5 ~ops:0 in
  let eft = Scheduler.overhead_ns ~policy_name:"EFT" ~ready:100 ~pes:5 ~ops:0 in
  Alcotest.(check bool) "EFT > MET > FRFS" true (eft > met && met > frfs5);
  (* capped beyond the examined window *)
  let eft_capped = Scheduler.overhead_ns ~policy_name:"EFT" ~ready:100_000 ~pes:5 ~ops:0 in
  let eft_at_cap = Scheduler.overhead_ns ~policy_name:"EFT" ~ready:256 ~pes:5 ~ops:0 in
  Alcotest.(check int) "window cap" eft_at_cap eft_capped

(* ---------------------- Exec model ---------------------- *)

let test_estimate_scales_with_core () =
  let tasks = rd_tasks () in
  let fft0 = tasks.(1) in
  let a53 = Exec_model.estimate_ns fft0 (Pe.make ~id:0 ~kind:(Pe.Cpu Pe.a53)) in
  let big = Exec_model.estimate_ns fft0 (Pe.make ~id:1 ~kind:(Pe.Cpu Pe.a15_big)) in
  Alcotest.(check bool) "big faster" true (big < a53)

let test_estimate_unsupported () =
  let tasks = rd_tasks () in
  let lfm = tasks.(0) in
  Alcotest.(check bool) "unsupported raises" true
    (try
       ignore (Exec_model.estimate_ns lfm (Pe.make ~id:0 ~kind:(Pe.Accel Pe.zynq_fft)));
       false
     with Invalid_argument _ -> true)

(* Every reference app, two instances each, plus a range-detection
   variant whose first FFT pins an explicit accelerator [cost_us]. *)
let lowered_reference config =
  let pinned =
    let rd = Reference_apps.range_detection () in
    let pin (e : App_spec.platform_entry) =
      if e.App_spec.platform = "fft" then { e with App_spec.cost_us = Some 2.5 } else e
    in
    {
      rd with
      App_spec.app_name = "range_detection_pinned";
      nodes =
        List.map
          (fun (nd : App_spec.node) ->
            if nd.App_spec.node_name = "FFT_0" then
              { nd with App_spec.platforms = List.map pin nd.App_spec.platforms }
            else nd)
          rd.App_spec.nodes;
    }
  in
  let wl = Workload.validation (List.map (fun s -> (s, 2)) (pinned :: Reference_apps.all ())) in
  let m = Exec_model.lower ~engine_name:"test" ~config wl in
  (m, Virtual_engine.instantiate m ~fresh_stores:false)

let iter_pairs (m : Exec_model.t) instances f =
  Array.iter
    (fun (inst : Task.instance) ->
      Array.iter
        (fun (t : Task.t) -> Array.iteri (fun i pe -> f t i pe) m.Exec_model.pes)
        inst.Task.tasks)
    instances

let pair_label (t : Task.t) (pe : Pe.t) =
  Printf.sprintf "%s/%s on %s" t.Task.app_name t.Task.node.App_spec.node_name pe.Pe.label

(* The class rows the engines and schedulers read must agree with a
   fresh cost-model recomputation for every supported (node, PE) pair
   of every reference app, on CPU classes of both hosts and on the
   FFT accelerator. *)
let test_estimate_table_matches_recomputation () =
  let checked = ref 0 in
  List.iter
    (fun config ->
      let m, instances = lowered_reference config in
      iter_pairs m instances (fun t i pe ->
          let e = Exec_model.estimate m t i in
          if Task.supports t pe then begin
            incr checked;
            Alcotest.(check int) (pair_label t pe) (Exec_model.estimate_ns t pe) e
          end
          else Alcotest.(check int) (pair_label t pe ^ " unsupported") min_int e))
    [ Config.zcu102_cores_ffts ~cores:3 ~ffts:2; Config.odroid_big_little ~big:2 ~little:2 ];
  Alcotest.(check bool) "covered many pairs" true (!checked > 1000)

(* Accelerator rows: the phases equal [Cost_model.accel_phases_ns] and
   the fabric columns equal [Fabric.demand_ns]/[Fabric.fixed_ns] with
   each PE's own hop count, on the ideal fabric, a crossbar bus and a
   2x2 mesh; a [cost_us] entry is all device compute and bypasses the
   fabric. *)
let test_class_rows_match_models () =
  List.iter
    (fun spec ->
      let fabric = Result.get_ok (Fabric.of_spec spec) in
      let config = Config.with_fabric fabric (Config.zcu102_cores_ffts ~cores:2 ~ffts:2) in
      let m, instances = lowered_reference config in
      let accel_rows = ref 0 and streams = ref 0 in
      iter_pairs m instances (fun t i pe ->
          match (pe.Pe.kind, Task.node_entry t.Task.node pe) with
          | Pe.Accel acl, Some entry ->
            incr accel_rows;
            let c = Exec_model.class_of m t and row = Exec_model.row m t i in
            let label what = Printf.sprintf "%s %s: %s" spec (pair_label t pe) what in
            let check what expected actual = Alcotest.(check int) (label what) expected actual in
            let node = t.Task.node in
            let bytes given = if given > 0 then given else 8 * node.App_spec.size in
            (* A [cost_us] entry moves no data. *)
            let (din, comp, dout), bi, bo =
              match entry.App_spec.cost_us with
              | Some us -> ((0, int_of_float (us *. 1e3), 0), 0, 0)
              | None ->
                let bi = bytes node.App_spec.bytes_in and bo = bytes node.App_spec.bytes_out in
                (Cost_model.accel_phases_ns ~bytes_in:bi ~bytes_out:bo ~n:node.App_spec.size acl, bi, bo)
            in
            let phase dir (ideal_col, demand_col, fixed_col, bytes_col) ~ideal ~bytes =
              check (dir ^ " ideal") ideal ideal_col.(row);
              match fabric with
              | Fabric.Bus bus when bytes > 0 ->
                incr streams;
                check (dir ^ " bytes") bytes bytes_col.(row);
                check (dir ^ " demand") (Fabric.demand_ns bus ~bytes) demand_col.(row);
                check (dir ^ " fixed")
                  (Fabric.fixed_ns bus ~pe_index:i ~chunks:(Cost_model.chunk_count acl ~bytes)
                     ~chunk_lat_ns:acl.Pe.dma.Dssoc_soc.Dma.latency_ns)
                  fixed_col.(row)
              | _ ->
                check (dir ^ " bypass") (-1) demand_col.(row);
                check (dir ^ " no stream") 0 bytes_col.(row);
                check (dir ^ " no fixed latency") 0 fixed_col.(row)
            in
            phase "in" Exec_model.(c.dma_in, c.demand_in, c.fixed_in, c.bytes_in) ~ideal:din ~bytes:bi;
            check "compute" comp c.Exec_model.compute.(row);
            phase "out" Exec_model.(c.dma_out, c.demand_out, c.fixed_out, c.bytes_out) ~ideal:dout
              ~bytes:bo
          | _ -> ());
      Alcotest.(check bool) (spec ^ ": accelerator rows covered") true (!accel_rows > 500);
      Alcotest.(check bool) (spec ^ ": streams only on a bus") (spec <> "ideal") (!streams > 0))
    [ "ideal"; "bus:bw=500MB/s,hop=100ns"; "bus:bw=500MB/s,hop=100ns,hops=mesh2x2" ]

(* ---------------------- Virtual engine integration ---------------------- *)

let run_validation ?(policy = "FRFS") ?(engine = det_engine) config apps =
  Emulator.run_exn ~engine ~policy ~config ~workload:(Workload.validation apps) ()

let test_rd_emulation_functional () =
  let spec = Reference_apps.range_detection () in
  let wl = Workload.validation [ (spec, 1) ] in
  match Emulator.run_detailed ~engine:det_engine ~config:(cfg_3c2f ()) ~workload:wl () with
  | Error msg -> Alcotest.fail msg
  | Ok (report, instances) ->
    Alcotest.(check int) "one instance" 1 (Array.length instances);
    let store = instances.(0).Task.store in
    Alcotest.(check int) "lag recovered through full emulation"
      Reference_apps.Truth.rd_echo_delay (Store.get_i32 store "lag");
    Alcotest.(check int) "all records present" 6 (Stats.record_count report);
    Alcotest.(check int) "task count" 6 report.Stats.task_count

let test_wifi_rx_emulation_functional () =
  let spec = Reference_apps.wifi_rx () in
  let wl = Workload.validation [ (spec, 2) ] in
  match Emulator.run_detailed ~engine:det_engine ~config:(cfg_3c2f ()) ~workload:wl () with
  | Error msg -> Alcotest.fail msg
  | Ok (_, instances) ->
    Array.iter
      (fun inst ->
        Alcotest.(check int) "crc ok" 1 (Store.get_i32 inst.Task.store "crc_ok");
        Alcotest.(check bool) "payload" true
          (Array.sub (Store.get_bits inst.Task.store "payload_out") 0 64
          = Reference_apps.Truth.wifi_payload))
      instances

let test_determinism_same_seed () =
  let spec = Reference_apps.wifi_rx () in
  let r1 = run_validation (cfg_3c2f ()) [ (spec, 3) ] in
  let r2 = run_validation (cfg_3c2f ()) [ (spec, 3) ] in
  Alcotest.(check int) "same makespan" r1.Stats.makespan_ns r2.Stats.makespan_ns;
  Alcotest.(check bool) "same records" true (Stats.record_list r1 = Stats.record_list r2)

let test_jitter_produces_variance () =
  let spec = Reference_apps.range_detection () in
  let r1 = run_validation ~engine:(Emulator.virtual_seeded ~jitter:0.05 1L) (cfg_3c2f ()) [ (spec, 1) ] in
  let r2 = run_validation ~engine:(Emulator.virtual_seeded ~jitter:0.05 2L) (cfg_3c2f ()) [ (spec, 1) ] in
  Alcotest.(check bool) "different seeds differ" true (r1.Stats.makespan_ns <> r2.Stats.makespan_ns)

let test_unsupported_task_rejected () =
  (* A config with zero CPU PEs cannot run cpu-only nodes. *)
  let config = Config.make_exn ~host:Dssoc_soc.Host.zcu102 ~requests:[ { Config.kind = Pe.Accel Pe.zynq_fft; count = 1 } ] in
  let spec = Reference_apps.range_detection () in
  match Emulator.run ~engine:det_engine ~config ~workload:(Workload.validation [ (spec, 1) ]) () with
  | Ok _ -> Alcotest.fail "expected error"
  | Error msg -> Alcotest.(check bool) "mentions support" true (String.length msg > 0)

let test_unknown_policy_rejected () =
  let spec = Reference_apps.range_detection () in
  match
    Emulator.run ~engine:det_engine ~policy:"NOPE" ~config:(cfg_3c2f ())
      ~workload:(Workload.validation [ (spec, 1) ]) ()
  with
  | Ok _ -> Alcotest.fail "expected error"
  | Error _ -> ()

let test_report_invariants () =
  let mix = List.map (fun a -> (a, 1)) (Reference_apps.all ()) in
  let r = run_validation (cfg_3c2f ()) mix in
  Alcotest.(check int) "jobs" 4 r.Stats.job_count;
  Alcotest.(check int) "tasks" (770 + 6 + 7 + 9) r.Stats.task_count;
  Alcotest.(check int) "records complete" r.Stats.task_count (Stats.record_count r);
  (* all dispatch/complete stamps ordered *)
  List.iter
    (fun (t : Stats.task_record) ->
      Alcotest.(check bool) "ready <= dispatched" true (t.Stats.ready_ns <= t.Stats.dispatched_ns);
      Alcotest.(check bool) "dispatched < completed" true (t.Stats.dispatched_ns < t.Stats.completed_ns);
      Alcotest.(check bool) "completed <= makespan" true (t.Stats.completed_ns <= r.Stats.makespan_ns))
    (Stats.record_list r);
  (* busy time within makespan per PE *)
  List.iter
    (fun u -> Alcotest.(check bool) "util <= 1" true (u.Stats.busy_ns <= r.Stats.makespan_ns))
    r.Stats.pe_usage;
  Alcotest.(check bool) "scheduler ran" true (r.Stats.sched_invocations > 0);
  Alcotest.(check bool) "overhead positive" true (r.Stats.wm_overhead_ns > 0)

let test_predecessors_complete_first () =
  let r = run_validation (cfg_3c2f ()) [ (Reference_apps.wifi_tx (), 1) ] in
  (* wifi_tx is a linear chain: completion order must follow it. *)
  let order = List.map (Stats.record_node r) (Stats.record_list r) in
  Alcotest.(check (list string)) "chain order"
    [ "CRC"; "SCRAMBLE"; "ENCODE"; "INTERLEAVE"; "MODULATE"; "PILOT"; "IFFT" ]
    order

let test_more_cores_faster () =
  let mix = List.map (fun a -> (a, 1)) (Reference_apps.all ()) in
  let m cores = (run_validation (Config.zcu102_cores_ffts ~cores ~ffts:0) mix).Stats.makespan_ns in
  let m1 = m 1 and m2 = m 2 and m3 = m 3 in
  Alcotest.(check bool) "2 cores beat 1" true (m2 < m1);
  Alcotest.(check bool) "3 cores beat 2" true (m3 < m2)

let test_2c2f_plateau () =
  (* Fig. 9: adding the second FFT to 2Core+1FFT is nearly free because
     both manager threads share one host core. *)
  let mix = List.map (fun a -> (a, 1)) (Reference_apps.all ()) in
  let m ffts = (run_validation (Config.zcu102_cores_ffts ~cores:2 ~ffts) mix).Stats.makespan_ns in
  let m1 = m 1 and m2 = m 2 in
  let gain = float_of_int (m1 - m2) /. float_of_int m1 in
  Alcotest.(check bool) "second FFT gains < 5%" true (gain < 0.05)

let test_policies_complete_workload () =
  let mix = List.map (fun a -> (a, 1)) (Reference_apps.all ()) in
  List.iter
    (fun policy ->
      let r = run_validation ~policy (cfg_3c2f ()) mix in
      Alcotest.(check int) (policy ^ " completes") (770 + 6 + 7 + 9) (Stats.record_count r))
    [ "FRFS"; "MET"; "EFT"; "RANDOM" ]

let test_performance_mode_run () =
  let wl = Workload.table2_workload ~rate:1.71 () in
  let r = Emulator.run_exn ~engine:det_engine ~config:(cfg_3c2f ()) ~workload:wl () in
  Alcotest.(check int) "jobs" 171 r.Stats.job_count;
  (* system keeps up at the lowest rate: makespan close to the window *)
  Alcotest.(check bool) "makespan near window" true
    (r.Stats.makespan_ns >= 99_000_000 && r.Stats.makespan_ns < 110_000_000)

let test_odroid_runs_same_apps () =
  (* Case Study 3 portability: identical JSON apps run on big.LITTLE. *)
  let config = Config.odroid_big_little ~big:2 ~little:1 in
  let r = run_validation config [ (Reference_apps.wifi_rx (), 1) ] in
  Alcotest.(check int) "completes" 9 (Stats.record_count r)

let test_utilization_bounds () =
  let mix = List.map (fun a -> (a, 1)) (Reference_apps.all ()) in
  let r = run_validation (Config.zcu102_cores_ffts ~cores:1 ~ffts:0) mix in
  List.iter
    (fun (_, u) -> Alcotest.(check bool) "0 <= util <= 1" true (u >= 0.0 && u <= 1.0))
    (Stats.utilization r);
  (* the paper reports ~80% peak CPU utilisation at 1Core+0FFT *)
  let cpu_util = List.assoc "cpu" (Stats.mean_utilization_by_kind r) in
  Alcotest.(check bool) "cpu util 70-90%" true (cpu_util > 0.70 && cpu_util < 0.90)

(* ---------------------- Extensions ---------------------- *)

let test_reservation_queue_reduces_overhead () =
  let spec = Reference_apps.pulse_doppler () in
  let run depth =
    run_validation
      ~engine:(Emulator.virtual_seeded ~jitter:0.0 ~reservation_depth:depth 1L)
      (cfg_3c2f ()) [ (spec, 1) ]
  in
  let r0 = run 0 and r2 = run 2 in
  Alcotest.(check int) "same work done" (Stats.record_count r0) (Stats.record_count r2);
  Alcotest.(check bool) "fewer scheduling invocations" true
    (r2.Stats.sched_invocations < r0.Stats.sched_invocations);
  Alcotest.(check bool) "shorter makespan" true (r2.Stats.makespan_ns < r0.Stats.makespan_ns)

let test_reservation_preserves_functional_output () =
  let spec = Reference_apps.range_detection () in
  let wl = Workload.validation [ (spec, 1) ] in
  match
    Emulator.run_detailed
      ~engine:(Emulator.virtual_seeded ~jitter:0.0 ~reservation_depth:3 1L)
      ~config:(cfg_3c2f ()) ~workload:wl ()
  with
  | Error msg -> Alcotest.fail msg
  | Ok (_, instances) ->
    Alcotest.(check int) "lag still recovered" Reference_apps.Truth.rd_echo_delay
      (Store.get_i32 instances.(0).Task.store "lag")

let test_reservation_dependency_order () =
  let r =
    run_validation
      ~engine:(Emulator.virtual_seeded ~jitter:0.0 ~reservation_depth:4 1L)
      (cfg_3c2f ()) [ (Reference_apps.wifi_tx (), 1) ]
  in
  let order = List.map (Stats.record_node r) (Stats.record_list r) in
  Alcotest.(check (list string)) "chain order preserved with queues"
    [ "CRC"; "SCRAMBLE"; "ENCODE"; "INTERLEAVE"; "MODULATE"; "PILOT"; "IFFT" ]
    order

let test_power_policy_prefers_efficient_core () =
  let tasks = rd_tasks () in
  let lfm = tasks.(0) in
  (* big core is faster but burns far more energy per task *)
  let pes = pe_states [ Pe.Cpu Pe.a15_big; Pe.Cpu Pe.a7_little ] in
  let assignments = (Result.get_ok (Scheduler.find "POWER")).Scheduler.schedule (mk_ctx [ lfm ] pes) in
  Alcotest.(check int) "assigned" 1 (List.length assignments);
  Alcotest.(check int) "LITTLE core chosen" 1 (List.hd assignments).Scheduler.pe_index

let test_energy_accounting () =
  let r = run_validation (cfg_3c2f ()) [ (Reference_apps.wifi_rx (), 1) ] in
  Alcotest.(check bool) "energy positive" true (Stats.total_energy_mj r > 0.0);
  Alcotest.(check bool) "busy <= total" true
    (Stats.total_busy_energy_mj r <= Stats.total_energy_mj r +. 1e-9);
  List.iter
    (fun u ->
      let expect_busy =
        float_of_int u.Stats.busy_ns
        *. (if u.Stats.pe_kind = "fft" then Pe.zynq_fft.Pe.busy_w else Pe.a53.Pe.busy_w)
        *. 1e-6
      in
      Alcotest.(check (float 1e-6)) "busy energy formula" expect_busy u.Stats.busy_energy_mj)
    r.Stats.pe_usage

let test_chrome_trace () =
  let r = run_validation (cfg_3c2f ()) [ (Reference_apps.wifi_tx (), 1) ] in
  let json = Stats.chrome_trace r in
  let module Json = Dssoc_json.Json in
  (* the document must survive its own printer/parser and contain one
     complete event per task plus one metadata row per PE *)
  Alcotest.(check bool) "roundtrips" true (Json.parse (Json.to_string json) = Ok json);
  match Result.bind (Json.member "traceEvents" json) Json.to_list with
  | Error e -> Alcotest.fail e
  | Ok events ->
    Alcotest.(check int) "event count" (7 + List.length r.Stats.pe_usage) (List.length events);
    let durs =
      List.filter_map
        (fun e -> match Json.member_opt "dur" e with Some d -> Result.to_option (Json.to_float d) | None -> None)
        events
    in
    Alcotest.(check int) "one span per task" 7 (List.length durs);
    List.iter (fun d -> Alcotest.(check bool) "positive duration" true (d > 0.0)) durs

let test_gantt_renders () =
  let r = run_validation (cfg_3c2f ()) [ (Reference_apps.wifi_tx (), 1) ] in
  let g = Stats.gantt ~width:50 r in
  Alcotest.(check bool) "mentions app" true
    (let rec contains i =
       i + 7 <= String.length g && (String.sub g i 7 = "wifi_tx" || contains (i + 1))
     in
     contains 0);
  (* one row per PE plus legend and axis *)
  Alcotest.(check bool) "row count" true
    (List.length (String.split_on_char '\n' g) >= List.length r.Stats.pe_usage + 2)

(* ---------------------- Native engine ---------------------- *)

let test_native_engine_functional () =
  let spec = Reference_apps.wifi_rx () in
  let wl = Workload.validation [ (spec, 1) ] in
  let config = Config.zcu102_cores_ffts ~cores:2 ~ffts:1 in
  match Emulator.run_detailed ~engine:(Emulator.native_seeded 7L) ~config ~workload:wl () with
  | Error msg -> Alcotest.fail msg
  | Ok (report, instances) ->
    Alcotest.(check int) "all tasks ran" 9 (Stats.record_count report);
    Alcotest.(check int) "crc ok" 1 (Store.get_i32 instances.(0).Task.store "crc_ok");
    Alcotest.(check bool) "wall clock advanced" true (report.Stats.makespan_ns > 0)

let test_native_matches_virtual_functionally () =
  let spec = Reference_apps.range_detection () in
  let wl = Workload.validation [ (spec, 1) ] in
  let config = Config.zcu102_cores_ffts ~cores:2 ~ffts:0 in
  let _, vi =
    Virtual_engine.run_detailed
      ~params:{ Dssoc_runtime.Engine_core.seed = 1L; jitter = 0.0; reservation_depth = 0 }
      ~config ~workload:wl ~policy:Scheduler.frfs ()
  in
  let _, ni = Result.get_ok (Emulator.run_detailed ~engine:(Emulator.native_seeded 7L) ~config ~workload:wl ()) in
  Alcotest.(check int) "same lag" (Store.get_i32 vi.(0).Task.store "lag")
    (Store.get_i32 ni.(0).Task.store "lag")

(* The native workload manager's overhead is the wall time of the ticks
   that did work (harvested a completion, injected or ran the policy);
   counting every tick of a polling wait read 18-84% of this run's
   makespan in 28 runs, never less.  A single wall-clock reading on a
   host with fewer cores than threads is noisy: a tick counts in full
   while a resource manager it woke holds its core, which read 15-71% in
   24 of 40 runs on two cores.  So some run of twenty must read at most
   10%. *)
let test_native_wm_overhead () =
  let config = Config.zcu102_cores_ffts ~cores:2 ~ffts:1 in
  let workload =
    Workload.validation [ (Reference_apps.wifi_rx (), 1); (Reference_apps.range_detection (), 1) ]
  in
  let engine = Emulator.native_seeded ~reservation_depth:1 3L in
  let rec best left acc =
    if left = 0 || acc <= 0.10 then acc
    else begin
      let r = Result.get_ok (Emulator.run ~engine ~config ~workload ()) in
      let share = float_of_int r.Stats.wm_overhead_ns /. float_of_int r.Stats.makespan_ns in
      best (left - 1) (Float.min acc share)
    end
  in
  let b = best 20 infinity in
  Alcotest.(check bool)
    (Printf.sprintf "WM overhead at most 10%% of the makespan (best: %.1f%%)" (100. *. b))
    true (b <= 0.10)

(* ---------------------- Scheduler property tests ---------------------- *)

(* A pool of heterogeneous tasks drawn from three reference apps, with
   disjoint id ranges so "same task assigned twice" is detectable. *)
let sched_task_pool () =
  let inst base inst_id spec = (Task.instantiate ~task_id_base:base ~inst_id ~arrival_ns:0 spec).Task.tasks in
  Array.concat
    [
      inst 0 0 (Reference_apps.range_detection ());
      inst 100 1 (Reference_apps.wifi_tx ());
      inst 200 2 (Reference_apps.wifi_rx ());
    ]

let sched_pe_kinds = [| Pe.Cpu Pe.a53; Pe.Cpu Pe.a15_big; Pe.Cpu Pe.a7_little; Pe.Accel Pe.zynq_fft |]

let sched_policy_names = [ "FRFS"; "MET"; "EFT"; "RANDOM"; "POWER" ]

type sched_scenario = {
  sc_kinds : int list;  (** indices into sched_pe_kinds *)
  sc_busy : bool list;  (** per-PE: initially busy? *)
  sc_tasks : int list;  (** indices into the task pool *)
  sc_seed : int;
}

let sched_scenario_gen =
  QCheck.Gen.(
    int_range 1 6 >>= fun n_pes ->
    list_size (return n_pes) (int_range 0 (Array.length sched_pe_kinds - 1)) >>= fun sc_kinds ->
    list_size (return n_pes) bool >>= fun sc_busy ->
    int_range 1 8 >>= fun n_ready ->
    list_size (return n_ready) (int_range 0 1000) >>= fun sc_tasks ->
    int_range 1 100_000 >>= fun sc_seed -> return { sc_kinds; sc_busy; sc_tasks; sc_seed })

let sched_scenario_print sc =
  Printf.sprintf "pes=[%s] busy=[%s] tasks=[%s] seed=%d"
    (String.concat ";" (List.map string_of_int sc.sc_kinds))
    (String.concat ";" (List.map string_of_bool sc.sc_busy))
    (String.concat ";" (List.map string_of_int sc.sc_tasks))
    sc.sc_seed

let sched_scenario_setup sc =
  let pool = sched_task_pool () in
  let ready =
    (* dedupe: a real ready list never contains the same task twice *)
    List.sort_uniq compare (List.map (fun i -> i mod Array.length pool) sc.sc_tasks)
    |> List.map (fun i -> pool.(i))
  in
  let pes =
    Array.of_list
      (List.mapi
         (fun i (k, busy) ->
           {
             Scheduler.pe = Pe.make ~id:i ~kind:sched_pe_kinds.(k);
             idle = not busy;
             busy_until = (if busy then 50_000 else 0);
             available = true;
           })
         (List.combine sc.sc_kinds sc.sc_busy))
  in
  (ready, pes)

(* The core safety invariants every policy must uphold in a single
   scheduling invocation: only originally-idle PEs that support the
   task are targeted, no PE receives two tasks, no task is assigned
   twice. *)
let prop_policies_respect_assignment_invariants =
  QCheck.Test.make ~name:"all policies: assignments target idle supporting PEs, no duplicates"
    ~count:200
    (QCheck.make ~print:sched_scenario_print sched_scenario_gen)
    (fun sc ->
      List.for_all
        (fun policy_name ->
          let ready, pes = sched_scenario_setup sc in
          let originally_idle = Array.map (fun p -> p.Scheduler.idle) pes in
          let ctx =
            {
              Scheduler.now = 0;
              ready = Array.of_list ready;
              nready = List.length ready;
              pes;
              estimate = (fun t i -> Exec_model.estimate_ns t pes.(i).Scheduler.pe);
              prng = Prng.create ~seed:(Int64.of_int sc.sc_seed);
              ops = 0;
            }
          in
          let policy = Result.get_ok (Scheduler.find policy_name) in
          let assignments = policy.Scheduler.schedule ctx in
          let seen_pes = Hashtbl.create 8 in
          let seen_tasks = Hashtbl.create 8 in
          List.for_all
            (fun a ->
              let i = a.Scheduler.pe_index in
              let t = a.Scheduler.task in
              let in_range = i >= 0 && i < Array.length pes in
              in_range
              && originally_idle.(i)
              && Task.supports t pes.(i).Scheduler.pe
              && List.memq t ready
              && (not (Hashtbl.mem seen_pes i))
              && not (Hashtbl.mem seen_tasks t.Task.id)
              |> fun ok ->
              Hashtbl.replace seen_pes i ();
              Hashtbl.replace seen_tasks t.Task.id ();
              ok)
            assignments)
        sched_policy_names)

(* On an all-idle system EFT's look-ahead must never pick a PE that
   finishes later than MET's pure minimum-execution-time choice. *)
let prop_eft_no_worse_than_met_when_all_idle =
  QCheck.Test.make ~name:"EFT finish <= MET finish on an all-idle system" ~count:200
    (QCheck.make ~print:sched_scenario_print sched_scenario_gen)
    (fun sc ->
      let sc = { sc with sc_busy = List.map (fun _ -> false) sc.sc_busy } in
      let pool = sched_task_pool () in
      let task = pool.(List.hd sc.sc_tasks mod Array.length pool) in
      let run policy_name =
        let _, pes = sched_scenario_setup sc in
        let ctx =
          {
            Scheduler.now = 0;
            ready = [| task |];
            nready = 1;
            pes;
            estimate = (fun t i -> Exec_model.estimate_ns t pes.(i).Scheduler.pe);
            prng = Prng.create ~seed:(Int64.of_int sc.sc_seed);
            ops = 0;
          }
        in
        ((Result.get_ok (Scheduler.find policy_name)).Scheduler.schedule ctx, pes)
      in
      match (run "EFT", run "MET") with
      | ([ e ], e_pes), ([ m ], m_pes) ->
        let finish pes (a : Scheduler.assignment) =
          Exec_model.estimate_ns task pes.(a.Scheduler.pe_index).Scheduler.pe
        in
        finish e_pes e <= finish m_pes m
      | ([], _), ([], _) -> true (* no supporting PE in the drawn kinds *)
      | _ -> false (* one policy found a placement the other missed *))

(* Oracle for the built-in policies: the straightforward full-window
   walks (every task examined against every PE, one [ops] per pair).
   The library's versions stop once no PE is idle and charge [ops] in
   one step; on any window — duplicates, busy and unavailable PEs,
   arbitrary [busy_until] — they must return the same assignments,
   leave the same PE states and [ops], and draw the same random
   numbers. *)
module Ref_policy = struct
  open Scheduler

  let iter_ready f ctx =
    for j = 0 to ctx.nready - 1 do
      f ctx.ready.(j)
    done

  let frfs ctx =
    let out = ref [] in
    iter_ready
      (fun task ->
        let chosen = ref None in
        Array.iteri
          (fun i st ->
            ctx.ops <- ctx.ops + 1;
            if !chosen = None && st.idle && Task.supports task st.pe then chosen := Some i)
          ctx.pes;
        match !chosen with
        | Some i ->
          ctx.pes.(i).idle <- false;
          out := { task; pe_index = i } :: !out
        | None -> ())
      ctx;
    List.rev !out

  let met ctx =
    let out = ref [] in
    iter_ready
      (fun task ->
        let best = ref None in
        Array.iteri
          (fun i st ->
            ctx.ops <- ctx.ops + 1;
            if st.idle && Task.supports task st.pe then begin
              let est = ctx.estimate task i in
              match !best with
              | Some (_, best_est) when best_est <= est -> ()
              | _ -> best := Some (i, est)
            end)
          ctx.pes;
        match !best with
        | Some (i, _) ->
          ctx.pes.(i).idle <- false;
          out := { task; pe_index = i } :: !out
        | None -> ())
      ctx;
    List.rev !out

  let eft ctx =
    let avail = Array.map (fun st -> if st.idle then ctx.now else st.busy_until) ctx.pes in
    let out = ref [] in
    iter_ready
      (fun task ->
        let best = ref None in
        Array.iteri
          (fun i st ->
            ctx.ops <- ctx.ops + 1;
            if st.available && Task.supports task st.pe then begin
              let finish = max ctx.now avail.(i) + ctx.estimate task i in
              match !best with
              | Some (_, best_finish) when best_finish <= finish -> ()
              | _ -> best := Some (i, finish)
            end)
          ctx.pes;
        match !best with
        | None -> ()
        | Some (i, finish) ->
          avail.(i) <- finish;
          if ctx.pes.(i).idle then begin
            ctx.pes.(i).idle <- false;
            out := { task; pe_index = i } :: !out
          end)
      ctx;
    List.rev !out

  let power ctx =
    let out = ref [] in
    iter_ready
      (fun task ->
        let best = ref None in
        Array.iteri
          (fun i st ->
            ctx.ops <- ctx.ops + 1;
            if st.idle && Task.supports task st.pe then begin
              let est = ctx.estimate task i in
              let energy = float_of_int est *. Pe.busy_w st.pe.Pe.kind in
              match !best with
              | Some (_, best_energy, best_est)
                when best_energy < energy || (best_energy = energy && best_est <= est) ->
                ()
              | _ -> best := Some (i, energy, est)
            end)
          ctx.pes;
        match !best with
        | Some (i, _, _) ->
          ctx.pes.(i).idle <- false;
          out := { task; pe_index = i } :: !out
        | None -> ())
      ctx;
    List.rev !out

  let random ctx =
    let out = ref [] in
    iter_ready
      (fun task ->
        let candidates = ref [] in
        Array.iteri
          (fun i st ->
            ctx.ops <- ctx.ops + 1;
            if st.idle && Task.supports task st.pe then candidates := i :: !candidates)
          ctx.pes;
        match !candidates with
        | [] -> ()
        | cs ->
          let i = Prng.choose ctx.prng (Array.of_list cs) in
          ctx.pes.(i).idle <- false;
          out := { task; pe_index = i } :: !out)
      ctx;
    List.rev !out

  let all = [ (Scheduler.frfs, frfs); (Scheduler.met, met); (Scheduler.eft, eft); (Scheduler.power, power); (Scheduler.random, random) ]
end

type pe_draw = Idle | Busy | Unavailable

type window_scenario = {
  w_pes : (int * pe_draw * int) list;  (** kind index, state, busy_until *)
  w_ready : int list;  (** pool indices, repeats allowed *)
  w_now : int;
  w_seed : int;
}

let window_scenario_gen =
  QCheck.Gen.(
    int_range 1 6 >>= fun n_pes ->
    list_size (return n_pes)
      (triple
         (int_range 0 (Array.length sched_pe_kinds - 1))
         (frequency [ (3, return Idle); (2, return Busy); (1, return Unavailable) ])
         (int_range 0 200_000))
    >>= fun w_pes ->
    int_range 0 14 >>= fun n_ready ->
    (* a small index range makes repeated entries common *)
    list_size (return n_ready) (int_range 0 24) >>= fun w_ready ->
    int_range 0 100_000 >>= fun w_now ->
    int_range 1 100_000 >>= fun w_seed -> return { w_pes; w_ready; w_now; w_seed })

let window_scenario_print w =
  Printf.sprintf "pes=[%s] ready=[%s] now=%d seed=%d"
    (String.concat ";"
       (List.map
          (fun (k, d, b) ->
            Printf.sprintf "%d/%s/%d" k
              (match d with Idle -> "idle" | Busy -> "busy" | Unavailable -> "off")
              b)
          w.w_pes))
    (String.concat ";" (List.map string_of_int w.w_ready))
    w.w_now w.w_seed

let prop_policies_match_full_walk =
  QCheck.Test.make ~name:"built-in policies match the full-window reference walks" ~count:500
    (QCheck.make ~print:window_scenario_print window_scenario_gen)
    (fun w ->
      let pool = sched_task_pool () in
      let ready = Array.of_list (List.map (fun i -> pool.(i mod Array.length pool)) w.w_ready) in
      let run schedule =
        let pes =
          Array.of_list
            (List.mapi
               (fun i (k, d, busy_until) ->
                 {
                   Scheduler.pe = Pe.make ~id:i ~kind:sched_pe_kinds.(k);
                   idle = d = Idle;
                   busy_until;
                   available = d <> Unavailable;
                 })
               w.w_pes)
        in
        let prng = Prng.create ~seed:(Int64.of_int w.w_seed) in
        let ctx =
          {
            Scheduler.now = w.w_now;
            ready = Array.append ready [| pool.(0) |] (* stale slot past [nready] *);
            nready = Array.length ready;
            pes;
            estimate = (fun t i -> Exec_model.estimate_ns t pes.(i).Scheduler.pe);
            prng;
            ops = 0;
          }
        in
        let assignments =
          List.map
            (fun (a : Scheduler.assignment) -> (a.Scheduler.task.Task.id, a.Scheduler.pe_index))
            (schedule ctx)
        in
        (assignments, ctx.Scheduler.ops, Array.map (fun p -> p.Scheduler.idle) pes, Prng.state prng)
      in
      List.for_all
        (fun (policy, reference) -> run policy.Scheduler.schedule = run reference)
        Ref_policy.all)

let prop_virtual_deterministic_across_policies =
  QCheck.Test.make ~name:"virtual engine deterministic per (seed, policy)" ~count:8
    (QCheck.make
       ~print:(fun (s, p) -> Printf.sprintf "seed=%d policy=%s" s p)
       QCheck.Gen.(pair (int_range 1 1000) (oneofl [ "FRFS"; "MET"; "EFT"; "RANDOM" ])))
    (fun (seed, policy) ->
      let engine = Emulator.virtual_seeded ~jitter:0.02 (Int64.of_int seed) in
      let spec = Reference_apps.wifi_tx () in
      let run () = run_validation ~policy ~engine (cfg_3c2f ()) [ (spec, 2) ] in
      (run ()).Stats.makespan_ns = (run ()).Stats.makespan_ns)

let () =
  Alcotest.run "runtime"
    [
      ( "task",
        [
          Alcotest.test_case "instantiate" `Quick test_instantiate;
          Alcotest.test_case "platform matching" `Quick test_supports_generic_cpu;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "frfs order" `Quick test_frfs_order;
          Alcotest.test_case "frfs skips unsupported" `Quick test_frfs_skips_unsupported;
          Alcotest.test_case "met min exec" `Quick test_met_picks_min_exec;
          Alcotest.test_case "eft waits for favorite" `Quick test_eft_waits_for_busy_favorite;
          Alcotest.test_case "eft falls back to idle" `Quick test_eft_uses_idle_when_better;
          Alcotest.test_case "random deterministic" `Quick test_random_deterministic_with_seed;
          Alcotest.test_case "registry" `Quick test_registry;
          Alcotest.test_case "overhead model" `Quick test_overhead_model;
          qtest prop_policies_respect_assignment_invariants;
          qtest prop_eft_no_worse_than_met_when_all_idle;
          qtest prop_policies_match_full_walk;
        ] );
      ( "exec_model",
        [
          Alcotest.test_case "core scaling" `Quick test_estimate_scales_with_core;
          Alcotest.test_case "unsupported" `Quick test_estimate_unsupported;
          Alcotest.test_case "table matches recomputation" `Quick
            test_estimate_table_matches_recomputation;
          Alcotest.test_case "class rows match cost and fabric models" `Quick
            test_class_rows_match_models;
        ] );
      ( "virtual_engine",
        [
          Alcotest.test_case "range detection functional" `Quick test_rd_emulation_functional;
          Alcotest.test_case "wifi rx functional" `Quick test_wifi_rx_emulation_functional;
          Alcotest.test_case "determinism" `Quick test_determinism_same_seed;
          Alcotest.test_case "jitter variance" `Quick test_jitter_produces_variance;
          Alcotest.test_case "unsupported task" `Quick test_unsupported_task_rejected;
          Alcotest.test_case "unknown policy" `Quick test_unknown_policy_rejected;
          Alcotest.test_case "report invariants" `Slow test_report_invariants;
          Alcotest.test_case "dependency order" `Quick test_predecessors_complete_first;
          Alcotest.test_case "more cores faster" `Slow test_more_cores_faster;
          Alcotest.test_case "2C+2F plateau" `Slow test_2c2f_plateau;
          Alcotest.test_case "all policies complete" `Slow test_policies_complete_workload;
          Alcotest.test_case "performance mode" `Slow test_performance_mode_run;
          Alcotest.test_case "odroid portability" `Quick test_odroid_runs_same_apps;
          Alcotest.test_case "utilization bounds" `Slow test_utilization_bounds;
          qtest prop_virtual_deterministic_across_policies;
        ] );
      ( "extensions",
        [
          Alcotest.test_case "reservation reduces overhead" `Slow test_reservation_queue_reduces_overhead;
          Alcotest.test_case "reservation functional" `Quick test_reservation_preserves_functional_output;
          Alcotest.test_case "reservation dependency order" `Quick test_reservation_dependency_order;
          Alcotest.test_case "power policy" `Quick test_power_policy_prefers_efficient_core;
          Alcotest.test_case "energy accounting" `Quick test_energy_accounting;
          Alcotest.test_case "chrome trace" `Quick test_chrome_trace;
          Alcotest.test_case "gantt" `Quick test_gantt_renders;
        ] );
      ( "native_engine",
        [
          Alcotest.test_case "functional run" `Slow test_native_engine_functional;
          Alcotest.test_case "matches virtual" `Slow test_native_matches_virtual_functionally;
          Alcotest.test_case "WM overhead counts working ticks" `Quick test_native_wm_overhead;
        ] );
    ]
