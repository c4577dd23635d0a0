(* Emulation-as-a-service: admission control, backpressure, watchdog,
   checkpoint/restore determinism. *)

module Server = Dssoc_serve.Server
module Scheduler = Dssoc_runtime.Scheduler
module Config = Dssoc_soc.Config
module Obs = Dssoc_obs.Obs

let policy =
  match Scheduler.find "FRFS" with Ok p -> p | Error e -> failwith e

let config = Config.zcu102_cores_ffts ~cores:3 ~ffts:1

let tenants_exn s =
  match Server.tenants_of_spec s with Ok t -> t | Error e -> failwith e

let admission_exn s =
  match Server.admission_of_spec s with Ok a -> a | Error e -> failwith e

let mk_spec ?(admission = Server.default_admission) ?(duration_ms = 2.0) ?(seed = 7L)
    tenants =
  {
    Server.sp_config = config;
    sp_policy = policy;
    sp_seed = seed;
    sp_jitter = 0.0;
    sp_duration_ms = duration_ms;
    sp_admission = admission;
    sp_tenants = tenants_exn tenants;
  }

let run_exn ?obs ?drain ?checkpoint ?restore spec =
  match Server.run ?obs ?drain ?checkpoint ?restore spec with
  | Ok oc -> oc
  | Error e -> failwith e

let tenant oc name =
  match List.find_opt (fun tr -> tr.Server.tr_name = name) oc.Server.oc_tenants with
  | Some tr -> tr
  | None -> failwith ("no tenant " ^ name)

let tmp_name =
  let n = ref 0 in
  fun suffix ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dssoc_serve_%d_%d_%s" (Unix.getpid ()) !n suffix)

(* ------------------------------- specs ------------------------------ *)

let test_tenant_spec_parses () =
  let ts = tenants_exn "a:apps=wifi_tx*2+range_detection:rate=1.5:prio=3:slo=4ms;b:apps=wifi_rx:rate=0.5" in
  Alcotest.(check int) "two tenants" 2 (List.length ts);
  let a = List.hd ts in
  Alcotest.(check string) "name" "a" a.Server.tn_name;
  Alcotest.(check (list (pair string int)))
    "mix" [ ("wifi_tx", 2); ("range_detection", 1) ] a.Server.tn_apps;
  Alcotest.(check int) "prio" 3 a.Server.tn_priority;
  Alcotest.(check (float 1e-9)) "slo" 4.0 a.Server.tn_slo_ms;
  let b = List.nth ts 1 in
  Alcotest.(check int) "default prio" 0 b.Server.tn_priority

let test_tenant_spec_rejects () =
  List.iter
    (fun s ->
      match Server.tenants_of_spec s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [
      "";
      "a:rate=1.0";
      "a:apps=wifi_tx";
      "a:apps=wifi_tx:rate=0";
      "a:apps=wifi_tx:rate=1:bogus=3";
      "a:apps=wifi_tx*0:rate=1";
      "a:apps=wifi_tx:rate=1;a:apps=wifi_rx:rate=1";
      "rate=1:apps=wifi_tx";
    ]

let test_admission_spec () =
  let a = admission_exn "policy=degrade:queue=4:max-ready=32:timeout=2ms" in
  Alcotest.(check string) "policy" "degrade" (Server.overload_name a.Server.ad_policy);
  Alcotest.(check int) "queue" 4 a.Server.ad_queue;
  Alcotest.(check int) "max-ready" 32 a.Server.ad_max_ready;
  Alcotest.(check int) "timeout" 2_000_000 a.Server.ad_timeout_ns;
  (match Server.admission_of_spec "" with
  | Ok a -> Alcotest.(check string) "default" "shed" (Server.overload_name a.Server.ad_policy)
  | Error e -> failwith e);
  List.iter
    (fun s ->
      match Server.admission_of_spec s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [ "policy=lossy"; "queue=0"; "queue=x"; "nonsense"; "timeout=abc" ]

let test_materialize_deterministic () =
  let spec = mk_spec "a:apps=wifi_tx:rate=2.0;b:apps=range_detection:rate=1.0" in
  let x = Server.materialize_debug spec and y = Server.materialize_debug spec in
  Alcotest.(check bool) "same schedule" true (x = y);
  Alcotest.(check bool) "nonempty" true (List.length x > 0);
  let sorted = List.sort compare (List.map (fun (t, ti, seq, _) -> (t, ti, seq)) x) in
  Alcotest.(check bool) "time-sorted" true
    (sorted = List.map (fun (t, ti, seq, _) -> (t, ti, seq)) x)

(* ----------------------------- basic runs --------------------------- *)

let test_underload_completes_everything () =
  let spec = mk_spec ~duration_ms:3.0 "a:apps=range_detection:rate=0.8:slo=3ms" in
  let oc = run_exn spec in
  let tr = tenant oc "a" in
  Alcotest.(check bool) "offered some" true (tr.Server.tr_offered > 0);
  Alcotest.(check int) "admitted all" tr.Server.tr_offered tr.Server.tr_admitted;
  Alcotest.(check int) "completed all" tr.Server.tr_offered tr.Server.tr_completed;
  Alcotest.(check int) "no shed" 0 tr.Server.tr_shed;
  Alcotest.(check string) "verdict" "ok" tr.Server.tr_verdict;
  Alcotest.(check bool) "digest chained" true (String.length tr.Server.tr_digest = 32);
  Array.iter
    (fun d -> Alcotest.(check string) "disposition" "completed" (Server.disposition_name d))
    oc.Server.oc_dispositions

let test_run_deterministic () =
  let spec = mk_spec ~duration_ms:3.0 "a:apps=wifi_tx:rate=1.0;b:apps=range_detection:rate=1.5" in
  let a = run_exn spec and b = run_exn spec in
  Alcotest.(check string) "reports byte-identical" (Server.render_report a)
    (Server.render_report b);
  Alcotest.(check bool) "dispositions equal" true
    (a.Server.oc_dispositions = b.Server.oc_dispositions)

(* ------------------------- overload policies ------------------------ *)

let saturating = "hog:apps=range_detection:rate=40.0:slo=1ms"

let test_shed_keeps_server_live () =
  let admission = admission_exn "policy=shed:queue=8:max-ready=24" in
  let obs = Obs.make ~metrics:(Obs.Metrics.create ()) () in
  let spec = mk_spec ~admission ~duration_ms:2.0 saturating in
  let oc = run_exn ~obs spec in
  let tr = tenant oc "hog" in
  Alcotest.(check bool) "shed some" true (tr.Server.tr_shed > 0);
  Alcotest.(check int) "admitted work all completed" tr.Server.tr_admitted
    tr.Server.tr_completed;
  Alcotest.(check int) "offered = completed + shed"
    tr.Server.tr_offered
    (tr.Server.tr_completed + tr.Server.tr_shed);
  Alcotest.(check string) "verdict" "shed" tr.Server.tr_verdict;
  (* every rejected instance carries the typed disposition *)
  let shed_count =
    Array.fold_left
      (fun acc d -> if d = Server.Rejected then acc + 1 else acc)
      0 oc.Server.oc_dispositions
  in
  Alcotest.(check int) "typed Rejected dispositions" tr.Server.tr_shed shed_count;
  (* backpressure bounds the ready list: max_ready plus one instance's
     entry burst *)
  let m = Option.get (Obs.metrics obs) in
  let g = Option.get (Obs.Metrics.find_gauge m "ready_queue_depth") in
  Alcotest.(check bool) "ready depth bounded" true (Obs.Metrics.gauge_max g <= 24 + 6)

let test_block_sheds_nothing () =
  let admission = admission_exn "policy=block:queue=4:max-ready=16" in
  let spec = mk_spec ~admission ~duration_ms:1.0 saturating in
  let oc = run_exn spec in
  let tr = tenant oc "hog" in
  Alcotest.(check int) "no shed" 0 tr.Server.tr_shed;
  Alcotest.(check int) "everything offered completes" tr.Server.tr_offered
    tr.Server.tr_completed;
  Alcotest.(check string) "verdict" "ok" tr.Server.tr_verdict

let test_degrade_protects_high_priority () =
  let admission = admission_exn "policy=degrade:queue=6:max-ready=12" in
  let spec =
    mk_spec ~admission ~duration_ms:2.0
      "gold:apps=range_detection:rate=8.0:prio=2:slo=2ms;best_effort:apps=range_detection:rate=30.0:prio=0:slo=2ms"
  in
  let oc = run_exn spec in
  let gold = tenant oc "gold" and be = tenant oc "best_effort" in
  Alcotest.(check bool) "low priority absorbs shedding" true (be.Server.tr_shed > 0);
  Alcotest.(check int) "high priority never shed" 0 gold.Server.tr_shed;
  Alcotest.(check int) "gold completes everything" gold.Server.tr_offered
    gold.Server.tr_completed;
  (* the SLO shield: gold's p95 stays under its bound while best-effort
     runs saturated *)
  Alcotest.(check bool) "gold keeps its SLO" true
    (gold.Server.tr_p95_ms <= gold.Server.tr_slo_ms);
  Alcotest.(check bool) "report is ordered by priority" true
    (List.map (fun tr -> tr.Server.tr_name) oc.Server.oc_tenants
    = [ "gold"; "best_effort" ])

let test_watchdog_times_out () =
  let admission = admission_exn "policy=block:queue=64:max-ready=8:timeout=300us" in
  let spec = mk_spec ~admission ~duration_ms:1.0 saturating in
  let oc = run_exn spec in
  let tr = tenant oc "hog" in
  Alcotest.(check bool) "timed out some" true (tr.Server.tr_timed_out > 0);
  Alcotest.(check int) "admitted = completed + timed out" tr.Server.tr_admitted
    (tr.Server.tr_completed + tr.Server.tr_timed_out);
  let typed =
    Array.fold_left
      (fun acc d -> if d = Server.Timed_out then acc + 1 else acc)
      0 oc.Server.oc_dispositions
  in
  Alcotest.(check int) "typed Timed_out dispositions" tr.Server.tr_timed_out typed

(* ------------------------- checkpoint/restore ----------------------- *)

let cmp_outcomes ~what (a : Server.outcome) (b : Server.outcome) =
  Alcotest.(check string) (what ^ ": report") (Server.render_report a)
    (Server.render_report b);
  Alcotest.(check int) (what ^ ": clock") a.Server.oc_clock_ns b.Server.oc_clock_ns;
  Alcotest.(check bool) (what ^ ": dispositions") true
    (a.Server.oc_dispositions = b.Server.oc_dispositions);
  List.iter2
    (fun x y ->
      Alcotest.(check string) (what ^ ": digest " ^ x.Server.tr_name) x.Server.tr_digest
        y.Server.tr_digest)
    a.Server.oc_tenants b.Server.oc_tenants

let restore_matches_uninterrupted ~drain_ns spec =
  let reference = run_exn spec in
  let path = tmp_name "ckpt.json" in
  let oc1 =
    run_exn ~drain:(fun ~now_ns -> now_ns >= drain_ns) ~checkpoint:path spec
  in
  let final =
    if oc1.Server.oc_drained then begin
      Alcotest.(check bool) "checkpoint written" true (Sys.file_exists path);
      run_exn ~restore:path spec
    end
    else oc1 (* drain point beyond the natural end: nothing to restore *)
  in
  cmp_outcomes ~what:(Printf.sprintf "drain@%d" drain_ns) reference final;
  if Sys.file_exists path then Sys.remove path

let test_checkpoint_restore_exact () =
  let spec =
    mk_spec ~duration_ms:3.0 "a:apps=wifi_tx:rate=1.2:slo=3ms;b:apps=range_detection:rate=2.0:slo=2ms"
  in
  restore_matches_uninterrupted ~drain_ns:1_000_000 spec

let test_checkpoint_restore_under_shedding () =
  let admission = admission_exn "policy=shed:queue=6:max-ready=16" in
  let spec = mk_spec ~admission ~duration_ms:2.0 "hog:apps=range_detection:rate=20.0:slo=1ms" in
  restore_matches_uninterrupted ~drain_ns:700_000 spec

let test_restore_rejects_wrong_spec () =
  let spec = mk_spec ~duration_ms:3.0 "a:apps=wifi_tx:rate=1.2" in
  let path = tmp_name "ckpt.json" in
  let oc = run_exn ~drain:(fun ~now_ns -> now_ns >= 500_000) ~checkpoint:path spec in
  Alcotest.(check bool) "drained" true oc.Server.oc_drained;
  let other = mk_spec ~duration_ms:3.0 ~seed:8L "a:apps=wifi_tx:rate=1.2" in
  let contains ~needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  (match Server.run ~restore:path other with
  | Error e ->
    Alcotest.(check bool) "mentions fingerprint" true (contains ~needle:"fingerprint" e)
  | Ok _ -> Alcotest.fail "restore against a different spec must fail");
  Sys.remove path

let test_restore_qcheck =
  QCheck.Test.make ~count:8 ~name:"run = drain;checkpoint;restore at any point"
    QCheck.(int_range 1 28)
    (fun tenth_ms ->
      let spec =
        mk_spec ~duration_ms:3.0
          "a:apps=wifi_tx:rate=1.0:prio=1:slo=3ms;b:apps=range_detection:rate=3.0:slo=2ms"
          ~admission:(admission_exn "policy=shed:queue=8:max-ready=24")
      in
      restore_matches_uninterrupted ~drain_ns:(tenth_ms * 100_000) spec;
      true)

(* ---------------------------- golden runs --------------------------- *)

(* Server output pinned byte for byte: perfbench's serve-ramp specs at
   20 ms, a Block run whose watchdog fires, a drain/checkpoint/restore
   cycle (both reports and the checkpoint file) and a traced run (report,
   metrics and a digest of the event log).  Regenerate only for a
   deliberate change to the serve or engine model. *)

let ramp_spec ?(seed = 1L) ?(duration_ms = 20.0) rate =
  mk_spec ~seed ~duration_ms
    ~admission:(admission_exn "policy=degrade:queue=16:max-ready=64:timeout=20ms")
    (Printf.sprintf
       "gold:apps=range_detection+wifi_tx:rate=%g:prio=1:slo=3ms;bulk:apps=range_detection:rate=%g:prio=0:slo=10ms"
       (0.6 *. rate) (0.4 *. rate))

let golden_ramp_r5 =
  {|serve report: clock 19.966 ms, 2 tenants
tenant           prio  offered  admitted  completed  shed  timeout  thr/ms  p95_ms  slo_ms  slo_miss  verdict       digest
gold                1       77        77         77     0        0   3.857   0.425   3.000         0  ok            306b6a6b01aaf07344a53d601e4ec71b
bulk                0       40        40         40     0        0   2.003   0.414  10.000         0  ok            b06e7947ae528f4725b35b1bbf83c3be
total: offered 117, admitted 117, completed 117, shed 0, timed-out 0
|}

let golden_ramp_r10 =
  {|serve report: clock 20.136 ms, 2 tenants
tenant           prio  offered  admitted  completed  shed  timeout  thr/ms  p95_ms  slo_ms  slo_miss  verdict       digest
gold                1      140       140        140     0        0   6.953   1.521   3.000         0  ok            f85896b7b1d32797e614ba236939ad96
bulk                0       83        83         83     0        0   4.122   1.529  10.000         0  ok            fa7baa6c7694582ee5e270a5dff9cb9e
total: offered 223, admitted 223, completed 223, shed 0, timed-out 0
|}

let golden_ramp_r20 =
  {|serve report: clock 23.616 ms, 2 tenants
tenant           prio  offered  admitted  completed  shed  timeout  thr/ms  p95_ms  slo_ms  slo_miss  verdict       digest
gold                1      263       263        263     0        0  11.136   5.582   3.000       249  ok            e6d570077ed1f10513262bc2423f6aa9
bulk                0      156        65         65    91        0   2.752  17.423  10.000        24  shed          13467f641f76bcc53141f06946b017d1
total: offered 419, admitted 328, completed 328, shed 91, timed-out 0
|}

let golden_block_watchdog =
  {|serve report: clock 6.078 ms, 2 tenants
tenant           prio  offered  admitted  completed  shed  timeout  thr/ms  p95_ms  slo_ms  slo_miss  verdict       digest
a                   1       16        16         11     0        5   1.810   0.988   2.000         0  timeout       6528a33ac2f57062df74bc0716900d62
b                   0       56        56         31     0       25   5.101   0.942   3.000         0  timeout       fb64ce7338ad71814a600b46d1e1f53e
total: offered 72, admitted 72, completed 42, shed 0, timed-out 30
|}

let golden_drain_part =
  {|serve report: clock 5.258 ms, 2 tenants (drained)
tenant           prio  offered  admitted  completed  shed  timeout  thr/ms  p95_ms  slo_ms  slo_miss  verdict       digest
a                   0        9         9          9     0        0   1.712   0.186   4.000         0  ok            9a754febb174456885e795aa11988db9
b                   0       20        20         20     0        0   3.803   0.333   3.000         0  ok            ac1e97641f25770ccb3b8162b1247b68
total: offered 29, admitted 29, completed 29, shed 0, timed-out 0
|}

let golden_checkpoint =
  {|{
  "version": 1,
  "fingerprint": "a6a00c8656c5bd1a604b3ab02f34029d",
  "clock_ns": 5258345,
  "prng": [
    "7191089600892374487",
    "309689372594955804",
    "-1830642326893942270",
    "-7693578145408079413"
  ],
  "handlers": [
    {
      "busy_until": 5256945,
      "busy_ns": 3023876,
      "tasks_run": 96
    },
    {
      "busy_until": 4818212,
      "busy_ns": 1978020,
      "tasks_run": 53
    },
    {
      "busy_until": 4575257,
      "busy_ns": 1207122,
      "tasks_run": 27
    },
    {
      "busy_until": 4464408,
      "busy_ns": 491391,
      "tasks_run": 7
    }
  ],
  "tenants": [
    {
      "name": "a",
      "cursor": 9,
      "offered": 9,
      "admitted": 9,
      "completed": 9,
      "shed": 0,
      "timed_out": 0,
      "slo_miss": 0,
      "latencies": [
        97544,
        109185,
        107675,
        185912,
        106241,
        101643,
        97544,
        150241,
        97544
      ],
      "digest": "9a754febb174456885e795aa11988db9"
    },
    {
      "name": "b",
      "cursor": 20,
      "offered": 20,
      "admitted": 20,
      "completed": 20,
      "shed": 0,
      "timed_out": 0,
      "slo_miss": 0,
      "latencies": [
        261118,
        259222,
        259222,
        261098,
        259222,
        259222,
        264573,
        265619,
        271948,
        408662,
        332011,
        273262,
        325733,
        266588,
        259222,
        261557,
        278834,
        333397,
        267561,
        259222
      ],
      "digest": "ac1e97641f25770ccb3b8162b1247b68"
    }
  ],
  "dispositions": "CCCCCCCCCCCCCCCCCCCCCCCCCCCCCPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPP"
}
|}

let golden_restored =
  {|serve report: clock 11.987 ms, 2 tenants
tenant           prio  offered  admitted  completed  shed  timeout  thr/ms  p95_ms  slo_ms  slo_miss  verdict       digest
a                   0       19        19         19     0        0   1.585   0.617   4.000         0  ok            a5ad8cf0e5434cd1cb8b8c5c6179b4c8
b                   0       56        56         56     0        0   4.672   0.564   3.000         0  ok            788a8acdca3f5bb7ad46e39a3267d969
total: offered 75, admitted 75, completed 75, shed 0, timed-out 0
|}

let golden_uninterrupted =
  {|serve report: clock 11.987 ms, 2 tenants
tenant           prio  offered  admitted  completed  shed  timeout  thr/ms  p95_ms  slo_ms  slo_miss  verdict       digest
a                   0       19        19         19     0        0   1.585   0.617   4.000         0  ok            a5ad8cf0e5434cd1cb8b8c5c6179b4c8
b                   0       56        56         56     0        0   4.672   0.564   3.000         0  ok            788a8acdca3f5bb7ad46e39a3267d969
total: offered 75, admitted 75, completed 75, shed 0, timed-out 0
|}

let golden_traced_report =
  {|serve report: clock 23.616 ms, 2 tenants
tenant           prio  offered  admitted  completed  shed  timeout  thr/ms  p95_ms  slo_ms  slo_miss  verdict       digest
gold                1      263       263        263     0        0  11.136   5.582   3.000       249  ok            e6d570077ed1f10513262bc2423f6aa9
bulk                0      156        65         65    91        0   2.752  17.423  10.000        24  shed          13467f641f76bcc53141f06946b017d1
total: offered 419, admitted 328, completed 328, shed 91, timed-out 0
|}

let golden_traced_metrics =
  {|== metrics ==
  counter  instances_injected         328
  counter  tasks_dispatched           2088
  counter  tasks_completed            2088
  counter  sched_invocations          2087
  gauge    ready_queue_depth          last 0  max 66  (3290 samples)
  gauge    in_flight_tasks            last 0  max 4  (4173 samples)
  gauge    pe_queue_depth/cpu0        last 0  max 1  (830 samples)
  gauge    pe_queue_depth/cpu1        last 0  max 1  (1362 samples)
  gauge    pe_queue_depth/cpu2        last 0  max 1  (1354 samples)
  gauge    pe_queue_depth/fft3        last 0  max 1  (630 samples)
  hist     task_wait_us               n 2088  mean 659.063  p50 695.249  p95 830.023  max 956.408
  hist     task_service_us            n 2088  mean 38.166  p50 15.440  p95 126.535  max 148.129
  hist     sched_cost_us              n 2087  mean 2.250  p50 2.250  p95 2.250  max 2.250
  counter  faults_injected            0
  counter  task_retries               0
  counter  pe_quarantines             0
  gauge    event_heap_depth           last 196  max 196  (1997 samples)
|}

let golden_traced_events_md5 =
  {|24e7ed295af51d5ef9f181fd8271f287|}

let test_golden_ramp () =
  List.iter
    (fun (rate, golden) ->
      Alcotest.(check string) (Printf.sprintf "r%g report" rate) golden
        (Server.render_report (run_exn (ramp_spec rate))))
    [ (5.0, golden_ramp_r5); (10.0, golden_ramp_r10); (20.0, golden_ramp_r20) ]

let test_golden_block_watchdog () =
  let spec =
    mk_spec ~duration_ms:6.0
      ~admission:(admission_exn "policy=block:queue=8:max-ready=16:timeout=1ms")
      "a:apps=wifi_tx:rate=2:prio=1:slo=2ms;b:apps=range_detection:rate=12:slo=3ms"
  in
  Alcotest.(check string) "report" golden_block_watchdog (Server.render_report (run_exn spec))

let test_golden_drain_restore () =
  let spec =
    mk_spec ~duration_ms:12.0
      ~admission:(admission_exn "policy=shed:queue=8:max-ready=24")
      "a:apps=wifi_tx:rate=1.2:slo=4ms;b:apps=range_detection:rate=6:slo=3ms"
  in
  let path = tmp_name "ckpt.json" in
  let part = run_exn ~drain:(fun ~now_ns -> now_ns >= 5_000_000) ~checkpoint:path spec in
  Alcotest.(check string) "drained report" golden_drain_part (Server.render_report part);
  Alcotest.(check string) "checkpoint file" golden_checkpoint
    (In_channel.with_open_bin path In_channel.input_all);
  Alcotest.(check string) "restored report" golden_restored
    (Server.render_report (run_exn ~restore:path spec));
  Alcotest.(check string) "uninterrupted report" golden_uninterrupted
    (Server.render_report (run_exn spec));
  Sys.remove path

(* A resumed server starts where the uninterrupted one was parked: the
   restored run's event log and gauge samples are the uninterrupted
   run's after the checkpoint instant, one for one (a resumed workload
   manager that began with a tick instead of its deadline wait would
   add an event-heap sample). *)
let test_restore_replays_event_log () =
  let spec =
    mk_spec ~duration_ms:12.0
      ~admission:(admission_exn "policy=shed:queue=8:max-ready=24")
      "a:apps=wifi_tx:rate=1.2:slo=4ms;b:apps=range_detection:rate=6:slo=3ms"
  in
  let traced () =
    Obs.make ~sink:(Obs.Sink.ring ()) ~metrics:(Obs.Metrics.create ()) ()
  in
  let path = tmp_name "ckpt.json" in
  let part = run_exn ~drain:(fun ~now_ns -> now_ns >= 5_000_000) ~checkpoint:path spec in
  Alcotest.(check bool) "drained" true part.Server.oc_drained;
  let whole = traced () and rest = traced () in
  ignore (run_exn ~obs:whole spec);
  ignore (run_exn ~obs:rest ~restore:path spec);
  let after =
    List.filter (fun e -> e.Obs.t_ns > part.Server.oc_clock_ns) (Obs.recorded_events whole)
  in
  Alcotest.(check bool) "the restored run emitted events" true (Obs.recorded_events rest <> []);
  Alcotest.(check string) "event log after the checkpoint" (Obs.to_jsonl after)
    (Obs.to_jsonl (Obs.recorded_events rest));
  let series obs name =
    Obs.Metrics.gauge_series
      (Option.get (Obs.Metrics.find_gauge (Option.get (Obs.metrics obs)) name))
  in
  List.iter
    (fun name ->
      Alcotest.(check (list (pair int int)))
        (name ^ " after the checkpoint")
        (List.filter (fun (t, _) -> t > part.Server.oc_clock_ns) (series whole name))
        (series rest name))
    [ "event_heap_depth"; "ready_queue_depth"; "in_flight_tasks" ];
  Sys.remove path

let test_golden_traced () =
  let obs =
    Obs.make ~sink:(Obs.Sink.ring ()) ~metrics:(Obs.Metrics.create ()) ()
  in
  let oc = run_exn ~obs (ramp_spec 20.0) in
  Alcotest.(check string) "report" golden_traced_report (Server.render_report oc);
  Alcotest.(check string) "metrics" golden_traced_metrics
    (Format.asprintf "%a" Obs.Metrics.pp (Option.get (Obs.metrics obs)));
  Alcotest.(check string) "event log digest" golden_traced_events_md5
    (Digest.to_hex (Digest.string (Obs.to_jsonl (Obs.recorded_events obs))))

(* ------------------------ lazy arrival streams ---------------------- *)

let schedule_md5 sp =
  let b = Buffer.create 4096 in
  List.iter
    (fun (t, ti, seq, app) -> Buffer.add_string b (Printf.sprintf "%d %d %d %s\n" t ti seq app))
    (Server.materialize_debug sp);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* perfbench's serve-ramp schedules (200 ms at 5, 10 and 20 jobs/ms),
   pinned to digests of the schedules the server built before it drew
   its arrival streams lazily, when it materialized them all up front. *)
let test_ramp_schedules_pinned () =
  List.iter
    (fun (seed, rate, arrivals, md5) ->
      let sp = ramp_spec ~seed ~duration_ms:200.0 rate in
      let what = Printf.sprintf "seed %Ld, %g jobs/ms" seed rate in
      Alcotest.(check int) (what ^ ": arrivals") arrivals
        (List.length (Server.materialize_debug sp));
      Alcotest.(check string) (what ^ ": schedule digest") md5 (schedule_md5 sp))
    [
      (1L, 5.0, 1011, "d183c2504a4ba3266b8c37275ba499ac");
      (1L, 10.0, 2042, "cbdb30df899ea1b125a75524309d0472");
      (1L, 20.0, 4003, "491c8f74f810fa538c5fdb730a9d44d3");
      (2L, 5.0, 1086, "cff9b68b234bda2de2114a3df123c028");
      (2L, 10.0, 2053, "267db21974450675616860b7064b9c14");
      (2L, 20.0, 4071, "413e8e447e82af06880799ca30753310");
    ]

(* Random tenant sets: the lazily merged streams give the schedule the
   eager generator (test/eager_arrivals.ml) materializes. *)
let test_lazy_matches_eager =
  let gen =
    let open QCheck.Gen in
    let app = oneofl [ "wifi_tx"; "range_detection"; "wifi_rx" ] in
    let tenant i =
      let* mix = list_size (1 -- 3) (pair app (1 -- 3)) in
      let* rate = float_range 0.2 30.0 in
      let* seed = opt (0 -- 1000) in
      return
        (Printf.sprintf "t%d:apps=%s:rate=%g%s" i
           (String.concat "+" (List.map (fun (a, w) -> Printf.sprintf "%s*%d" a w) mix))
           rate
           (match seed with Some s -> Printf.sprintf ":seed=%d" s | None -> ""))
    in
    let* n = 1 -- 3 in
    let* tenants = flatten_l (List.init n tenant) in
    let* seed = 0 -- 10_000 in
    let* duration_ms = float_range 0.5 20.0 in
    return (String.concat ";" tenants, seed, duration_ms)
  in
  QCheck.Test.make ~count:100 ~name:"lazy arrival streams = eager materialization"
    (QCheck.make
       ~print:(fun (t, seed, d) -> Printf.sprintf "%s seed=%d duration=%gms" t seed d)
       gen)
    (fun (tenants, seed, duration_ms) ->
      let sp = mk_spec ~seed:(Int64.of_int seed) ~duration_ms tenants in
      Server.materialize_debug sp = Eager_arrivals.materialize sp)

(* The bounded-memory benchmark command's reports
   ([dssoc_emu serve --cores 3 --ffts 1 --tenants ... --admission ...
   --duration-ms D]), pinned to the reports of the server that built
   every arrival up front. *)
let test_window_reports_pinned () =
  let spec duration_ms =
    mk_spec ~seed:1L ~duration_ms
      ~admission:(admission_exn "policy=degrade:queue=16:max-ready=64:timeout=20ms")
      "gold:apps=range_detection+wifi_tx:rate=12:prio=1:slo=3ms;bulk:apps=range_detection:rate=8:prio=0:slo=10ms"
  in
  List.iter
    (fun (d, md5) ->
      Alcotest.(check string) (Printf.sprintf "%g ms report digest" d) md5
        (Digest.to_hex (Digest.string (Server.render_report (run_exn (spec d))))))
    [ (200.0, "ae24125275f2100c4fa7a8323f419fd1"); (2000.0, "7b743e48d1234d0118d4851d24b20f94") ]

(* ----------------------------- obs events --------------------------- *)

let test_serve_events_recorded () =
  let obs = Obs.make ~sink:(Obs.Sink.ring ()) ~metrics:(Obs.Metrics.create ()) () in
  let admission = admission_exn "policy=shed:queue=4:max-ready=12:timeout=600us" in
  let spec = mk_spec ~admission ~duration_ms:1.0 saturating in
  let _ = run_exn ~obs spec in
  let names =
    List.map
      (fun e ->
        match e.Obs.body with
        | Obs.Tenant_admitted _ -> "admitted"
        | Obs.Tenant_shed _ -> "shed"
        | Obs.Instance_timed_out _ -> "timeout"
        | _ -> "other")
      (Obs.recorded_events obs)
  in
  Alcotest.(check bool) "admissions seen" true (List.mem "admitted" names);
  Alcotest.(check bool) "sheds seen" true (List.mem "shed" names)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "serve"
    [
      ( "spec",
        [
          Alcotest.test_case "tenant grammar" `Quick test_tenant_spec_parses;
          Alcotest.test_case "tenant rejects" `Quick test_tenant_spec_rejects;
          Alcotest.test_case "admission grammar" `Quick test_admission_spec;
          Alcotest.test_case "deterministic schedule" `Quick test_materialize_deterministic;
          Alcotest.test_case "serve-ramp schedules pinned" `Quick test_ramp_schedules_pinned;
          q test_lazy_matches_eager;
        ] );
      ( "runs",
        [
          Alcotest.test_case "underload completes" `Quick test_underload_completes_everything;
          Alcotest.test_case "deterministic" `Quick test_run_deterministic;
        ] );
      ( "overload",
        [
          Alcotest.test_case "shed stays live" `Quick test_shed_keeps_server_live;
          Alcotest.test_case "block sheds nothing" `Quick test_block_sheds_nothing;
          Alcotest.test_case "degrade protects priority" `Quick test_degrade_protects_high_priority;
          Alcotest.test_case "watchdog" `Quick test_watchdog_times_out;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "restore is exact" `Quick test_checkpoint_restore_exact;
          Alcotest.test_case "restore under shedding" `Quick test_checkpoint_restore_under_shedding;
          Alcotest.test_case "wrong spec rejected" `Quick test_restore_rejects_wrong_spec;
          Alcotest.test_case "restore replays the event log" `Quick
            test_restore_replays_event_log;
          q test_restore_qcheck;
        ] );
      ("observability", [ Alcotest.test_case "serve events" `Quick test_serve_events_recorded ]);
      ( "golden",
        [
          Alcotest.test_case "serve-ramp reports" `Quick test_golden_ramp;
          Alcotest.test_case "block with watchdog" `Quick test_golden_block_watchdog;
          Alcotest.test_case "drain, checkpoint, restore" `Quick test_golden_drain_restore;
          Alcotest.test_case "traced run" `Quick test_golden_traced;
          Alcotest.test_case "window reports" `Slow test_window_reports_pinned;
        ] );
    ]
