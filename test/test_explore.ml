(* Tests of the parallel design-space exploration engine: the domain
   pool, seed derivation, grid enumeration, and the determinism
   contract (same grid => byte-identical serialized tables for any
   worker count). *)

module Pool = Dssoc_explore.Pool
module Grid = Dssoc_explore.Grid
module Sweep = Dssoc_explore.Sweep
module Presets = Dssoc_explore.Presets
module Config = Dssoc_soc.Config
module Workload = Dssoc_apps.Workload
module Reference_apps = Dssoc_apps.Reference_apps
module Prng = Dssoc_util.Prng
module Json = Dssoc_json.Json

(* ---------------------- Pool ---------------------- *)

let test_pool_map_identity () =
  List.iter
    (fun jobs ->
      let r = Pool.map ~jobs ~n:100 (fun i -> i * i) in
      Alcotest.(check int) "length" 100 (Array.length r);
      Array.iteri
        (fun i v -> Alcotest.(check int) (Printf.sprintf "slot %d (jobs=%d)" i jobs) (i * i) v)
        r)
    [ 1; 2; 7; 100; 200 ]

let test_pool_zero_items () =
  Alcotest.(check int) "empty" 0 (Array.length (Pool.map ~jobs:4 ~n:0 (fun i -> i)));
  Alcotest.check_raises "negative n" (Invalid_argument "Pool.map: negative item count") (fun () ->
      ignore (Pool.map ~jobs:4 ~n:(-1) (fun i -> i)))

exception Boom of int

let test_pool_exception_lowest_index () =
  (* Multiple failures: the lowest-index one must surface, whatever
     the worker count. *)
  List.iter
    (fun jobs ->
      match Pool.map ~jobs ~n:50 (fun i -> if i mod 10 = 7 then raise (Boom i) else i) with
      | _ -> Alcotest.fail "expected exception"
      | exception Boom i -> Alcotest.(check int) (Printf.sprintf "jobs=%d" jobs) 7 i)
    [ 1; 3; 8 ]

let test_pool_iter_covers_all () =
  let hits = Array.make 64 0 in
  (* each index is claimed exactly once, so unsynchronised writes to
     distinct slots are race-free *)
  Pool.iter ~jobs:4 ~n:64 (fun i -> hits.(i) <- hits.(i) + 1);
  Array.iteri (fun i h -> Alcotest.(check int) (Printf.sprintf "slot %d" i) 1 h) hits

(* ---------------------- Prng.derive_seed ---------------------- *)

let test_derive_seed_pure_and_distinct () =
  let s1 = Prng.derive_seed ~seed:42L ~index:5 in
  let s2 = Prng.derive_seed ~seed:42L ~index:5 in
  Alcotest.(check int64) "pure function of (seed, index)" s1 s2;
  let seeds = List.init 1000 (fun i -> Prng.derive_seed ~seed:42L ~index:i) in
  Alcotest.(check int) "all indices give distinct seeds" 1000
    (List.length (List.sort_uniq compare seeds));
  Alcotest.(check bool) "different base seeds diverge" true
    (Prng.derive_seed ~seed:1L ~index:0 <> Prng.derive_seed ~seed:2L ~index:0);
  Alcotest.check_raises "negative index" (Invalid_argument "Prng.derive_seed: negative index")
    (fun () -> ignore (Prng.derive_seed ~seed:1L ~index:(-1)))

let test_derive_streams_independent () =
  let a = Prng.derive ~seed:7L ~index:0 in
  let b = Prng.derive ~seed:7L ~index:1 in
  Alcotest.(check bool) "neighbouring streams differ" true (Prng.bits64 a <> Prng.bits64 b)

(* ---------------------- Grid ---------------------- *)

let small_grid ?(jitter = 0.02) ?(replicates = 3) () =
  let c1 = Config.zcu102_cores_ffts ~cores:1 ~ffts:0 in
  let c2 = Config.zcu102_cores_ffts ~cores:2 ~ffts:1 in
  Grid.make ~label:"small" ~replicates ~base_seed:42L ~jitter
    ~configs:[ (c1.Config.label, c1); (c2.Config.label, c2) ]
    ~policies:[ "FRFS"; "MET" ]
    ~workloads:
      [
        Grid.fixed_workload ~label:"tx" (Workload.validation [ (Reference_apps.wifi_tx (), 1) ]);
        Grid.fixed_workload ~label:"rd"
          (Workload.validation [ (Reference_apps.range_detection (), 1) ]);
      ]
    ()

let test_grid_size_and_order () =
  let g = small_grid () in
  Alcotest.(check int) "size = 2*2*2*3" 24 (Grid.size g);
  let pts = Grid.points g in
  Alcotest.(check int) "points = size" 24 (Array.length pts);
  Array.iteri (fun i p -> Alcotest.(check int) "indices sequential" i p.Grid.index) pts;
  (* row-major: configs, then policies, then workloads, then replicates *)
  Alcotest.(check string) "first config" "1Core+0FFT" pts.(0).Grid.config_label;
  Alcotest.(check string) "first policy" "FRFS" pts.(0).Grid.policy;
  Alcotest.(check string) "first workload" "tx" pts.(0).Grid.wl_label;
  Alcotest.(check int) "replicate varies fastest" 1 pts.(1).Grid.replicate;
  Alcotest.(check string) "workload next" "rd" pts.(3).Grid.wl_label;
  Alcotest.(check string) "policy after workloads" "MET" pts.(6).Grid.policy;
  Alcotest.(check string) "config slowest" "2Core+1FFT" pts.(12).Grid.config_label;
  (* seeds are the index-derived streams *)
  Array.iter
    (fun p ->
      Alcotest.(check int64) "seed = derive_seed(base, index)"
        (Prng.derive_seed ~seed:42L ~index:p.Grid.index)
        p.Grid.seed)
    pts

let test_grid_validation () =
  let c = Config.zcu102_cores_ffts ~cores:1 ~ffts:0 in
  let configs = [ (c.Config.label, c) ] in
  let wl = [ Grid.fixed_workload ~label:"w" (Workload.validation [ (Reference_apps.wifi_tx (), 1) ]) ] in
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "empty configs" true
    (raises (fun () -> Grid.make ~configs:[] ~policies:[ "FRFS" ] ~workloads:wl ()));
  Alcotest.(check bool) "empty policies" true
    (raises (fun () -> Grid.make ~configs ~policies:[] ~workloads:wl ()));
  Alcotest.(check bool) "unknown policy" true
    (raises (fun () -> Grid.make ~configs ~policies:[ "HEFT2000" ] ~workloads:wl ()));
  Alcotest.(check bool) "zero replicates" true
    (raises (fun () -> Grid.make ~replicates:0 ~configs ~policies:[ "FRFS" ] ~workloads:wl ()));
  Alcotest.(check bool) "negative jitter" true
    (raises (fun () -> Grid.make ~jitter:(-0.1) ~configs ~policies:[ "FRFS" ] ~workloads:wl ()))

(* ---------------------- Sweep determinism ---------------------- *)

let test_sweep_deterministic_across_jobs () =
  (* The tentpole contract: identical serialized tables for jobs=1 and
     jobs=4 even with jitter (per-point PRNG streams). *)
  let g = small_grid ~jitter:0.02 ~replicates:2 () in
  let t1 = Sweep.run ~jobs:1 g in
  let t4 = Sweep.run ~jobs:4 g in
  Alcotest.(check string) "CSV identical" (Sweep.to_csv t1) (Sweep.to_csv t4);
  Alcotest.(check string) "JSON identical"
    (Json.to_string (Sweep.to_json t1))
    (Json.to_string (Sweep.to_json t4));
  (* and a third run of the same grid is a full replay *)
  let t1' = Sweep.run ~jobs:1 g in
  Alcotest.(check string) "replay identical" (Sweep.to_csv t1) (Sweep.to_csv t1')

let test_sweep_jitter_varies_replicates () =
  (* Sanity check that determinism does not come from the jitter being
     ignored: replicates of a jittered cell must differ. *)
  let g = small_grid ~jitter:0.05 ~replicates:3 () in
  let t = Sweep.run ~jobs:2 g in
  let cell =
    List.filter
      (fun (r : Sweep.row) -> r.Sweep.config = "1Core+0FFT" && r.Sweep.policy = "FRFS" && r.Sweep.workload = "rd")
      t.Sweep.rows
  in
  Alcotest.(check int) "three replicates" 3 (List.length cell);
  Alcotest.(check bool) "replicates differ under jitter" true
    (List.length (List.sort_uniq compare (List.map (fun r -> r.Sweep.makespan_ns) cell)) > 1)

let test_sweep_row_fields () =
  let g = small_grid ~jitter:0.0 ~replicates:1 () in
  let t = Sweep.run ~jobs:1 g in
  Alcotest.(check int) "row per point" (Grid.size g) (List.length t.Sweep.rows);
  List.iter
    (fun (r : Sweep.row) ->
      Alcotest.(check bool) "positive makespan" true (r.Sweep.makespan_ns > 0);
      Alcotest.(check int) "one job" 1 r.Sweep.job_count;
      Alcotest.(check bool) "tasks ran" true (r.Sweep.task_count > 0);
      Alcotest.(check bool) "utilisation present" true (r.Sweep.util_by_kind <> []))
    t.Sweep.rows;
  (* deterministic cells: MET on the 1-CPU config equals FRFS there is
     not guaranteed, but wifi_tx chain on 1 CPU must cost the same
     under both policies (no scheduling freedom) *)
  let m policy =
    (List.find
       (fun (r : Sweep.row) ->
         r.Sweep.config = "1Core+0FFT" && r.Sweep.policy = policy && r.Sweep.workload = "tx")
       t.Sweep.rows)
      .Sweep.makespan_ns
  in
  Alcotest.(check bool) "chain on one PE: policies within overhead noise" true
    (float_of_int (abs (m "FRFS" - m "MET")) /. float_of_int (m "FRFS") < 0.25)

(* Each row of [table] against the test-local reference engine's traced
   run of its point: the report fields, the metrics-derived columns read
   from the reference's registry, and the critical-path columns
   replayed from its event log (the sweep reads a schedule recorder
   instead). *)
let check_rows_against_reference (g : Grid.t) (table : Sweep.table) =
  let module Obs = Dssoc_obs.Obs in
  let module Analyze = Dssoc_obs.Analyze in
  let module Stats = Dssoc_runtime.Stats in
  List.iter2
    (fun (p : Grid.point) (row : Sweep.row) ->
      let label =
        Printf.sprintf "%s/%s/%s/%d" row.Sweep.config row.Sweep.policy row.Sweep.workload
          row.Sweep.replicate
      in
      let metrics = Obs.Metrics.create () in
      let obs = Obs.make ~sink:(Obs.Sink.ring ()) ~metrics () in
      let r =
        Virtual_engine.run
          ~params:
            {
              Dssoc_runtime.Engine_core.seed = p.Grid.seed;
              jitter = g.Grid.jitter;
              reservation_depth = g.Grid.reservation_depth;
            }
          ~obs ~config:p.Grid.config ~workload:p.Grid.workload
          ~policy:(Result.get_ok (Dssoc_runtime.Scheduler.find p.Grid.policy))
          ()
      in
      let gauge name =
        Option.fold ~none:0 ~some:Obs.Metrics.gauge_max (Obs.Metrics.find_gauge metrics name)
      in
      let hist f name =
        match Obs.Metrics.find_histogram metrics name with
        | Some h -> Option.value ~default:0.0 (f h)
        | None -> 0.0
      in
      let cp = Analyze.critical_path (Analyze.of_events (Obs.recorded_events obs)) in
      Alcotest.(check int) (label ^ ": makespan") r.Stats.makespan_ns row.Sweep.makespan_ns;
      Alcotest.(check int) (label ^ ": sched_invocations") r.Stats.sched_invocations
        row.Sweep.sched_invocations;
      Alcotest.(check int) (label ^ ": max_ready_depth") (gauge "ready_queue_depth")
        row.Sweep.max_ready_depth;
      Alcotest.(check int) (label ^ ": max_inflight") (gauge "in_flight_tasks")
        row.Sweep.max_inflight;
      Alcotest.(check (float 0.0)) (label ^ ": mean_wait_us")
        (hist Obs.Metrics.histogram_mean "task_wait_us")
        row.Sweep.mean_wait_us;
      Alcotest.(check (float 0.0)) (label ^ ": p95_service_us")
        (hist (fun h -> Obs.Metrics.histogram_quantile h 0.95) "task_service_us")
        row.Sweep.p95_service_us;
      Alcotest.(check (float 0.0)) (label ^ ": crit_path_us")
        (float_of_int cp.Analyze.cp_length_ns /. 1e3)
        row.Sweep.crit_path_us;
      Alcotest.(check (float 0.0)) (label ^ ": crit_path_dma_frac") cp.Analyze.cp_dma_frac
        row.Sweep.crit_path_dma_frac)
    (Array.to_list (Grid.points g))
    table.Sweep.rows

let test_sweep_compiled_obs_columns () =
  (* Regression for the compiled engine's lowered observability: on a
     fig9-class preset the table must be byte-identical under both
     engine names and match the reference engine point by point — in
     particular the four metrics-derived columns and the two
     critical-path columns, which used to read zero under the compiled
     engine — and the columns must be live, not vacuously-equal
     zeros. *)
  let g = Result.get_ok (Presets.by_name ~replicates:1 "fig9") in
  let tv = Sweep.run ~jobs:2 ~engine:`Virtual g in
  let tc = Sweep.run ~jobs:2 ~engine:`Compiled g in
  Alcotest.(check string) "CSV byte-identical across engine names" (Sweep.to_csv tv)
    (Sweep.to_csv tc);
  check_rows_against_reference g tc;
  List.iter
    (fun (c : Sweep.row) ->
      let label = Printf.sprintf "%s/%s/%s" c.Sweep.config c.Sweep.policy c.Sweep.workload in
      Alcotest.(check bool) (label ^ ": obs columns live") true
        (c.Sweep.max_inflight > 0 && c.Sweep.p95_service_us > 0.0 && c.Sweep.crit_path_us > 0.0);
      Alcotest.(check (float 1e-6)) (label ^ ": crit path equals makespan")
        (float_of_int c.Sweep.makespan_ns /. 1e3)
        c.Sweep.crit_path_us)
    tc.Sweep.rows

let test_sweep_compiled_plan_not_reused_across_configs () =
  (* Regression for the per-domain plan memo: it keys on the cell
     labels, and two configs may share a label (here 2C+2F with and
     without a contended bus).  A second sweep of the same
     [Grid.fixed_workload] value on the same domain must compile a new
     plan for the new config, not replay the first sweep's: the bus
     table must match the reference engine's runs of its points. *)
  let wl =
    Grid.fixed_workload ~label:"mix"
      (Workload.validation [ (Reference_apps.range_detection (), 1); (Reference_apps.wifi_rx (), 1) ])
  in
  let ideal = Config.zcu102_cores_ffts ~cores:2 ~ffts:2 in
  let bus =
    Config.with_fabric (Result.get_ok (Dssoc_soc.Fabric.of_spec "bus:bw=100MB/s,fifo=1")) ideal
  in
  let grid config =
    Grid.make ~label:"memo" ~replicates:2 ~base_seed:3L ~jitter:0.02
      ~configs:[ (config.Config.label, config) ] ~policies:[ "FRFS" ] ~workloads:[ wl ] ()
  in
  let run engine config = Sweep.run ~jobs:1 ~engine (grid config) in
  let ti = run `Virtual ideal in
  Alcotest.(check string) "ideal: compiled = virtual" (Sweep.to_csv ti)
    (Sweep.to_csv (run `Compiled ideal));
  let tb = run `Compiled bus in
  Alcotest.(check bool) "the bus changes the table" true (Sweep.to_csv tb <> Sweep.to_csv ti);
  check_rows_against_reference (grid bus) tb

(* A sweep row pays for its emulation and the analytics columns, not for
   an event log: in one domain, evaluate fig10's rate-1.71 EFT compiled
   row, then its rate-6.92 row (29k tasks), and bound the words the
   second allocates.  Recording into a ring sized for a drop-free log
   and replaying it cost ~14.4 M major and ~8 M minor words on this
   row, a fresh 9.3 M-word ring included; the schedule recorder needs
   about 4 M major and 5.7 M minor.  Deterministic counts, so no
   wall-clock noise. *)
let test_sweep_row_allocation () =
  let grid = Presets.fig10 ~policies:[ "EFT" ] () in
  let point wl =
    match List.find_opt (fun p -> p.Grid.wl_label = wl) (Array.to_list (Grid.points grid)) with
    | Some p -> p
    | None -> Alcotest.failf "fig10 has no %s point" wl
  in
  let first = point "rate1.71" and second = point "rate6.92" in
  ignore (Sweep.run_point ~engine_kind:`Compiled grid first);
  let s0 = Gc.quick_stat () in
  let row = Sweep.run_point ~engine_kind:`Compiled grid second in
  let s1 = Gc.quick_stat () in
  let major = s1.Gc.major_words -. s0.Gc.major_words
  and minor = s1.Gc.minor_words -. s0.Gc.minor_words in
  Alcotest.(check bool) "the row is the 29k-task point" true (row.Sweep.task_count > 20_000);
  let bounded what words bound =
    Alcotest.(check bool)
      (Printf.sprintf "%s words %.2f M <= %.0f M" what (words /. 1e6) (bound /. 1e6))
      true (words <= bound)
  in
  bounded "major" major 8e6;
  bounded "minor" minor 7e6

(* A faulted fig9 campaign: the 0-FFT points cannot host the plan's
   [accel:] rule and record [aborted] rows, the others run resiliently.
   The CSV, byte-identical under both engine names, is pinned to its
   MD5 as captured before the deterministic engines were unified. *)
let test_sweep_faulted_fig9_pinned () =
  let fault =
    Result.get_ok
      (Dssoc_fault.Fault.of_spec ~seed:7L "accel:dma:p=0.1,*:transient:p=0.05:recover=0.2ms")
  in
  let grid = { (Presets.fig9 ~replicates:2 ()) with Grid.fault = Some fault } in
  List.iter
    (fun engine ->
      let t, _ = Sweep.run_stats ~jobs:1 ~engine grid in
      let aborted =
        List.length
          (List.filter
             (fun (r : Sweep.row) ->
               match r.Sweep.verdict with Dssoc_runtime.Stats.Aborted _ -> true | _ -> false)
             t.Sweep.rows)
      in
      let name = Sweep.engine_name engine in
      Alcotest.(check int) (name ^ ": the 0-FFT points abort") 6 aborted;
      Alcotest.(check string) (name ^ ": CSV") "263a777de7df50215ec08c4eca7b92b0"
        (Digest.to_hex (Digest.string (Sweep.to_csv t))))
    [ `Virtual; `Compiled ]

let test_summarize_counts () =
  let g = small_grid ~jitter:0.01 ~replicates:4 () in
  let t = Sweep.run ~jobs:2 g in
  let summaries = Sweep.summarize t in
  Alcotest.(check int) "one summary per cell" 8 (List.length summaries);
  List.iter (fun s -> Alcotest.(check int) "n = replicates" 4 s.Sweep.n) summaries;
  (* summary order is grid order *)
  let first = List.hd summaries in
  Alcotest.(check string) "first cell config" "1Core+0FFT" first.Sweep.s_config;
  Alcotest.(check string) "first cell workload" "tx" first.Sweep.s_workload

let test_presets () =
  Alcotest.(check int) "fig9 size" (9 * 1 * 1 * 2) (Grid.size (Presets.fig9 ~replicates:2 ()));
  Alcotest.(check int) "fig10 size" (1 * 3 * 5 * 1) (Grid.size (Presets.fig10 ()));
  Alcotest.(check int) "fig11 size" (8 * 1 * 5 * 1) (Grid.size (Presets.fig11 ()));
  Alcotest.(check bool) "by_name finds fig9" true (Result.is_ok (Presets.by_name "FIG9"));
  (match Presets.by_name "fig12" with
  | Ok _ -> Alcotest.fail "expected error"
  | Error msg -> Alcotest.(check bool) "lists available grids" true (String.length msg > 0));
  match Presets.by_name ~replicates:7 "fig10" with
  | Error e -> Alcotest.fail e
  | Ok g -> Alcotest.(check int) "override applies" 7 g.Grid.replicates

let () =
  Alcotest.run "explore"
    [
      ( "pool",
        [
          Alcotest.test_case "map identity" `Quick test_pool_map_identity;
          Alcotest.test_case "zero and negative n" `Quick test_pool_zero_items;
          Alcotest.test_case "lowest-index failure wins" `Quick test_pool_exception_lowest_index;
          Alcotest.test_case "iter covers all items" `Quick test_pool_iter_covers_all;
        ] );
      ( "prng",
        [
          Alcotest.test_case "derive_seed pure and distinct" `Quick test_derive_seed_pure_and_distinct;
          Alcotest.test_case "derived streams independent" `Quick test_derive_streams_independent;
        ] );
      ( "grid",
        [
          Alcotest.test_case "size and enumeration order" `Quick test_grid_size_and_order;
          Alcotest.test_case "validation" `Quick test_grid_validation;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "deterministic across jobs" `Slow test_sweep_deterministic_across_jobs;
          Alcotest.test_case "jitter varies replicates" `Slow test_sweep_jitter_varies_replicates;
          Alcotest.test_case "row fields" `Quick test_sweep_row_fields;
          Alcotest.test_case "compiled obs columns match virtual" `Slow
            test_sweep_compiled_obs_columns;
          Alcotest.test_case "compiled plan memo rechecks the config" `Quick
            test_sweep_compiled_plan_not_reused_across_configs;
          Alcotest.test_case "row allocation is bounded" `Quick test_sweep_row_allocation;
          Alcotest.test_case "faulted fig9 CSV pinned" `Slow test_sweep_faulted_fig9_pinned;
          Alcotest.test_case "summarize" `Slow test_summarize_counts;
          Alcotest.test_case "presets" `Quick test_presets;
        ] );
    ]
