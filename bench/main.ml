(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation (Section III) and hosts Bechamel
   micro-benchmarks of the underlying machinery.

   Usage:
     dune exec bench/main.exe                 # all experiments
     dune exec bench/main.exe -- table1       # one experiment
     dune exec bench/main.exe -- micro        # Bechamel micro benches
     dune exec bench/main.exe -- engine --json  # machine-readable engine bench
   Experiments: table1 table2 fig9a fig9b fig10a fig10b fig11 sweep cs4 ablation engine serve micro *)

module Cbuf = Dssoc_dsp.Cbuf
module Fft = Dssoc_dsp.Fft
module Dft = Dssoc_dsp.Dft
module App_spec = Dssoc_apps.App_spec
module Reference_apps = Dssoc_apps.Reference_apps
module Workload = Dssoc_apps.Workload
module Config = Dssoc_soc.Config
module Fabric = Dssoc_soc.Fabric
module Emulator = Dssoc_runtime.Emulator
module Stats = Dssoc_runtime.Stats
module Obs = Dssoc_obs.Obs
module Driver = Dssoc_compiler.Driver
module Quantile = Dssoc_stats.Quantile
module Table = Dssoc_stats.Table
module Prng = Dssoc_util.Prng
module Mclock = Dssoc_util.Mclock
module Grid = Dssoc_explore.Grid
module Cache = Dssoc_explore.Cache
module Sweep = Dssoc_explore.Sweep
module Presets = Dssoc_explore.Presets
module Pool = Dssoc_explore.Pool
module Server = Dssoc_serve.Server

let det_engine = Emulator.virtual_seeded ~jitter:0.0 1L

let run_validation ?(policy = "FRFS") ?(engine = det_engine) config apps =
  Emulator.run_exn ~engine ~policy ~config ~workload:(Workload.validation apps) ()

let ms ns = float_of_int ns /. 1e6

let header title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "================================================================\n"

(* ------------------------------------------------------------------ *)
(* Table I: standalone application execution time and task count       *)
(* ------------------------------------------------------------------ *)

let paper_table1 =
  [ ("range_detection", 0.32, 6); ("pulse_doppler", 5.60, 770); ("wifi_tx", 0.13, 7); ("wifi_rx", 2.22, 9) ]

let table1 () =
  header "Table I: application execution time and task count (3Core+2FFT, FRFS)";
  let config = Config.zcu102_cores_ffts ~cores:3 ~ffts:2 in
  let rows =
    List.map
      (fun (name, paper_ms, paper_tasks) ->
        let app = Result.get_ok (Reference_apps.by_name name) in
        let r = run_validation config [ (app, 1) ] in
        [
          name;
          Printf.sprintf "%.2f" paper_ms;
          Printf.sprintf "%.2f" (ms r.Stats.makespan_ns);
          string_of_int paper_tasks;
          string_of_int r.Stats.task_count;
        ])
      paper_table1
  in
  print_string
    (Table.render
       ~header:[ "Application"; "paper ms"; "measured ms"; "paper tasks"; "measured tasks" ]
       ~rows)

(* ------------------------------------------------------------------ *)
(* Table II: instance counts per injection rate                        *)
(* ------------------------------------------------------------------ *)

let table2 () =
  header "Table II: application instance count per injection rate (100 ms window)";
  let apps = [ "pulse_doppler"; "range_detection"; "wifi_tx"; "wifi_rx" ] in
  let rows =
    List.map
      (fun rate ->
        let wl = Workload.table2_workload ~rate () in
        let counts = Workload.count_by_app wl in
        let paper = Workload.table2_counts rate in
        (Printf.sprintf "%.2f" rate
         :: List.concat_map
              (fun app ->
                [
                  string_of_int (List.assoc app paper);
                  string_of_int (Option.value ~default:0 (List.assoc_opt app counts));
                ])
              apps)
        @ [ Printf.sprintf "%.2f" (Workload.injection_rate_per_ms wl) ])
      Workload.table2_rates
  in
  print_string
    (Table.render
       ~header:
         (("rate" :: List.concat_map (fun a -> [ a ^ " (paper)"; "(meas)" ]) apps)
         @ [ "meas rate" ])
       ~rows)

(* ------------------------------------------------------------------ *)
(* Fig. 9: validation-mode design-space sweep (on the sweep engine)    *)
(* ------------------------------------------------------------------ *)

let fig9a () =
  header "Fig. 9a: workload execution time per DSSoC configuration (50 replicates, FRFS)";
  let grid = Presets.fig9 ~replicates:50 ~base_seed:500L () in
  let table = Sweep.run grid in
  let results =
    List.map (fun s -> (s.Sweep.s_config, s.Sweep.makespan_ms)) (Sweep.summarize table)
  in
  let scale_hi = List.fold_left (fun acc (_, b) -> Float.max acc b.Quantile.hi) 0.0 results in
  List.iter
    (fun (label, b) ->
      Printf.printf "  %-12s %s  med %6.2f ms [%.2f .. %.2f]\n" label
        (Table.box_row ~width:44 ~scale_hi ~lo:b.Quantile.lo ~q1:b.Quantile.q1 ~med:b.Quantile.med
           ~q3:b.Quantile.q3 ~hi:b.Quantile.hi ())
        b.Quantile.med b.Quantile.lo b.Quantile.hi)
    results;
  let med label = (List.assoc label results).Quantile.med in
  Printf.printf "\nshape checks against the paper's reading of Fig. 9a:\n";
  Printf.printf "  [%s] adding a core helps more than adding an FFT (2C+1F beats 1C+2F)\n"
    (if med "2Core+1FFT" < med "1Core+2FFT" then "ok" else "??");
  Printf.printf "  [%s] 2C+2F within 5%% of 2C+1F (FFT managers share one core)\n"
    (if Float.abs (med "2Core+1FFT" -. med "2Core+2FFT") /. med "2Core+1FFT" < 0.05 then "ok" else "??");
  Printf.printf "  [%s] execution time improves with CPU count among 0-FFT configs\n"
    (if med "3Core+0FFT" < med "2Core+0FFT" && med "2Core+0FFT" < med "1Core+0FFT" then "ok" else "??");
  Printf.printf "  [%s] 2C+1F delivers comparable performance to 3C+0F (area-efficient pick)\n"
    (if Float.abs (med "2Core+1FFT" -. med "3Core+0FFT") /. med "3Core+0FFT" < 0.10 then "ok" else "??")

let fig9b () =
  header "Fig. 9b: average PE utilisation per configuration (FRFS)";
  let grid = Presets.fig9 ~replicates:1 ~jitter:0.0 () in
  let table = Sweep.run grid in
  let pct util k =
    match List.assoc_opt k util with
    | Some u -> Printf.sprintf "%.1f%%" (100.0 *. u)
    | None -> "-"
  in
  let rows =
    List.map
      (fun (r : Sweep.row) -> [ r.Sweep.config; pct r.Sweep.util_by_kind "cpu"; pct r.Sweep.util_by_kind "fft" ])
      table.Sweep.rows
  in
  print_string (Table.render ~header:[ "configuration"; "cpu util"; "fft util" ] ~rows);
  let util_of label =
    (List.find (fun (r : Sweep.row) -> r.Sweep.config = label) table.Sweep.rows).Sweep.util_by_kind
  in
  let cpu_util = List.assoc "cpu" (util_of "1Core+0FFT") in
  Printf.printf "\npaper: max CPU utilisation ~80%% at 1Core+0FFT; measured %.1f%%\n" (100.0 *. cpu_util);
  let u22 = util_of "2Core+2FFT" in
  Printf.printf "paper: CPU utilisation higher than FFT accelerators — %s\n"
    (if List.assoc "cpu" u22 > List.assoc "fft" u22 then "holds" else "violated")

(* ------------------------------------------------------------------ *)
(* Fig. 10: scheduling policies under increasing injection rate        *)
(* ------------------------------------------------------------------ *)

let fig10_policies = [ "FRFS"; "MET"; "EFT" ]

let fig10_table = lazy (Sweep.run (Presets.fig10 ()))

let sweep_row (table : Sweep.table) ~policy ~config_pred ~rate =
  let wl = Printf.sprintf "rate%.2f" rate in
  List.find
    (fun (r : Sweep.row) -> r.Sweep.policy = policy && r.Sweep.workload = wl && config_pred r.Sweep.config)
    table.Sweep.rows

let fig10_row policy rate =
  sweep_row (Lazy.force fig10_table) ~policy ~config_pred:(fun _ -> true) ~rate

let fig10a () =
  header "Fig. 10a: workload execution time vs injection rate (3Core+2FFT)";
  let curves =
    List.map
      (fun p -> (p, List.map (fun rate -> ms (fig10_row p rate).Sweep.makespan_ns) Workload.table2_rates))
      fig10_policies
  in
  print_string (Table.series ~x_label:"jobs/ms" ~xs:Workload.table2_rates ~curves ());
  Printf.printf "\nshape checks:\n";
  Printf.printf "  [%s] FRFS < MET < EFT at every rate (simple policy wins, as in the paper)\n"
    (if
       List.for_all
         (fun rate ->
           let m p = (fig10_row p rate).Sweep.makespan_ns in
           m "FRFS" <= m "MET" && m "MET" <= m "EFT")
         Workload.table2_rates
     then "ok"
     else "??");
  let frfs_first = ms (fig10_row "FRFS" (List.hd Workload.table2_rates)).Sweep.makespan_ns in
  let frfs_last = ms (fig10_row "FRFS" (List.nth Workload.table2_rates 4)).Sweep.makespan_ns in
  Printf.printf "  [%s] FRFS grows roughly linearly with rate (%.0f ms at 1.71 -> %.0f ms at 6.92)\n"
    (if frfs_last < 4.0 *. frfs_first then "ok" else "??")
    frfs_first frfs_last

let fig10b () =
  header "Fig. 10b: average scheduling overhead vs injection rate (3Core+2FFT)";
  Printf.printf "total workload-manager overhead per scheduling invocation (us):\n";
  let wm_cost (r : Sweep.row) =
    if r.Sweep.sched_invocations = 0 then 0.0
    else float_of_int r.Sweep.wm_overhead_ns /. float_of_int r.Sweep.sched_invocations /. 1e3
  in
  let curves =
    List.map
      (fun p -> (p, List.map (fun rate -> wm_cost (fig10_row p rate)) Workload.table2_rates))
      fig10_policies
  in
  print_string (Table.series ~x_label:"jobs/ms" ~xs:Workload.table2_rates ~curves ());
  Printf.printf "\npure policy cost per invocation (us) — the paper's 2.5 us FRFS constant:\n";
  let policy_cost (r : Sweep.row) =
    float_of_int r.Sweep.sched_ns /. float_of_int (max 1 r.Sweep.sched_invocations) /. 1e3
  in
  let curves =
    List.map
      (fun p -> (p, List.map (fun rate -> policy_cost (fig10_row p rate)) Workload.table2_rates))
      fig10_policies
  in
  print_string (Table.series ~x_label:"jobs/ms" ~xs:Workload.table2_rates ~curves ());
  let frfs_costs =
    Array.of_list (List.map (fun rate -> policy_cost (fig10_row "FRFS" rate)) Workload.table2_rates)
  in
  let spread = Quantile.max frfs_costs -. Quantile.min frfs_costs in
  Printf.printf "\n  [%s] FRFS policy cost constant across rates (spread %.2f us; paper: 2.5 us constant)\n"
    (if spread < 0.3 then "ok" else "??")
    spread

(* ------------------------------------------------------------------ *)
(* Fig. 11: Odroid XU3 big.LITTLE sweep                                *)
(* ------------------------------------------------------------------ *)

let fig11 () =
  header "Fig. 11: execution time on Odroid XU3 BIG/LITTLE mixes (FRFS, performance mode)";
  let table = Sweep.run (Presets.fig11 ()) in
  let results =
    List.map
      (fun (big, little) ->
        let label = (Config.odroid_big_little ~big ~little).Config.label in
        ( label,
          List.map
            (fun rate ->
              ms
                (sweep_row table ~policy:"FRFS" ~config_pred:(( = ) label) ~rate).Sweep.makespan_ns)
            Workload.table2_rates ))
      Presets.fig11_mixes
  in
  print_string (Table.series ~x_label:"jobs/ms" ~xs:Workload.table2_rates ~curves:results ());
  let top label = List.nth (List.assoc label results) 4 in
  Printf.printf "\nshape checks at the top rate:\n";
  Printf.printf
    "  [%s] 4BIG+2LTL and 4BIG+3LTL slower than 4BIG+1LTL (FRFS cost ~ PE count on the LITTLE overlay)\n"
    (if top "4BIG+2LTL" > top "4BIG+1LTL" && top "4BIG+3LTL" > top "4BIG+1LTL" then "ok" else "??");
  let best = List.fold_left (fun acc (_, ys) -> Float.min acc (List.nth ys 4)) Float.infinity results in
  Printf.printf "  [%s] 3BIG+2LTL, 3BIG+1LTL and 4BIG+1LTL within 3%% of the best configuration\n"
    (if List.for_all (fun l -> (top l -. best) /. best < 0.03) [ "3BIG+2LTL"; "3BIG+1LTL"; "4BIG+1LTL" ]
     then "ok"
     else "??");
  Printf.printf "  [%s] execution time increases with injection rate for every mix\n"
    (if
       List.for_all
         (fun (_, ys) ->
           let rec mono = function a :: (b :: _ as rest) -> a <= b +. 1e-9 && mono rest | _ -> true in
           mono ys)
         results
     then "ok"
     else "??")

(* ------------------------------------------------------------------ *)
(* Sweep engine: determinism and wall-clock scaling                    *)
(* ------------------------------------------------------------------ *)

(* Set by the --json flag: the engine and sweep experiments then emit
   one JSON document on stdout instead of the human-readable table, so
   CI and regression scripts can track emulations/sec and cache
   behaviour without scraping. *)
let json_mode = ref false

(* The working-tree revision, so an exported bench JSON is
   self-describing when archived as a CI artifact.  Same resolution as
   the sweep cache keys (DSSOC_CODE_REV, then git, then "unknown"). *)
let code_rev () = Cache.detect_code_rev ()

let rm_rf_cache_dir dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let sweep () =
  let module Json = Dssoc_json.Json in
  let secs ns = float_of_int ns /. 1e9 in
  let grid = Presets.fig9 ~replicates:10 ~base_seed:500L () in
  let points = Grid.size grid in
  let t1, n1 = Sweep.run_timed ~jobs:1 grid in
  let jn = max 2 (Pool.default_jobs ()) in
  let tn, nn = Sweep.run_timed ~jobs:jn grid in
  let s1 = secs n1 and sn = secs nn in
  (* Warm-cache experiment (fig10-class): a cold cached run fills a
     fresh store, then a second process-equivalent run (new handle,
     same directory) must serve every point from disk.  The warm run
     re-parses and re-renders every row, so its speedup is the honest
     "resume this campaign" figure, not just a hashtable lookup. *)
  let wgrid = Presets.fig10 ~base_seed:500L () in
  let wpoints = Grid.size wgrid in
  let cache_dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dssoc-bench-cache-%d" (Unix.getpid ()))
  in
  rm_rf_cache_dir cache_dir;
  let cold_t, cold =
    let cache = Cache.open_ ~code_rev:"bench" ~dir:cache_dir () in
    Fun.protect
      ~finally:(fun () -> Cache.close cache)
      (fun () -> Sweep.run_stats ~jobs:1 ~cache wgrid)
  in
  let warm_t, warm =
    let cache = Cache.open_ ~code_rev:"bench" ~dir:cache_dir () in
    Fun.protect
      ~finally:(fun () -> Cache.close cache)
      (fun () -> Sweep.run_stats ~jobs:1 ~cache wgrid)
  in
  rm_rf_cache_dir cache_dir;
  let cold_s = secs cold.Sweep.elapsed_ns and warm_s = secs warm.Sweep.elapsed_ns in
  let speedup = cold_s /. Float.max 1e-9 warm_s in
  let tables_identical = Sweep.to_csv cold_t = Sweep.to_csv warm_t in
  if !json_mode then
    print_endline
      (Json.to_string
         (Json.Obj
            [
              ("experiment", Json.String "sweep");
              ("code_rev", Json.String (code_rev ()));
              ("grid", Json.String "fig9");
              ("points", Json.Int points);
              ("jobs1_s", Json.Float s1);
              ("jobsN", Json.Int jn);
              ("jobsN_s", Json.Float sn);
              ( "cache",
                Json.Obj
                  [
                    ("grid", Json.String "fig10");
                    ("points", Json.Int wpoints);
                    ("cold_s", Json.Float cold_s);
                    ("warm_s", Json.Float warm_s);
                    ("speedup", Json.Float speedup);
                    ("cold_hits", Json.Int cold.Sweep.cache_hits);
                    ("cold_misses", Json.Int cold.Sweep.cache_misses);
                    ("warm_hits", Json.Int warm.Sweep.cache_hits);
                    ("warm_misses", Json.Int warm.Sweep.cache_misses);
                    ("tables_identical", Json.Bool tables_identical);
                  ] );
            ]))
  else begin
    header "Sweep engine: deterministic sharding across worker domains";
    Printf.printf "  fig9 grid, %d points\n" points;
    Printf.printf "  jobs=1:  %8.3f s\n" s1;
    Printf.printf "  jobs=%-2d: %8.3f s   speedup %.2fx\n" jn sn (s1 /. Float.max 1e-9 sn);
    Printf.printf "  [%s] result tables byte-identical across worker counts (CSV and JSON)\n"
      (if
         Sweep.to_csv t1 = Sweep.to_csv tn
         && Dssoc_json.Json.to_string (Sweep.to_json t1)
            = Dssoc_json.Json.to_string (Sweep.to_json tn)
       then "ok"
       else "??");
    if Pool.default_jobs () <= 1 then
      Printf.printf
        "  note: this host recommends %d domain(s); speedup ~1x or below is expected here and\n\
        \  the extra domains only add spawn overhead.  On a multi-core host the same sweep\n\
        \  scales with the worker count.\n"
        (Pool.default_jobs ());
    header "Result cache: warm re-sweep served from the content-addressed store";
    Printf.printf "  fig10 grid, %d points, cache at a throwaway temp dir\n" wpoints;
    Printf.printf "  cold (fills store):  %8.3f s   %d hits / %d misses\n" cold_s
      cold.Sweep.cache_hits cold.Sweep.cache_misses;
    Printf.printf "  warm (new handle):   %8.3f s   %d hits / %d misses   speedup %.1fx\n"
      warm_s warm.Sweep.cache_hits warm.Sweep.cache_misses speedup;
    Printf.printf "  [%s] warm table byte-identical to cold table\n"
      (if tables_identical then "ok" else "??");
    Printf.printf "  [%s] warm run fully cache-served\n"
      (if warm.Sweep.cache_hits = wpoints && warm.Sweep.cache_misses = 0 then "ok" else "??")
  end

(* ------------------------------------------------------------------ *)
(* Case Study 4: automatic application conversion                      *)
(* ------------------------------------------------------------------ *)

let cs4 () =
  header "Case Study 4: automatic conversion of monolithic range detection (3Core+1FFT)";
  let inputs = Driver.range_detection_inputs () in
  let conv =
    Result.get_ok
      (Driver.convert ~optimize:false ~name:"rd_monolithic" ~source:Driver.range_detection_source
         ~inputs ())
  in
  let conv_opt =
    Result.get_ok
      (Driver.convert ~optimize:true ~name:"rd_monolithic_opt" ~source:Driver.range_detection_source
         ~inputs ())
  in
  (* Variant with the DFT nodes pinned to the FPGA accelerator, for the
     paper's 94x accelerator-substitution figure. *)
  let accel_spec =
    let nodes =
      List.map
        (fun (n : App_spec.node) ->
          if List.mem_assoc n.App_spec.node_name conv_opt.Driver.substitutions then
            {
              n with
              App_spec.platforms = List.filter (fun e -> e.App_spec.platform = "fft") n.App_spec.platforms;
            }
          else n)
        conv_opt.Driver.spec.App_spec.nodes
    in
    Result.get_ok (App_spec.validate { conv_opt.Driver.spec with App_spec.nodes })
  in
  print_string (Driver.summary conv_opt);
  let config = Config.zcu102_cores_ffts ~cores:3 ~ffts:1 in
  let run spec =
    Result.get_ok
      (Emulator.run_detailed ~engine:det_engine ~config ~workload:(Workload.validation [ (spec, 1) ]) ())
  in
  let r_naive, _ = run conv.Driver.spec in
  let r_fftw, i_fftw = run conv_opt.Driver.spec in
  let r_accel, i_accel = run accel_spec in
  let node_us (r : Stats.report) name =
    let t = List.find (fun (t : Stats.task_record) -> t.Stats.node = name) r.Stats.records in
    float_of_int (t.Stats.completed_ns - t.Stats.dispatched_ns) /. 1e3
  in
  let naive_avg = (node_us r_naive "KERNEL_5" +. node_us r_naive "KERNEL_7") /. 2.0 in
  let fftw_avg = (node_us r_fftw "DFT_5" +. node_us r_fftw "DFT_7") /. 2.0 in
  let accel_avg = (node_us r_accel "DFT_5" +. node_us r_accel "DFT_7") /. 2.0 in
  print_string
    (Table.render
       ~header:[ "DFT kernel implementation"; "avg time (us)"; "speedup"; "paper" ]
       ~rows:
         [
           [ "naive for-loop DFT (converted)"; Printf.sprintf "%.1f" naive_avg; "1x"; "1x" ];
           [
             "FFT library substitution (CPU)";
             Printf.sprintf "%.1f" fftw_avg;
             Printf.sprintf "%.0fx" (naive_avg /. fftw_avg);
             "102x";
           ];
           [
             "FFT accelerator substitution";
             Printf.sprintf "%.1f" accel_avg;
             Printf.sprintf "%.0fx" (naive_avg /. accel_avg);
             "94x";
           ];
         ]);
  let best (inst : Dssoc_runtime.Task.instance array) =
    int_of_float (Dssoc_apps.Store.get_f32_array inst.(0).Dssoc_runtime.Task.store "__out_ch3").(0)
  in
  Printf.printf "\n  [%s] application output remains correct after both substitutions (echo @ %d)\n"
    (if best i_fftw = Driver.range_detection_echo_delay && best i_accel = Driver.range_detection_echo_delay
     then "ok"
     else "??")
    Driver.range_detection_echo_delay

(* ------------------------------------------------------------------ *)
(* Ablations: the paper's future-work extensions                       *)
(* ------------------------------------------------------------------ *)

let ablation () =
  header "Ablation 1: per-PE task reservation queues (Section III-C / V future work)";
  Printf.printf
    "The paper: \"we will incorporate task reservation queues on each PE to reduce the\n\
     impact of the scheduling overhead\".  Depth 0 is the released framework.\n\n";
  let config = Config.zcu102_cores_ffts ~cores:3 ~ffts:2 in
  let rows =
    List.map
      (fun depth ->
        let engine = Emulator.virtual_seeded ~jitter:0.0 ~reservation_depth:depth 1L in
        let pd =
          Emulator.run_exn ~engine ~config
            ~workload:(Workload.validation [ (Reference_apps.pulse_doppler (), 1) ])
            ()
        in
        let perf =
          Emulator.run_exn ~engine ~config ~workload:(Workload.table2_workload ~rate:3.42 ()) ()
        in
        [
          string_of_int depth;
          Printf.sprintf "%.2f" (ms pd.Stats.makespan_ns);
          string_of_int pd.Stats.sched_invocations;
          Printf.sprintf "%.2f" (ms pd.Stats.wm_overhead_ns);
          Printf.sprintf "%.2f" (ms perf.Stats.makespan_ns);
        ])
      [ 0; 1; 2; 4 ]
  in
  print_string
    (Table.render
       ~header:
         [ "queue depth"; "PD standalone ms"; "sched invocations"; "WM overhead ms"; "rate 3.42 ms" ]
       ~rows);
  Printf.printf
    "\nDepth 1 removes the per-completion dispatch stall and batches scheduling; deeper\n\
     queues bind tasks early and start to cost load balance - the trade-off the paper\n\
     anticipates.\n";
  header "Ablation 2: power-aware scheduling on Odroid XU3 (Section V future work)";
  let config = Config.odroid_big_little ~big:4 ~little:3 in
  let rows =
    List.map
      (fun policy ->
        let r =
          Emulator.run_exn ~engine:det_engine ~policy ~config
            ~workload:(Workload.table2_workload ~rate:1.71 ())
            ()
        in
        [
          policy;
          Printf.sprintf "%.2f" (ms r.Stats.makespan_ns);
          Printf.sprintf "%.1f" (Stats.total_busy_energy_mj r);
          Printf.sprintf "%.1f" (Stats.total_energy_mj r);
        ])
      [ "FRFS"; "MET"; "POWER" ]
  in
  print_string
    (Table.render
       ~header:[ "policy"; "exec time (ms)"; "busy energy (mJ)"; "total energy (mJ)" ]
       ~rows);
  Printf.printf
    "\nPOWER steers work to LITTLE cores: active energy drops, but the longer makespan\n\
     accumulates idle power on the big cluster - with these platform constants,\n\
     race-to-idle (FRFS) wins on total energy, which is itself a useful pre-silicon\n\
     insight the framework surfaces.\n";
  header "Ablation 3: automatic kernel parallelization in the conversion toolchain";
  Printf.printf
    "The paper: \"support for automatic parallelization of independent kernels via\n\
     analysis of their runtime memory access patterns\".  Dependence edges replace the\n\
     sequential chain; scratch scalars are privatised by group-level liveness.\n\n";
  let inputs = Driver.range_detection_inputs () in
  let variants =
    [
      ("sequential chain (paper's tool)", false, false);
      ("parallel DAG", false, true);
      ("parallel DAG + FFT substitution", true, true);
    ]
  in
  let config = Config.zcu102_cores_ffts ~cores:3 ~ffts:1 in
  let rows =
    List.mapi
      (fun i (label, optimize, parallelize) ->
        let conv =
          Result.get_ok
            (Driver.convert ~optimize ~parallelize
               ~name:(Printf.sprintf "rd_abl%d" i)
               ~source:Driver.range_detection_source ~inputs ())
        in
        let spec = conv.Driver.spec in
        let r, insts =
          Result.get_ok
            (Emulator.run_detailed ~engine:det_engine ~config
               ~workload:(Workload.validation [ (spec, 1) ])
               ())
        in
        let best =
          int_of_float (Dssoc_apps.Store.get_f32_array insts.(0).Dssoc_runtime.Task.store "__out_ch3").(0)
        in
        [
          label;
          string_of_int (App_spec.task_count spec);
          string_of_int (App_spec.critical_path_length spec);
          Printf.sprintf "%.2f" (ms r.Stats.makespan_ns);
          (if best = Driver.range_detection_echo_delay then "ok" else "WRONG");
        ])
      variants
  in
  print_string
    (Table.render
       ~header:[ "converted application"; "nodes"; "critical path"; "makespan (ms)"; "output" ]
       ~rows);
  Printf.printf
    "\nThe two file loads and the two DFT kernels run concurrently on the 3 cores; with\n\
     FFT substitution on top, the full pipeline stacks both future-work optimisations.\n"

(* ------------------------------------------------------------------ *)
(* Engine throughput: whole-emulation repetition rate                  *)
(* ------------------------------------------------------------------ *)

let engine () =
  let module Json = Dssoc_json.Json in
  let mix () = Workload.validation (List.map (fun a -> (a, 1)) (Reference_apps.all ())) in
  (* Fig. 9-class: the four reference apps once each, across DSSoC
     configurations.  Fig. 10-class: performance mode at a fixed
     injection rate under the cheap and the expensive policy.  One
     native scenario tracks the real-domain backend of the same
     Engine_core protocol (its makespan is wall time, not simulated
     time, so only throughput is comparable across machines).  The
     compiled scenarios replay the matching virtual runs through
     Compiled_engine — the plan is compiled once outside the timing
     loop (that is the engine's intended reuse pattern), so
     emulations/s measures the specialized event loop alone. *)
  let scenarios =
    [
      ("fig9/mix/1C+0F/FRFS", `Virtual, Config.zcu102_cores_ffts ~cores:1 ~ffts:0, mix, "FRFS");
      ("fig9/mix/3C+2F/FRFS", `Virtual, Config.zcu102_cores_ffts ~cores:3 ~ffts:2, mix, "FRFS");
      ( "fig9/mix/3C+2F/FRFS/compiled",
        `Compiled,
        Config.zcu102_cores_ffts ~cores:3 ~ffts:2,
        mix,
        "FRFS" );
      ( "fig10/rate3.42/3C+2F/FRFS",
        `Virtual,
        Config.zcu102_cores_ffts ~cores:3 ~ffts:2,
        (fun () -> Workload.table2_workload ~rate:3.42 ()),
        "FRFS" );
      ( "fig10/rate3.42/3C+2F/FRFS/compiled",
        `Compiled,
        Config.zcu102_cores_ffts ~cores:3 ~ffts:2,
        (fun () -> Workload.table2_workload ~rate:3.42 ()),
        "FRFS" );
      ( "fig10/rate3.42/3C+2F/EFT",
        `Virtual,
        Config.zcu102_cores_ffts ~cores:3 ~ffts:2,
        (fun () -> Workload.table2_workload ~rate:3.42 ()),
        "EFT" );
      ( "fig10/rate3.42/3C+2F/EFT/compiled",
        `Compiled,
        Config.zcu102_cores_ffts ~cores:3 ~ffts:2,
        (fun () -> Workload.table2_workload ~rate:3.42 ()),
        "EFT" );
      ( "fig9/mix/2C+1F/FRFS/native",
        `Native,
        Config.zcu102_cores_ffts ~cores:2 ~ffts:1,
        mix,
        "FRFS" );
    ]
    (* DMA storm: both accelerators stream through the interconnect at
       once.  The ideal pair is the zero-contention baseline; the bus
       pair charges every stream through a starved 100 MB/s, 1-deep
       fabric, so emulations/s prices the fabric event machinery and
       total_fabric_stall_ns in the JSON shows the queueing it models. *)
    @ (let storm_config = Config.zcu102_cores_ffts ~cores:2 ~ffts:2 in
       let storm_bus =
         match Fabric.of_spec "bus:bw=100MB/s,fifo=1" with
         | Ok f -> f
         | Error msg -> invalid_arg msg
       in
       [
         ("storm/mix/2C+2F/FRFS/ideal", `Virtual, storm_config, mix, "FRFS");
         ( "storm/mix/2C+2F/FRFS/bus100",
           `Virtual,
           Config.with_fabric storm_bus storm_config,
           mix,
           "FRFS" );
         ( "storm/mix/2C+2F/FRFS/bus100/compiled",
           `Compiled,
           Config.with_fabric storm_bus storm_config,
           mix,
           "FRFS" );
       ])
  in
  let variant_name = function
    | `Virtual -> "virtual"
    | `Compiled -> "compiled"
    | `Native -> "native"
  in
  (* Compiled scenarios also report their one plan compile: wall ms and
     MB allocated ([Gc.allocated_bytes] delta, deterministic for a given
     build).  The workload is built before either reading. *)
  let measure (name, variant, config, wl, policy) =
    let once, compile_cost =
      match variant with
      | `Virtual ->
        ((fun () -> Emulator.run_exn ~engine:det_engine ~policy ~config ~workload:(wl ()) ()), None)
      | `Native ->
        ( (fun () ->
            Emulator.run_exn ~engine:(Emulator.native_seeded 1L) ~policy ~config
              ~workload:(wl ()) ()),
          None )
      | `Compiled ->
        let module Compiled = Dssoc_runtime.Compiled_engine in
        let pol =
          match Dssoc_runtime.Scheduler.find policy with
          | Ok p -> p
          | Error msg -> invalid_arg msg
        in
        let workload = wl () in
        let a0 = Gc.allocated_bytes () and t0 = Mclock.now_ns () in
        let plan = Compiled.compile ~config ~workload ~policy:pol () in
        let compile_ms = float_of_int (Mclock.now_ns () - t0) /. 1e6 in
        let compile_alloc_mb = (Gc.allocated_bytes () -. a0) /. 1048576.0 in
        let params =
          { Dssoc_runtime.Engine_core.seed = 1L; jitter = 0.0; reservation_depth = 0 }
        in
        ((fun () -> Compiled.run plan params), Some (compile_ms, compile_alloc_mb))
    in
    let sample = once () (* warm-up; also yields the per-run task count *) in
    (* Minor-heap words one emulation allocates, taken on a second run
       so one-time initialisation is excluded; deterministic for a given
       build on the virtual and compiled engines, so CI gates it. *)
    let minor_words =
      let w0 = Gc.minor_words () in
      ignore (once ());
      Gc.minor_words () -. w0
    in
    let target_ns = 1_000_000_000 and min_runs = 3 in
    let t0 = Mclock.now_ns () in
    let runs = ref 0 in
    while !runs < min_runs || Mclock.now_ns () - t0 < target_ns do
      ignore (once ());
      incr runs
    done;
    let wall_s = float_of_int (Mclock.now_ns () - t0) /. 1e9 in
    let emu_per_s = float_of_int !runs /. wall_s in
    ( name,
      variant_name variant,
      sample,
      !runs,
      wall_s,
      emu_per_s,
      emu_per_s *. float_of_int sample.Stats.task_count,
      compile_cost,
      minor_words )
  in
  let results = List.map measure scenarios in
  (* Tracing-overhead check: re-run the fig9 3C+2F scenario with the
     full observation bundle (ring sink + metrics, reset for every
     run) and compare against the null-sink measurement above.  The
     null sink is the default everywhere else in this suite; every
     emit site hides behind a single [Obs.enabled] load, so the
     scenarios measured above must stay within 2% of a build without
     observability at all — a regression there means the guard has
     been lost. *)
  let baseline_name = "fig9/mix/3C+2F/FRFS" in
  let rate_of once =
    once () (* warm-up *);
    let target_ns = 1_000_000_000 and min_runs = 3 in
    let t0 = Mclock.now_ns () in
    let runs = ref 0 in
    while !runs < min_runs || Mclock.now_ns () - t0 < target_ns do
      once ();
      incr runs
    done;
    float_of_int !runs /. (float_of_int (Mclock.now_ns () - t0) /. 1e9)
  in
  let untraced_emu_s name =
    let _, _, _, _, _, emu_s, _, _, _ =
      List.find (fun (n, _, _, _, _, _, _, _, _) -> n = name) results
    in
    emu_s
  in
  let traced_emu_s =
    let _, _, config, wl, policy =
      List.find (fun (n, _, _, _, _) -> n = baseline_name) scenarios
    in
    (* The observation `run --events` and `--trace` set up: a ring
       sized off the task count plus metrics, one bundle reused across
       runs with [Obs.reset]. *)
    let capacity = Obs.Sink.ring_capacity ~tasks:(Workload.task_count (wl ())) in
    let obs = Obs.make ~sink:(Obs.Sink.ring ~capacity ()) ~metrics:(Obs.Metrics.create ()) () in
    rate_of (fun () ->
        Obs.reset obs;
        ignore (Emulator.run_exn ~engine:det_engine ~policy ~config ~workload:(wl ()) ~obs ()))
  in
  let baseline_emu_s = untraced_emu_s baseline_name in
  let overhead_pct =
    (baseline_emu_s -. traced_emu_s) /. baseline_emu_s *. 100.0
  in
  (* Lowered-tracing overhead on the compiled engine: replay the
     heaviest compiled scenario with a full observation bundle (ring
     sink + metrics, as `run --events` and `--trace` record) against
     the untraced flat-array loop measured above.  CI gates on
     this number: the traced loop shares the untraced one, so tracing
     cost beyond the gate means an emit leaked outside its
     [if traced] guard. *)
  let compiled_traced_name = "fig10/rate3.42/3C+2F/EFT/compiled" in
  let compiled_baseline_emu_s, compiled_traced_emu_s =
    let _, _, config, wl, policy =
      List.find (fun (n, _, _, _, _) -> n = compiled_traced_name) scenarios
    in
    let module Compiled = Dssoc_runtime.Compiled_engine in
    let pol =
      match Dssoc_runtime.Scheduler.find policy with
      | Ok p -> p
      | Error msg -> invalid_arg msg
    in
    let plan = Compiled.compile ~config ~workload:(wl ()) ~policy:pol () in
    let params =
      { Dssoc_runtime.Engine_core.seed = 1L; jitter = 0.0; reservation_depth = 0 }
    in
    (* The ring path `run --events` and `--trace` use: a drop-free
       ring sized off the task count plus metrics, reused across runs
       with [Obs.reset].  Sweep rows record into a schedule sink
       instead; this gate keeps measuring the full ring. *)
    let capacity = Obs.Sink.ring_capacity ~tasks:(Workload.task_count (wl ())) in
    let obs = Obs.make ~sink:(Obs.Sink.ring ~capacity ()) ~metrics:(Obs.Metrics.create ()) () in
    let untraced_once () = ignore (Compiled.run plan params) in
    let traced_once () =
      Obs.reset obs;
      ignore (Compiled.run ~obs plan params)
    in
    (* The overhead ratio is gated in CI, so untraced and traced runs
       alternate within one timing loop rather than being measured in
       separate windows — machine-load drift between windows would
       otherwise dominate the tracing cost being measured. *)
    untraced_once ();
    traced_once ();
    let t_untraced = ref 0 and t_traced = ref 0 and runs = ref 0 in
    let target_ns = 2_000_000_000 and min_runs = 5 in
    while !runs < min_runs || !t_untraced + !t_traced < target_ns do
      let t0 = Mclock.now_ns () in
      untraced_once ();
      let t1 = Mclock.now_ns () in
      traced_once ();
      let t2 = Mclock.now_ns () in
      t_untraced := !t_untraced + (t1 - t0);
      t_traced := !t_traced + (t2 - t1);
      incr runs
    done;
    let rate t = float_of_int !runs /. (float_of_int t /. 1e9) in
    (rate !t_untraced, rate !t_traced)
  in
  let compiled_overhead_pct =
    (compiled_baseline_emu_s -. compiled_traced_emu_s) /. compiled_baseline_emu_s *. 100.0
  in
  if !json_mode then
    print_endline
      (Json.to_string
         (Json.Obj
            [
              ("experiment", Json.String "engine");
              ("code_rev", Json.String (code_rev ()));
              ( "scenarios",
                Json.List
                  (List.map
                     (fun ( name,
                            variant,
                            (sample : Stats.report),
                            runs,
                            wall_s,
                            emu_s,
                            task_s,
                            compile_cost,
                            minor_words ) ->
                       Json.Obj
                         ([
                           ("name", Json.String name);
                           ("engine", Json.String variant);
                           ("policy", Json.String sample.Stats.policy_name);
                           ("config", Json.String sample.Stats.config_label);
                           ("tasks_per_emulation", Json.Int sample.Stats.task_count);
                           ("simulated_makespan_ns", Json.Int sample.Stats.makespan_ns);
                           ( "total_fabric_stall_ns",
                             Json.Int sample.Stats.fabric.Stats.fabric_stall_ns );
                           ( "dma_streams",
                             Json.Int sample.Stats.fabric.Stats.dma_streams );
                           ("runs", Json.Int runs);
                           ("wall_s", Json.Float wall_s);
                           ("emulations_per_s", Json.Float emu_s);
                           ("tasks_per_s", Json.Float task_s);
                           ("minor_words_per_emulation", Json.Float minor_words);
                         ]
                         @
                         match compile_cost with
                         | Some (ms, mb) ->
                           [ ("compile_ms", Json.Float ms); ("compile_alloc_mb", Json.Float mb) ]
                         | None -> []))
                     results) );
              ( "tracing_overhead",
                Json.Obj
                  [
                    ("scenario", Json.String baseline_name);
                    ("null_sink_emulations_per_s", Json.Float baseline_emu_s);
                    ("full_trace_emulations_per_s", Json.Float traced_emu_s);
                    ("overhead_pct", Json.Float overhead_pct);
                  ] );
              ( "compiled_tracing_overhead",
                Json.Obj
                  [
                    ("scenario", Json.String compiled_traced_name);
                    ("null_sink_emulations_per_s", Json.Float compiled_baseline_emu_s);
                    ("full_trace_emulations_per_s", Json.Float compiled_traced_emu_s);
                    ("overhead_pct", Json.Float compiled_overhead_pct);
                  ] );
            ]))
  else begin
    header
      "Engine throughput: full emulations per second (virtual jitter-0, compiled replay, one \
       native scenario)";
    print_string
      (Table.render
         ~header:
           [
             "scenario"; "engine"; "tasks/emu"; "runs"; "wall s"; "emulations/s"; "tasks/s";
             "stall ms"; "Mwords/emu";
           ]
         ~rows:
           (List.map
              (fun (name, variant, (sample : Stats.report), runs, wall_s, emu_s, task_s, _, words) ->
                [
                  name;
                  variant;
                  string_of_int sample.Stats.task_count;
                  string_of_int runs;
                  Printf.sprintf "%.2f" wall_s;
                  Printf.sprintf "%.1f" emu_s;
                  Printf.sprintf "%.0f" task_s;
                  Printf.sprintf "%.3f"
                    (float_of_int sample.Stats.fabric.Stats.fabric_stall_ns /. 1e6);
                  Printf.sprintf "%.1f" (words /. 1e6);
                ])
              results));
    Printf.printf
      "\nTracing overhead on %s: null sink %.1f emu/s,\n\
       full ring sink + metrics %.1f emu/s (%.1f%% overhead).  The table above\n\
       uses the default null sink, whose per-event cost is one Obs.enabled load.\n"
      baseline_name baseline_emu_s traced_emu_s overhead_pct;
    Printf.printf
      "\nCompiled-engine lowered tracing on %s:\n\
       untraced %.1f emu/s, full ring sink + metrics %.1f emu/s (%.1f%% overhead).\n"
      compiled_traced_name compiled_baseline_emu_s compiled_traced_emu_s
      compiled_overhead_pct;
    Printf.printf
      "\nEach run is a complete emulation (instantiation, event loop, statistics);\n\
       emulations/s is the design-space-exploration currency — points evaluated per\n\
       second per domain.  Pass --json for machine-readable output.\n"
  end

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let micro () =
  header "Bechamel micro-benchmarks (one per table/figure family)";
  let open Bechamel in
  let open Toolkit in
  let signal n =
    let g = Prng.create ~seed:11L in
    let b = Cbuf.create n in
    for i = 0 to n - 1 do
      Cbuf.set b i (Prng.float g 2.0 -. 1.0) (Prng.float g 2.0 -. 1.0)
    done;
    b
  in
  let s512 = signal 512 in
  let rd = Reference_apps.range_detection () in
  let tx = Reference_apps.wifi_tx () in
  let small_cfg = Config.zcu102_cores_ffts ~cores:2 ~ffts:1 in
  let tests =
    [
      Test.make ~name:"dsp/fft-512" (Staged.stage (fun () -> ignore (Fft.fft s512)));
      Test.make ~name:"dsp/dft-512-naive" (Staged.stage (fun () -> ignore (Dft.dft s512)));
      Test.make ~name:"engine/table1-range-detection"
        (Staged.stage (fun () -> ignore (run_validation small_cfg [ (rd, 1) ])));
      Test.make ~name:"engine/fig10-wifi-tx-burst-eft"
        (Staged.stage (fun () -> ignore (run_validation ~policy:"EFT" small_cfg [ (tx, 8) ])));
      Test.make ~name:"engine/fig11-odroid-mix"
        (Staged.stage (fun () ->
             ignore (run_validation (Config.odroid_big_little ~big:2 ~little:1) [ (rd, 2) ])));
      Test.make ~name:"compiler/cs4-parse+lower"
        (Staged.stage (fun () ->
             ignore (Dssoc_compiler.Ir.lower (Dssoc_compiler.Parser.parse_exn Driver.range_detection_source))));
      Test.make ~name:"workload/table2-trace-6.92"
        (Staged.stage (fun () -> ignore (Workload.table2_workload ~rate:6.92 ())));
    ]
  in
  let test = Test.make_grouped ~name:"dssoc" ~fmt:"%s %s" tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~stabilize:false () in
  let raw = Benchmark.all cfg instances test in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Printf.printf "%-44s %12s\n" "benchmark" "time/run";
  Printf.printf "%s\n" (String.make 58 '-');
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) results []
  |> List.sort compare
  |> List.iter (fun (name, ols_result) ->
         match Analyze.OLS.estimates ols_result with
         | Some (est :: _) ->
           let pretty =
             if est > 1e9 then Printf.sprintf "%.2f s" (est /. 1e9)
             else if est > 1e6 then Printf.sprintf "%.2f ms" (est /. 1e6)
             else if est > 1e3 then Printf.sprintf "%.2f us" (est /. 1e3)
             else Printf.sprintf "%.0f ns" est
           in
           Printf.printf "%-44s %12s\n" name pretty
         | _ -> Printf.printf "%-44s %12s\n" name "n/a")

(* ------------------------------------------------------------------ *)
(* Service mode: ramp to saturation                                    *)
(* ------------------------------------------------------------------ *)

let serve_bench () =
  header "Service mode: open-loop ramp to saturation (3Core+1FFT, FRFS, admission=shed)";
  let policy = Result.get_ok (Dssoc_runtime.Scheduler.find "FRFS") in
  let admission = Result.get_ok (Server.admission_of_spec "policy=shed:queue=8:max-ready=32") in
  let spec_at rate =
    {
      Server.sp_config = Config.zcu102_cores_ffts ~cores:3 ~ffts:1;
      sp_policy = policy;
      sp_seed = 1L;
      sp_jitter = 0.0;
      sp_duration_ms = 4.0;
      sp_admission = admission;
      sp_tenants =
        Result.get_ok
          (Server.tenants_of_spec
             (Printf.sprintf "load:apps=range_detection:rate=%.2f:slo=3ms" rate));
    }
  in
  (* Ramp the offered load through the saturation knee: goodput grows
     linearly while the platform keeps up, then flattens at service
     capacity and the shed column absorbs the difference. *)
  let rates = [ 1.0; 2.0; 4.0; 8.0; 16.0; 32.0 ] in
  let rows, steady =
    List.fold_left
      (fun (rows, steady) rate ->
        let t0 = Mclock.now_ns () in
        let oc = Result.get_ok (Server.run (spec_at rate)) in
        let wall_ns = Mclock.now_ns () - t0 in
        let tr = List.hd oc.Server.oc_tenants in
        let span_ms = float_of_int oc.Server.oc_clock_ns /. 1e6 in
        let goodput = float_of_int tr.Server.tr_completed /. span_ms in
        let row =
          [
            Printf.sprintf "%.2f" rate;
            string_of_int tr.Server.tr_offered;
            string_of_int tr.Server.tr_completed;
            string_of_int tr.Server.tr_shed;
            Printf.sprintf "%.2f" goodput;
            Printf.sprintf "%.3f" tr.Server.tr_p95_ms;
            Printf.sprintf "%.1f%%"
              (100.0 *. float_of_int tr.Server.tr_slo_miss
              /. float_of_int (max 1 tr.Server.tr_completed));
          ]
        in
        let steady =
          (* steady-state service rate = best goodput seen at or past
             the knee; carry the wall time of that run for tasks/s *)
          match steady with
          | Some (g, _, _) when g >= goodput -> steady
          | _ -> Some (goodput, tr.Server.tr_completed, wall_ns)
        in
        (row :: rows, steady))
      ([], None) rates
  in
  print_string
    (Table.render
       ~header:
         [ "rate/ms"; "offered"; "completed"; "shed"; "goodput/ms"; "p95 ms"; "slo miss" ]
       ~rows:(List.rev rows));
  (match steady with
  | Some (goodput, completed, wall_ns) ->
    let tasks =
      completed * App_spec.task_count (Reference_apps.range_detection ())
    in
    Printf.printf
      "\nsteady state: %.2f jobs/ms emulated goodput at saturation; the saturating run \
       executed %d tasks in %.2f s wall = %.0f tasks/s\n"
      goodput tasks
      (float_of_int wall_ns /. 1e9)
      (float_of_int tasks /. (float_of_int wall_ns /. 1e9))
  | None -> ());
  Printf.printf
    "Past the knee the shed column grows while goodput and p95 stay flat: admission \
     control keeps the resident server live under overload.\n"

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("table1", table1);
    ("table2", table2);
    ("fig9a", fig9a);
    ("fig9b", fig9b);
    ("fig10a", fig10a);
    ("fig10b", fig10b);
    ("fig11", fig11);
    ("sweep", sweep);
    ("cs4", cs4);
    ("ablation", ablation);
    ("engine", engine);
    ("serve", serve_bench);
    ("micro", micro);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let requested = List.filter (fun a -> a <> "--json") args in
  json_mode := List.length requested < List.length args;
  let to_run =
    if requested = [] then experiments
    else
      List.map
        (fun name ->
          match List.assoc_opt name experiments with
          | Some f -> (name, f)
          | None ->
            Printf.eprintf "unknown experiment %S (available: %s)\n" name
              (String.concat ", " (List.map fst experiments));
            exit 1)
        requested
  in
  List.iter (fun (_, f) -> f ()) to_run
