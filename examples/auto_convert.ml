(* Case Study 4: automatic conversion of monolithic, unlabeled C code
   into a framework-ready DAG application, with hash-based kernel
   recognition substituting the naive for-loop DFTs by an optimized
   FFT library call and an FFT-accelerator platform entry.

   Run with:  dune exec examples/auto_convert.exe *)

module Driver = Dssoc_compiler.Driver
module App_spec = Dssoc_apps.App_spec
module Store = Dssoc_apps.Store
module Workload = Dssoc_apps.Workload
module Config = Dssoc_soc.Config
module Emulator = Dssoc_runtime.Emulator
module Stats = Dssoc_runtime.Stats
module Task = Dssoc_runtime.Task

let engine = Emulator.virtual_seeded ~jitter:0.0 1L

let run spec =
  (* The paper targets a 3 core + 1 FFT ZCU102 configuration. *)
  let config = Config.zcu102_cores_ffts ~cores:3 ~ffts:1 in
  let workload = Workload.validation [ (spec, 1) ] in
  Result.get_ok (Emulator.run_detailed ~engine ~config ~workload ())

let node_us (report : Stats.report) name =
  match List.find_opt (fun (t : Stats.task_record) -> t.Stats.node = name) report.Stats.records with
  | Some t -> float_of_int (t.Stats.completed_ns - t.Stats.dispatched_ns) /. 1e3
  | None -> nan

let () =
  Format.printf "--- monolithic input (%d lines of unlabeled C) ---@."
    (List.length (String.split_on_char '\n' Driver.range_detection_source));
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
  print_string (Driver.summary conv_opt);
  let r0, _ = run conv.Driver.spec in
  let r1, inst1 = run conv_opt.Driver.spec in
  Format.printf "@.naive DAG:      %8.3f ms end to end@." (float_of_int r0.Stats.makespan_ns /. 1e6);
  Format.printf "optimized DAG:  %8.3f ms end to end@." (float_of_int r1.Stats.makespan_ns /. 1e6);
  List.iter2
    (fun naive opt ->
      let t0 = node_us r0 naive and t1 = node_us r1 opt in
      Format.printf "  %s: %8.1f us -> %6.1f us   (%.0fx speedup)@." opt t0 t1 (t0 /. t1))
    [ "KERNEL_5"; "KERNEL_7" ] [ "DFT_5"; "DFT_7" ];
  (* Functional verification: the converted, substituted application
     still finds the target at the right range bin. *)
  let detected = int_of_float (Store.get_f32_array inst1.(0).Task.store "__out_ch3").(0) in
  if detected <> Driver.range_detection_echo_delay then begin
    Format.eprintf "detected echo delay %d samples, ground truth %d: output is wrong@." detected
      Driver.range_detection_echo_delay;
    exit 1
  end;
  Format.printf "@.detected echo delay: %d samples (ground truth %d) — output remains correct@."
    detected Driver.range_detection_echo_delay;
  (* Future-work extension: memory-dependence analysis turns the chain
     into a parallel DAG (independent loads and DFTs run concurrently). *)
  let conv_par =
    Result.get_ok
      (Driver.convert ~optimize:true ~parallelize:true ~name:"rd_monolithic_par"
         ~source:Driver.range_detection_source ~inputs ())
  in
  let r_par, _ = run conv_par.Driver.spec in
  Format.printf
    "@.with --parallelize: %d nodes, critical path %d (was %d), makespan %.3f ms@."
    (App_spec.task_count conv_par.Driver.spec)
    (App_spec.critical_path_length conv_par.Driver.spec)
    (App_spec.critical_path_length conv_opt.Driver.spec)
    (float_of_int r_par.Stats.makespan_ns /. 1e6);
  (* Show the generated Listing-1-style JSON for one substituted node. *)
  let node = App_spec.node conv_opt.Driver.spec "DFT_5" in
  Format.printf "@.platform entries of the substituted DFT_5 node:@.";
  List.iter
    (fun (e : App_spec.platform_entry) ->
      Format.printf "  { name = %S; runfunc = %S%s }@." e.App_spec.platform e.App_spec.runfunc
        (match e.App_spec.shared_object with Some so -> Printf.sprintf "; shared_object = %S" so | None -> ""))
    node.App_spec.platforms
