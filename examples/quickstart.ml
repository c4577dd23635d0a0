(* Quickstart: define a new DAG application against the public API,
   emulate it on a hypothetical DSSoC configuration, and read back both
   the performance estimates and the functional results.

   The application is a tiny two-stage spectral analyzer:

       GEN (synthesize a noisy two-tone signal)
        |
       FFT (CPU or FFT-accelerator)
        |
       PEAK (find the dominant tone)

   Run with:  dune exec examples/quickstart.exe *)

module Cbuf = Dssoc_dsp.Cbuf
module Fft = Dssoc_dsp.Fft
module Radar = Dssoc_dsp.Radar
module Store = Dssoc_apps.Store
module App_spec = Dssoc_apps.App_spec
module Kernels = Dssoc_apps.Kernels
module Workload = Dssoc_apps.Workload
module Config = Dssoc_soc.Config
module Emulator = Dssoc_runtime.Emulator
module Stats = Dssoc_runtime.Stats
module Task = Dssoc_runtime.Task

let n = 256
let tone_bin = 42

(* 1. Implement the kernels.  A kernel gets the instance's variable
   store plus the node's argument list, and communicates only through
   the store (which is what makes accelerator DMA sizes derivable). *)
let register_kernels () =
  Kernels.register_object "spectral.so"
    [
      ( "spectral_GEN",
        fun store _args ->
          let signal = Cbuf.create n in
          for t = 0 to n - 1 do
            let ang k = 2.0 *. Float.pi *. float_of_int (k * t) /. float_of_int n in
            Cbuf.set signal t
              ((0.3 *. cos (ang 7)) +. cos (ang tone_bin))
              ((0.3 *. sin (ang 7)) +. sin (ang tone_bin))
          done;
          Store.set_cbuf store "signal" signal );
      ( "spectral_FFT_CPU",
        fun store _args -> Store.set_cbuf store "spectrum" (Fft.fft (Store.get_cbuf store "signal")) );
      ( "spectral_PEAK",
        fun store _args ->
          let bin, mag = Radar.peak (Store.get_cbuf store "spectrum") in
          Store.set_i32 store "peak_bin" bin;
          Store.set_f32 store "peak_mag" mag );
    ];
  (* The accelerator entry points at a different "shared object", just
     like the fft_accel.so reference in Listing 1 of the paper. *)
  Kernels.register_object "fft_accel.so"
    [
      ( "spectral_FFT_ACCEL",
        fun store _args -> Store.set_cbuf store "spectrum" (Fft.fft (Store.get_cbuf store "signal")) );
    ]

(* 2. Describe the application as a DAG (this is the programmatic
   equivalent of the JSON in Listing 1; App_spec.to_file would emit
   that JSON). *)
let spectral_app () =
  register_kernels ();
  let cbytes k = 8 * k in
  let ptr alloc : Store.var_spec = { bytes = 8; is_ptr = true; ptr_alloc_bytes = alloc; init = [] } in
  let i32 v : Store.var_spec =
    { bytes = 4; is_ptr = false; ptr_alloc_bytes = 0;
      init = [ v land 0xFF; (v lsr 8) land 0xFF; (v lsr 16) land 0xFF; (v lsr 24) land 0xFF ] }
  in
  let cpu runfunc : App_spec.platform_entry =
    { platform = "cpu"; runfunc; shared_object = None; cost_us = None }
  in
  let node ?(kernel = "generic") ?(size = 1) ?accel_runfunc name args preds runfunc : App_spec.node =
    {
      App_spec.node_name = name;
      arguments = args;
      predecessors = preds;
      successors = [];
      platforms =
        (cpu runfunc
        ::
        (match accel_runfunc with
        | None -> []
        | Some rf ->
          [ { App_spec.platform = "fft"; runfunc = rf; shared_object = Some "fft_accel.so"; cost_us = None } ]));
      kernel_class = kernel;
      size;
      bytes_in = (if accel_runfunc <> None then cbytes size else 0);
      bytes_out = (if accel_runfunc <> None then cbytes size else 0);
    }
  in
  App_spec.of_edges ~app_name:"spectral" ~shared_object:"spectral.so"
    ~variables:
      [ ("signal", ptr (cbytes n)); ("spectrum", ptr (cbytes n)); ("peak_bin", i32 0); ("peak_mag", i32 0) ]
    ~nodes:
      [
        node "GEN" ~kernel:"lfm_gen" ~size:n [ "signal" ] [] "spectral_GEN";
        node "FFT" ~kernel:"fft" ~size:n ~accel_runfunc:"spectral_FFT_ACCEL" [ "signal"; "spectrum" ]
          [ "GEN" ] "spectral_FFT_CPU";
        node "PEAK" ~kernel:"peak_max" ~size:n [ "spectrum"; "peak_bin"; "peak_mag" ] [ "FFT" ] "spectral_PEAK";
      ]

let () =
  let app = spectral_app () in
  (* 3. Optionally persist / reload the Listing-1 JSON form. *)
  let json = App_spec.to_json app in
  Format.printf "--- JSON head of the generated application ---@.%s...@.@."
    (String.sub (Dssoc_json.Json.to_string json) 0 220);
  (* 4. Build a hypothetical DSSoC (2 A53 cores + 1 PL FFT on ZCU102)
     and run three instances in validation mode. *)
  let config = Config.zcu102_cores_ffts ~cores:2 ~ffts:1 in
  let workload = Workload.validation [ (app, 3) ] in
  let report, instances =
    Result.get_ok
      (Emulator.run_detailed ~engine:(Emulator.virtual_seeded ~jitter:0.0 42L) ~config ~workload ())
  in
  Format.printf "%a@." Stats.pp_summary report;
  Array.iter
    (fun inst ->
      let bin = Store.get_i32 inst.Task.store "peak_bin" in
      Format.printf "instance %d: dominant tone at bin %d (expected %d)@." inst.Task.inst_id bin
        tone_bin;
      if bin <> tone_bin then begin
        Format.eprintf "instance %d detected the wrong tone bin@." inst.Task.inst_id;
        exit 1
      end)
    instances;
  (* 5. The same workload runs natively on OCaml domains. *)
  let native = Emulator.run_exn ~engine:Emulator.native_default ~config ~workload () in
  Format.printf "@.native run on this machine: %d tasks in %.3f ms wall time@."
    (List.length native.Stats.records)
    (float_of_int native.Stats.makespan_ns /. 1e6)
