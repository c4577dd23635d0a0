(* Regenerates the golden strings embedded in test/test_observability.ml
   (records_csv, chrome_trace and the JSONL event log of the fixed
   seeded run).  Run [dune exec goldengen/gen.exe] after a deliberate
   change to the execution model or the exporters, and update the test
   literals. *)

module Emulator = Dssoc_runtime.Emulator
module Stats = Dssoc_runtime.Stats
module Config = Dssoc_soc.Config
module Workload = Dssoc_apps.Workload
module Reference_apps = Dssoc_apps.Reference_apps
module Obs = Dssoc_obs.Obs

let () =
  let config = Config.zcu102_cores_ffts ~cores:2 ~ffts:1 in
  let workload = Workload.validation [ (Reference_apps.wifi_tx (), 1) ] in
  let run ?obs () =
    Emulator.run_exn ?obs
      ~engine:(Emulator.virtual_seeded ~jitter:0.0 1L)
      ~config ~workload ()
  in
  let r = run () in
  print_string "===CSV===\n";
  print_string (Stats.records_csv r);
  print_string "===TRACE===\n";
  print_string (Dssoc_json.Json.to_string (Stats.chrome_trace r));
  print_newline ();
  let obs = Obs.make ~sink:(Obs.Sink.ring ()) ~metrics:(Obs.Metrics.create ()) () in
  ignore (run ~obs ());
  print_string "===EVENTS===\n";
  print_string (Obs.to_jsonl (Obs.recorded_events obs));
  (* The compiled engine replays the virtual run byte-for-byte, so
     this section must always equal ===CSV=== above; the golden test
     in test_observability.ml pins both against the same literal. *)
  let c =
    Emulator.run_exn
      ~engine:(Emulator.virtual_seeded ~jitter:0.0 1L)
      ~config ~workload ()
  in
  print_string "===COMPILED-CSV===\n";
  print_string (Stats.records_csv c)
