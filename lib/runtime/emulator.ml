type engine = Virtual of Engine_core.params | Native of Engine_core.params

let virtual_seeded ?(jitter = 0.03) ?(reservation_depth = 0) seed =
  Virtual { Engine_core.seed; jitter; reservation_depth }

let native_seeded ?(jitter = 0.0) ?(reservation_depth = 0) seed =
  Native { Engine_core.seed; jitter; reservation_depth }

let with_policy name f =
  match Scheduler.find name with
  | Error _ as e -> e
  | Ok policy -> ( try Ok (f policy) with Invalid_argument msg -> Error msg)

let run ?(engine = Virtual Engine_core.default_params) ?(policy = "FRFS") ?obs ?fault ~config
    ~workload () =
  with_policy policy (fun policy ->
      match engine with
      | Native params -> Native_engine.run ~params ?obs ?fault ~config ~workload ~policy ()
      | Virtual params ->
        Compiled_engine.run ?obs ?fault (Compiled_engine.compile ~config ~workload ~policy ())
          params)

let run_exn ?engine ?policy ?obs ?fault ~config ~workload () =
  match run ?engine ?policy ?obs ?fault ~config ~workload () with
  | Ok r -> r
  | Error msg -> invalid_arg (Printf.sprintf "Emulator.run_exn: %s" msg)

let run_detailed ?(engine = Virtual Engine_core.default_params) ?(policy = "FRFS") ?obs ?fault
    ~config ~workload () =
  with_policy policy (fun policy ->
      match engine with
      | Native params ->
        Native_engine.run_detailed ~params ?obs ?fault ~config ~workload ~policy ()
      | Virtual params ->
        let plan = Compiled_engine.compile ~config ~workload ~policy () in
        Compiled_engine.run_detailed ?obs ?fault plan params)
