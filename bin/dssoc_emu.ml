(* dssoc_emu — command-line front end of the user-space DSSoC emulation
   framework: list applications and platforms, run emulations in
   validation or performance mode on either engine, and convert
   monolithic C programs into DAG applications. *)

module App_spec = Dssoc_apps.App_spec
module Reference_apps = Dssoc_apps.Reference_apps
module Workload = Dssoc_apps.Workload
module Config = Dssoc_soc.Config
module Fabric = Dssoc_soc.Fabric
module Host = Dssoc_soc.Host
module Emulator = Dssoc_runtime.Emulator
module Scheduler = Dssoc_runtime.Scheduler
module Stats = Dssoc_runtime.Stats
module Driver = Dssoc_compiler.Driver
module Table = Dssoc_stats.Table
module Grid = Dssoc_explore.Grid
module Sweep = Dssoc_explore.Sweep
module Cache = Dssoc_explore.Cache
module Frontier = Dssoc_explore.Frontier
module Presets = Dssoc_explore.Presets
module Pool = Dssoc_explore.Pool
module Obs = Dssoc_obs.Obs
module Fault = Dssoc_fault.Fault
module Server = Dssoc_serve.Server

open Cmdliner

(* ---------------------- shared options ---------------------- *)

let host_arg =
  let doc = "Host COTS platform: zcu102 or odroid-xu3." in
  Arg.(value & opt string "zcu102" & info [ "host" ] ~docv:"HOST" ~doc)

let cores_arg =
  Arg.(value & opt int 3 & info [ "cores" ] ~docv:"N" ~doc:"CPU PEs (zcu102).")

let ffts_arg =
  Arg.(value & opt int 2 & info [ "ffts" ] ~docv:"N" ~doc:"FFT accelerator PEs (zcu102).")

let big_arg = Arg.(value & opt int 3 & info [ "big" ] ~docv:"N" ~doc:"big-core PEs (odroid).")

let little_arg =
  Arg.(value & opt int 2 & info [ "little" ] ~docv:"N" ~doc:"LITTLE-core PEs (odroid).")

let config_of host cores ffts big little =
  try
    match String.lowercase_ascii host with
    | "zcu102" -> Ok (Config.zcu102_cores_ffts ~cores ~ffts)
    | "odroid-xu3" | "odroid" -> Ok (Config.odroid_big_little ~big ~little)
    | other -> Error (Printf.sprintf "unknown host %S (try zcu102 or odroid-xu3)" other)
  with Invalid_argument msg -> Error msg

(* Each subcommand that reads or writes files runs its body under this
   one handler: a file or cache error ends the command with one line on
   stderr, naming the path and the reason, and exit status 1.
   [Sys_error] messages read "PATH: reason", a cache [Conflict] names
   its file and line, [Cache.open_]'s [Invalid_argument] names the
   directory, and [Unix_error] comes from creating a cache directory. *)
let reporting_errors run =
  try run () with
  | Sys_error msg | Cache.Conflict msg | Invalid_argument msg ->
    prerr_endline msg;
    1
  | Unix.Unix_error (err, _, path) ->
    Printf.eprintf "%s: %s\n" path (Unix.error_message err);
    1

let policy_arg =
  Arg.(value & opt string "FRFS" & info [ "policy" ] ~docv:"POLICY" ~doc:"Scheduling policy.")

let seed_arg =
  Arg.(
    value & opt int 1
    & info [ "seed" ] ~docv:"SEED"
        ~doc:
          "Random seed (deterministic engine: all randomness; native: RANDOM policy and sleep \
           jitter).")

let jitter_arg =
  Arg.(
    value & opt float 0.0
    & info [ "jitter" ] ~docv:"SIGMA"
        ~doc:
          "Execution-time jitter stddev fraction (native runs apply it to the modelled \
           device-compute sleeps only).")

let native_arg =
  Arg.(
    value & flag
    & info [ "native" ] ~doc:"Run on real OCaml domains instead of the deterministic engine.")

let engine_arg =
  Arg.(
    value & opt string "virtual"
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Engine: virtual (default) or compiled, two names of the deterministic virtual-time \
           engine (the workload x platform x policy triple compiled into a flat-array event \
           loop; the names print the same output for every input, fault plans included), or \
           native (real OCaml domains; same as --native).")

let resolve_engine ~engine ~native ~jitter ~reservation ~seed =
  let seed = Int64.of_int seed in
  match (String.lowercase_ascii engine, native) with
  | ("virtual" | "compiled"), false ->
    Ok (Emulator.virtual_seeded ~jitter ~reservation_depth:reservation seed)
  | ("virtual" | "native"), _ ->
    Ok (Emulator.native_seeded ~jitter ~reservation_depth:reservation seed)
  | "compiled", true -> Error "--native conflicts with --engine compiled"
  | other, _ ->
    Error (Printf.sprintf "unknown engine %S (try virtual, native or compiled)" other)

let reservation_arg =
  Arg.(
    value & opt int 0
    & info [ "reservation" ] ~docv:"DEPTH"
        ~doc:"Per-PE reservation-queue depth on either engine (0 = the paper's released framework).")

let faults_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          (Printf.sprintf
             "Deterministic fault-injection plan enabling resilient dispatch (retries, \
              quarantine, degradation).  %s."
             Fault.spec_grammar))

let fault_seed_arg =
  Arg.(
    value & opt int 1
    & info [ "fault-seed" ] ~docv:"SEED"
        ~doc:
          "Seed of the fault plan's own PRNG stream (independent of --seed, so the same fault \
           schedule replays across engines and policies).")

let parse_faults faults fault_seed =
  match faults with
  | None -> Ok None
  | Some spec ->
    Result.map Option.some (Fault.of_spec ~seed:(Int64.of_int fault_seed) spec)

let fabric_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "fabric" ] ~docv:"SPEC"
        ~doc:
          "Shared-interconnect model every accelerator DMA stream is charged through: 'ideal' \
           (the default — each device's private DMA cost model, no contention) or \
           'bus:bw=BWMB/s,fifo=N,hop=NSns,hops=crossbar|meshWxH' (an arbitrated bus of \
           aggregate bandwidth BW, fair-shared among in-flight streams, with an N-deep \
           admission FIFO that stalls initiators when full).  Example: \
           'bus:bw=200MB/s,fifo=2'.")

(* [None] means "no override": run keeps the platform default and sweep
   keeps whatever fabric the grid preset baked into its configs. *)
let parse_fabric = function
  | None -> Ok None
  | Some spec -> Result.map Option.some (Fabric.of_spec spec)

(* ---------------------- apps ---------------------- *)

let apps_cmd =
  let dump =
    Arg.(value & opt (some string) None & info [ "dump" ] ~docv:"NAME" ~doc:"Print the JSON of one application.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write JSON to FILE.")
  in
  let run dump out =
    reporting_errors @@ fun () ->
    match dump with
    | Some name -> (
      match Reference_apps.by_name name with
      | Error msg ->
        prerr_endline msg;
        1
      | Ok spec -> (
        match out with
        | Some path ->
          App_spec.to_file path spec;
          Printf.printf "wrote %s\n" path;
          0
        | None ->
          print_endline (Dssoc_json.Json.to_string (App_spec.to_json spec));
          0))
    | None ->
      let rows =
        List.map
          (fun spec ->
            [
              spec.App_spec.app_name;
              string_of_int (App_spec.task_count spec);
              string_of_int (App_spec.critical_path_length spec);
              spec.App_spec.shared_object;
            ])
          (Reference_apps.all ())
      in
      print_string
        (Table.render ~header:[ "application"; "tasks"; "critical path"; "shared object" ] ~rows);
      0
  in
  Cmd.v (Cmd.info "apps" ~doc:"List or dump the built-in reference applications.")
    Term.(const run $ dump $ out)

(* ---------------------- platforms ---------------------- *)

let platforms_cmd =
  let run host cores ffts big little =
    Format.printf "%a@.%a@.@." Host.pp Host.zcu102 Host.pp Host.odroid_xu3;
    match config_of host cores ffts big little with
    | Error msg ->
      prerr_endline msg;
      1
    | Ok config ->
      Format.printf "%a" Config.pp config;
      0
  in
  Cmd.v
    (Cmd.info "platforms" ~doc:"Describe host platforms and a configuration's PE placement.")
    Term.(const run $ host_arg $ cores_arg $ ffts_arg $ big_arg $ little_arg)

(* ---------------------- policies ---------------------- *)

let policies_cmd =
  let run () =
    List.iter print_endline (Scheduler.names ());
    0
  in
  Cmd.v (Cmd.info "policies" ~doc:"List available scheduling policies.") Term.(const run $ const ())

(* ---------------------- run ---------------------- *)

let parse_app_counts spec_str =
  (* "range_detection=2,wifi_tx=5" *)
  let parts = String.split_on_char ',' spec_str in
  List.fold_left
    (fun acc part ->
      Result.bind acc (fun acc ->
          match String.split_on_char '=' (String.trim part) with
          | [ name; count ] -> (
            match (Reference_apps.by_name name, int_of_string_opt count) with
            | Ok app, Some n when n > 0 -> Ok ((app, n) :: acc)
            | Error msg, _ -> Error msg
            | _, _ -> Error (Printf.sprintf "bad count in %S" part))
          | _ -> Error (Printf.sprintf "expected name=count, got %S" part)))
    (Ok []) parts
  |> Result.map List.rev

let run_cmd =
  let mode =
    Arg.(value & opt string "validation" & info [ "mode" ] ~docv:"MODE" ~doc:"validation or performance.")
  in
  let apps =
    Arg.(
      value
      & opt string "pulse_doppler=1,range_detection=1,wifi_tx=1,wifi_rx=1"
      & info [ "apps" ] ~docv:"SPEC" ~doc:"Validation-mode workload, e.g. wifi_rx=3,range_detection=2.")
  in
  let rate =
    Arg.(value & opt float 1.71 & info [ "rate" ] ~docv:"R" ~doc:"Performance-mode Table-II injection rate (jobs/ms).")
  in
  let csv =
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc:"Write per-task records to FILE.")
  in
  let trace =
    Arg.(
      value & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Write a Chrome trace-event file (open in chrome://tracing or Perfetto).")
  in
  let gantt = Arg.(value & flag & info [ "gantt" ] ~doc:"Print an ASCII Gantt chart of the schedule.") in
  let trace_level =
    Arg.(
      value & opt string "off"
      & info [ "trace-level" ] ~docv:"LEVEL"
          ~doc:
            "Observability level: off (default, zero-cost null sink), summary (metrics only, \
             printed after the run summary), or full (metrics plus the event recorder feeding \
             --events and the trace counter tracks).")
  in
  let events =
    Arg.(
      value & opt (some string) None
      & info [ "events" ] ~docv:"FILE"
          ~doc:
            "Write the recorded engine events as JSON Lines to FILE (implies --trace-level full).")
  in
  let metrics_out =
    Arg.(
      value & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Append periodic snapshots of the metrics registry to FILE as JSON Lines, one \
             object per elapsed $(b,--metrics-period) of emulated time (implies --trace-level \
             summary at least).  Each line carries t_ns plus every counter, gauge and \
             histogram summary, so the file is a time series of the run's queueing state.")
  in
  let metrics_period =
    Arg.(
      value & opt int 10
      & info [ "metrics-period" ] ~docv:"MS"
          ~doc:"Emulated-time period between --metrics-out snapshots, in milliseconds.")
  in
  let app_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "app-file" ] ~docv:"FILE"
          ~doc:
            "Load an application from a Listing-1-style JSON file instead of --apps (validation \
             mode, one instance).  Its runfuncs must resolve against the built-in shared objects.")
  in
  (* Validate what we just wrote by reading it back — a trace file that
     does not parse should fail the run, not surface in Perfetto. *)
  let validate_jsonl path =
    In_channel.with_open_bin path (fun ic ->
        let rec go n =
          match In_channel.input_line ic with
          | None -> Ok n
          | Some line -> (
            match Dssoc_json.Json.parse line with
            | Ok _ -> go (n + 1)
            | Error e ->
              Error
                (Printf.sprintf "%s: line %d: %s" path (n + 1)
                   (Dssoc_json.Json.error_to_string e)))
        in
        go 0)
  in
  let validate_json path =
    match Dssoc_json.Json.of_file path with
    | Ok _ -> Ok ()
    | Error e -> Error (Printf.sprintf "%s: %s" path (Dssoc_json.Json.error_to_string e))
  in
  let run host cores ffts big little policy seed jitter native engine_name reservation mode
      apps_spec rate csv trace gantt trace_level events metrics_out metrics_period app_file
      faults fault_seed fabric =
    reporting_errors @@ fun () ->
    let ( let* ) = Result.bind in
    let result =
      let* config = config_of host cores ffts big little in
      let* fab = parse_fabric fabric in
      let config =
        match fab with Some f -> Config.with_fabric f config | None -> config
      in
      let* fault = parse_faults faults fault_seed in
      let* workload =
        match (app_file, String.lowercase_ascii mode) with
        | Some path, _ ->
          Reference_apps.ensure_kernels_registered ();
          let* spec = App_spec.of_file path in
          Ok (Workload.validation [ (spec, 1) ])
        | None, "validation" ->
          let* apps = parse_app_counts apps_spec in
          Ok (Workload.validation apps)
        | None, "performance" -> (
          match Workload.table2_workload ~rate () with
          | wl -> Ok wl
          | exception Invalid_argument msg -> Error msg)
        | None, other -> Error (Printf.sprintf "unknown mode %S" other)
      in
      let* level =
        match String.lowercase_ascii trace_level with
        | "off" -> Ok `Off
        | "summary" -> Ok `Summary
        | "full" -> Ok `Full
        | other -> Error (Printf.sprintf "unknown trace level %S (try off, summary or full)" other)
      in
      (* Recording events to a file needs the full level; a metrics
         time series needs at least the metrics registry. *)
      let level = if events <> None && level <> `Full then `Full else level in
      let level = if metrics_out <> None && level = `Off then `Summary else level in
      let obs =
        match level with
        | `Off -> Obs.disabled
        | `Summary -> Obs.make ~metrics:(Obs.Metrics.create ()) ()
        | `Full -> Obs.make ~sink:(Obs.Sink.ring ()) ~metrics:(Obs.Metrics.create ()) ()
      in
      let* flusher =
        match (metrics_out, Obs.metrics obs) with
        | None, _ | _, None -> Ok None
        | Some path, Some m ->
          if metrics_period <= 0 then Error "--metrics-period must be positive"
          else begin
            let f = Obs.Flush.every ~period_ms:metrics_period ~path m in
            Obs.set_flush obs f;
            Ok (Some f)
          end
      in
      let* engine = resolve_engine ~engine:engine_name ~native ~jitter ~reservation ~seed in
      let run_result = Emulator.run ~engine ~policy ~obs ?fault ~config ~workload () in
      (* The flusher holds an open channel: close (final snapshot) on
         both success and failure. *)
      Option.iter Obs.Flush.close flusher;
      let* report = run_result in
      Ok (report, obs, flusher)
    in
    match result with
    | Error msg ->
      prerr_endline msg;
      1
    | Ok (report, obs, flusher) ->
      Format.printf "%a" Stats.pp_summary report;
      Option.iter (Format.printf "%a" Obs.Metrics.pp) (Obs.metrics obs);
      (match flusher with
      | None -> ()
      | Some f ->
        Printf.printf "wrote %d metric snapshots to %s\n" (Obs.Flush.snapshots f)
          (Obs.Flush.path f));
      (match csv with
      | None -> ()
      | Some path ->
        Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc (Stats.records_csv report));
        Printf.printf "wrote %d task records to %s\n" (List.length report.Stats.records) path);
      let failures = ref [] in
      (match events with
      | None -> ()
      | Some path ->
        let recorded = Obs.recorded_events obs in
        Out_channel.with_open_bin path (fun oc -> Obs.output_jsonl oc recorded);
        (match validate_jsonl path with
        | Ok n -> Printf.printf "wrote %d events to %s (JSONL validated)\n" n path
        | Error msg -> failures := msg :: !failures));
      (match trace with
      | None -> ()
      | Some path ->
        let trace_obs = if Obs.enabled obs then Some obs else None in
        Dssoc_json.Json.to_file path (Stats.chrome_trace ?obs:trace_obs report);
        (match validate_json path with
        | Ok () -> Printf.printf "wrote Chrome trace to %s (validated)\n" path
        | Error msg -> failures := msg :: !failures));
      if gantt then print_string (Stats.gantt report);
      (match !failures with
      | [] -> 0
      | msgs ->
        List.iter prerr_endline (List.rev msgs);
        1)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run an emulation and print the collected statistics.")
    Term.(
      const run $ host_arg $ cores_arg $ ffts_arg $ big_arg $ little_arg $ policy_arg $ seed_arg
      $ jitter_arg $ native_arg $ engine_arg $ reservation_arg $ mode $ apps $ rate $ csv
      $ trace $ gantt $ trace_level $ events $ metrics_out $ metrics_period $ app_file
      $ faults_arg $ fault_seed_arg $ fabric_arg)

(* ---------------------- sweep ---------------------- *)

let sweep_cmd =
  let grid_name =
    Arg.(
      value
      & pos 0 string "fig9"
      & info [] ~docv:"GRID" ~doc:"Sweep grid preset: fig9, fig10 or fig11.")
  in
  let jobs =
    Arg.(
      value & opt int 0
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Worker domains (0 = one per recommended core). The result table is bit-identical \
                for any N.")
  in
  let replicates =
    Arg.(
      value & opt (some int) None
      & info [ "replicates" ] ~docv:"N" ~doc:"Override the preset's replicate count.")
  in
  let policies =
    Arg.(
      value & opt (some string) None
      & info [ "policies" ] ~docv:"P1,P2" ~doc:"Comma-separated policy list overriding the preset.")
  in
  let sweep_seed =
    Arg.(
      value & opt (some int) None
      & info [ "seed" ] ~docv:"SEED" ~doc:"Override the preset's base seed.")
  in
  let sweep_jitter =
    Arg.(
      value & opt (some float) None
      & info [ "jitter" ] ~docv:"SIGMA" ~doc:"Override the preset's jitter stddev fraction.")
  in
  let csv =
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc:"Write the result table as CSV to FILE (- for stdout).")
  in
  let json =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc:"Write the result table as JSON to FILE (- for stdout).")
  in
  let summary =
    Arg.(value & flag & info [ "summary" ] ~doc:"Collapse replicates into per-cell quartile summaries.")
  in
  let sweep_engine =
    Arg.(
      value & opt string "virtual"
      & info [ "engine" ] ~docv:"ENGINE"
          ~doc:
            "Evaluation engine: virtual (default) or compiled, two names of the one \
             deterministic engine: both produce the same table, fault plans included.  The \
             name still keys the result cache, so rows cached under one name are not served \
             to the other.")
  in
  let cache_arg =
    Arg.(
      value & opt (some string) None
      & info [ "cache" ] ~docv:"DIR"
          ~doc:
            "Content-addressed result cache directory.  Finished points are looked up before \
             being evaluated and new rows are appended (one JSONL file per shard, \
             fsync-batched), so interrupted sweeps resume and warm re-sweeps are near-free.  \
             Keys include the engine and the code revision ($(b,--code-rev)).")
  in
  let shard_arg =
    Arg.(
      value & opt (some string) None
      & info [ "shard" ] ~docv:"I/N"
          ~doc:
            "Evaluate only the deterministic index shard I of N (points with index mod N = I). \
             Run the N shards in separate processes against the same $(b,--cache), then join \
             them with $(b,--merge).")
  in
  let merge_arg =
    Arg.(
      value & flag
      & info [ "merge" ]
          ~doc:
            "Do not evaluate anything: reassemble the grid's full result table from the \
             $(b,--cache) store (byte-identical to a single-process run) and fail listing the \
             missing points if any shard has not finished.")
  in
  let adaptive_arg =
    Arg.(
      value & flag
      & info [ "adaptive" ]
          ~doc:
            "Successive-halving exploration instead of the exhaustive grid: (config x policy x \
             workload) cells are arms, replicates the rung budget; dominated arms are pruned \
             between rungs, never an arm holding a point on the current Pareto frontier \
             (makespan x energy x completed fraction).  Deterministic for a given grid and \
             seed.")
  in
  let out_arg =
    Arg.(
      value & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Stream CSV rows to FILE as points complete (flushed per row, completion order), \
             so an aborted sweep keeps its partial table.  Unlike $(b,--csv), which writes the \
             full table in point order at the end.")
  in
  let code_rev_arg =
    Arg.(
      value & opt (some string) None
      & info [ "code-rev" ] ~docv:"REV"
          ~doc:
            "Code revision for cache keys (default: $(b,DSSOC_CODE_REV), else git rev-parse \
             --short HEAD, else \"unknown\").  Rows cached under one revision are never served \
             to another.")
  in
  let run grid_name jobs replicates policies seed jitter csv json summary engine_name faults
      fault_seed fabric cache_dir shard merge adaptive out code_rev =
    reporting_errors @@ fun () ->
    let policies = Option.map (fun s -> List.map String.trim (String.split_on_char ',' s)) policies in
    let base_seed = Option.map Int64.of_int seed in
    let setup =
      let ( let* ) = Result.bind in
      let* engine =
        match String.lowercase_ascii engine_name with
        | "virtual" -> Ok `Virtual
        | "compiled" -> Ok `Compiled
        | other -> Error (Printf.sprintf "unknown sweep engine %S (try virtual or compiled)" other)
      in
      let* shard =
        match shard with
        | None -> Ok None
        | Some s -> (
          match String.split_on_char '/' s with
          | [ i; n ] -> (
            match (int_of_string_opt (String.trim i), int_of_string_opt (String.trim n)) with
            | Some i, Some n when n > 0 && 0 <= i && i < n -> Ok (Some (i, n))
            | _ -> Error (Printf.sprintf "bad --shard %S (want I/N with 0 <= I < N)" s))
          | _ -> Error (Printf.sprintf "bad --shard %S (want I/N, e.g. 0/2)" s))
      in
      let* () =
        if merge && cache_dir = None then Error "--merge needs --cache DIR to merge from"
        else if merge && (shard <> None || adaptive) then
          Error "--merge conflicts with --shard and --adaptive"
        else if merge && out <> None then
          Error "--merge conflicts with --out (use --csv for the merged table)"
        else if adaptive && shard <> None then
          Error "--adaptive conflicts with --shard (the rung schedule is not index-sharded)"
        else Ok ()
      in
      let* grid =
        match Presets.by_name ?replicates ?base_seed ?jitter ?policies grid_name with
        | Ok g -> (
          match parse_faults faults fault_seed with
          | Ok fault -> Ok { g with Grid.fault }
          | Error _ as e -> e)
        | Error msg -> Error msg
        | exception Invalid_argument msg -> Error msg
      in
      let* grid =
        match parse_fabric fabric with
        | Ok None -> Ok grid
        | Ok (Some f) ->
          (* Override every grid config's interconnect, including any
             the preset itself baked in (e.g. fig9-contended). *)
          Ok
            {
              grid with
              Grid.configs =
                List.map (fun (l, c) -> (l, Config.with_fabric f c)) grid.Grid.configs;
            }
        | Error _ as e -> e
      in
      Ok (engine, shard, grid)
    in
    match setup with
    | Error msg ->
      prerr_endline msg;
      1
    | Ok (engine, shard, grid) -> (
      let jobs = if jobs <= 0 then Pool.default_jobs () else jobs in
      let cache =
        Option.map
          (fun dir ->
            Cache.open_ ~readonly:merge
              ?shard:(if merge then None else shard)
              ?code_rev ~dir ())
          cache_dir
      in
      let finally () = Option.iter Cache.close cache in
      let write_or_stdout path s =
        if path = "-" then print_string s
        else begin
          Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s);
          Printf.printf "wrote %s\n" path
        end
      in
      let emit_table ?(extra_json = []) table =
        (match csv with
        | Some path -> write_or_stdout path (Sweep.to_csv table)
        | None -> ());
        (match json with
        | Some path ->
          let j =
            match (Sweep.to_json table, extra_json) with
            | j, [] -> j
            | Dssoc_json.Json.Obj fields, extra -> Dssoc_json.Json.Obj (fields @ extra)
            | j, _ -> j
          in
          write_or_stdout path (Dssoc_json.Json.to_string j ^ "\n")
        | None -> ());
        if csv = None && json = None then
          if summary then Format.printf "%a" Sweep.pp_summary table
          else Format.printf "%a" Sweep.pp table
        else if summary then Format.printf "%a" Sweep.pp_summary table
      in
      (* All progress/timing chatter goes to stderr so stdout stays
         byte-comparable across runs, shard counts and cache states. *)
      let stats_lines (s : Sweep.stats) =
        Printf.eprintf "%d points on %d domain%s in %.3f s\n" s.Sweep.points jobs
          (if jobs = 1 then "" else "s")
          (float_of_int s.Sweep.elapsed_ns /. 1e9);
        if cache <> None then
          Printf.eprintf "cache: %d hits, %d misses\n" s.Sweep.cache_hits s.Sweep.cache_misses;
        Printf.eprintf "plans: %d compiled, %d reused\n" s.Sweep.plan_compiles
          s.Sweep.plan_reuses
      in
      let with_out k =
        match out with
        | None -> k None
        | Some path ->
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc (Sweep.csv_header ^ "\n");
              Out_channel.flush oc;
              let r =
                k
                  (Some
                     (fun row ->
                       Out_channel.output_string oc (Sweep.csv_row row ^ "\n");
                       Out_channel.flush oc))
              in
              Printf.eprintf "streamed rows to %s\n" path;
              r)
      in
      Fun.protect ~finally (fun () ->
          if merge then begin
            match Sweep.of_cache ~engine ~cache:(Option.get cache) grid with
            | Ok table ->
              emit_table table;
              Printf.eprintf "merged %d points from %s\n" (List.length table.Sweep.rows)
                (Option.get cache_dir);
              0
            | Error msg ->
              prerr_endline msg;
              1
          end
          else if adaptive then begin
            let a = with_out (fun on_row -> Sweep.run_adaptive ~jobs ~engine ?cache ?on_row grid) in
            let frontier_table =
              { Sweep.grid_label = grid.Grid.label ^ "/frontier"; rows = a.Sweep.a_frontier }
            in
            let extra_json =
              [
                ( "adaptive",
                  Dssoc_json.Json.obj
                    [
                      ("exhaustive_points", Dssoc_json.Json.int a.Sweep.a_exhaustive_points);
                      ("evaluated_points", Dssoc_json.Json.int a.Sweep.a_stats.Sweep.points);
                      ( "survivors",
                        Dssoc_json.Json.list
                          (List.map
                             (fun arm ->
                               let c, p, w = Sweep.arm_cell grid arm in
                               Dssoc_json.Json.list
                                 [ Dssoc_json.Json.str c; Dssoc_json.Json.str p;
                                   Dssoc_json.Json.str w ])
                             a.Sweep.a_survivors) );
                      ( "frontier",
                        Dssoc_json.Json.list
                          (List.map
                             (fun (r : Sweep.row) ->
                               Dssoc_json.Json.list
                                 [ Dssoc_json.Json.str r.Sweep.config;
                                   Dssoc_json.Json.str r.Sweep.policy;
                                   Dssoc_json.Json.str r.Sweep.workload;
                                   Dssoc_json.Json.int r.Sweep.replicate ])
                             a.Sweep.a_frontier) );
                    ] );
              ]
            in
            emit_table ~extra_json a.Sweep.a_table;
            if csv = None && json = None then begin
              Format.printf "@.Pareto frontier (makespan x energy x completed fraction):@.";
              Format.printf "%a" Sweep.pp frontier_table
            end;
            List.iter
              (fun (r : Frontier.rung) ->
                Printf.eprintf "rung %d: %d arms at %d replicate%s, pruned %d\n" r.Frontier.rung
                  (List.length r.Frontier.arms_in)
                  r.Frontier.cumulative_replicates
                  (if r.Frontier.cumulative_replicates = 1 then "" else "s")
                  (List.length r.Frontier.pruned))
              a.Sweep.a_rungs;
            Printf.eprintf "adaptive: evaluated %d of %d points (%.0f%%), %d survivor arm%s\n"
              a.Sweep.a_stats.Sweep.points a.Sweep.a_exhaustive_points
              (100.0
              *. float_of_int a.Sweep.a_stats.Sweep.points
              /. float_of_int (max 1 a.Sweep.a_exhaustive_points))
              (List.length a.Sweep.a_survivors)
              (if List.length a.Sweep.a_survivors = 1 then "" else "s");
            stats_lines a.Sweep.a_stats;
            0
          end
          else begin
            let table, stats =
              with_out (fun on_row -> Sweep.run_stats ~jobs ~engine ?cache ?shard ?on_row grid)
            in
            emit_table table;
            (match shard with
            | Some (i, n) -> Printf.eprintf "shard %d/%d: " i n
            | None -> ());
            stats_lines stats;
            0
          end))
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Run a design-space exploration grid across a pool of worker domains.  Output is \
          deterministic: the same grid and seed produce a byte-identical result table for any \
          --jobs value, any --shard split (after --merge) and any --cache state.")
    Term.(
      const run $ grid_name $ jobs $ replicates $ policies $ sweep_seed $ sweep_jitter $ csv
      $ json $ summary $ sweep_engine $ faults_arg $ fault_seed_arg $ fabric_arg $ cache_arg
      $ shard_arg
      $ merge_arg $ adaptive_arg $ out_arg $ code_rev_arg)

(* ---------------------- analyze ---------------------- *)

let analyze_cmd =
  let module Analyze = Dssoc_obs.Analyze in
  let events_file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"EVENTS.jsonl"
          ~doc:"Event log written by $(b,run --events) (either engine).")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the analysis as JSON on stdout.") in
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the report to FILE instead of stdout.")
  in
  (* Strict load: an unparseable line means a truncated or corrupt log,
     and silently analysing a prefix would misreport the critical path. *)
  let load_events path =
    In_channel.with_open_bin path (fun ic ->
        let rec go n acc =
          match In_channel.input_line ic with
          | None -> Ok (List.rev acc)
          | Some line when String.trim line = "" -> go (n + 1) acc
          | Some line -> (
            match Dssoc_json.Json.parse line with
            | Error e ->
              Error
                (Printf.sprintf "%s: line %d: %s" path (n + 1)
                   (Dssoc_json.Json.error_to_string e))
            | Ok j -> (
              match Obs.event_of_json j with
              | Error msg -> Error (Printf.sprintf "%s: line %d: %s" path (n + 1) msg)
              | Ok ev -> go (n + 1) (ev :: acc)))
        in
        go 0 [])
  in
  let run path json out =
    reporting_errors @@ fun () ->
    match load_events path with
    | Error msg ->
      prerr_endline msg;
      1
    | Ok events ->
      let t = Analyze.of_events events in
      let text =
        if json then Dssoc_json.Json.to_string (Analyze.to_json t) ^ "\n"
        else Format.asprintf "%a" Analyze.pp t
      in
      (match out with
      | None -> print_string text
      | Some file ->
        Out_channel.with_open_bin file (fun oc -> Out_channel.output_string oc text);
        Printf.printf "wrote %s\n" file);
      0
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Post-run analytics over a recorded event log: critical path of the realized schedule \
          (with per-step slack and a DMA/stall decomposition), per-PE-class utilization, and \
          the wait/service/stall queueing breakdown.  Engine-agnostic — the log alone \
          determines the report.")
    Term.(const run $ events_file $ json $ out)

(* ---------------------- serve ---------------------- *)

let serve_cmd =
  let tenants =
    Arg.(
      required
      & opt (some string) None
      & info [ "tenants" ] ~docv:"SPEC"
          ~doc:
            "Tenant registrations, ';'-separated: \
             'NAME:apps=APP[*W][+APP..]:rate=R[:prio=P][:slo=MS][:seed=S]'.  $(b,apps) is a \
             weighted application mix, $(b,rate) the mean Poisson arrival rate in jobs per \
             emulated millisecond.  Example: \
             'gold:apps=wifi_tx*3+range_detection:rate=1.5:prio=2:slo=5ms;bulk:apps=wifi_rx:rate=4'.")
  in
  let duration =
    Arg.(
      value & opt float 10.0
      & info [ "duration-ms" ] ~docv:"MS"
          ~doc:"Emulated arrival window: arrivals are generated strictly inside [0, MS).")
  in
  let admission =
    Arg.(
      value & opt string ""
      & info [ "admission" ] ~docv:"SPEC"
          ~doc:
            "Admission control: 'policy=block|shed|degrade:queue=N:max-ready=N:timeout=DUR' \
             (all fields optional; default shed with a 16-deep queue, 128 max-ready, no \
             watchdog).  $(b,block) stalls the arrival stream, $(b,shed) rejects the newest \
             arrival with a typed verdict, $(b,degrade) sheds from the lowest-priority tenant \
             below the arrival's priority.  $(b,timeout) arms the watchdog that aborts \
             instances exceeding the bound from arrival.")
  in
  let checkpoint =
    Arg.(
      value & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "On a drain request (SIGTERM/SIGINT, --drain-at-ms or --wall-budget-s), stop at \
             the next quiescent instant and atomically write a versioned checkpoint here.")
  in
  let restore =
    Arg.(
      value & opt (some string) None
      & info [ "restore" ] ~docv:"FILE"
          ~doc:
            "Resume from a checkpoint written by --checkpoint.  The spec must match the run \
             that produced it; the final report is byte-identical to an uninterrupted run.")
  in
  let drain_at =
    Arg.(
      value & opt (some float) None
      & info [ "drain-at-ms" ] ~docv:"MS"
          ~doc:"Deterministic drain trigger at emulated time MS (for reproducible checkpoints).")
  in
  let wall_budget =
    Arg.(
      value & opt (some float) None
      & info [ "wall-budget-s" ] ~docv:"S"
          ~doc:"Drain once S wall-clock seconds have elapsed (soak harness).")
  in
  let metrics_out =
    Arg.(
      value & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:"Append periodic metric snapshots to FILE as JSON Lines (see $(b,run)).")
  in
  let metrics_period =
    Arg.(
      value & opt int 10
      & info [ "metrics-period" ] ~docv:"MS" ~doc:"Emulated-time period between snapshots.")
  in
  let report_out =
    Arg.(
      value & opt (some string) None
      & info [ "report-out" ] ~docv:"FILE"
          ~doc:"Also write the per-tenant report to FILE (for byte-comparison across restores).")
  in
  let run host cores ffts big little policy seed jitter tenants duration admission checkpoint
      restore drain_at wall_budget metrics_out metrics_period report_out =
    reporting_errors @@ fun () ->
    let ( let* ) = Result.bind in
    let result =
      let* config = config_of host cores ffts big little in
      let* policy = Scheduler.find policy in
      let* admission = Server.admission_of_spec admission in
      let* tenants = Server.tenants_of_spec tenants in
      let* () = if duration <= 0.0 then Error "--duration-ms must be positive" else Ok () in
      let spec =
        {
          Server.sp_config = config;
          sp_policy = policy;
          sp_seed = Int64.of_int seed;
          sp_jitter = jitter;
          sp_duration_ms = duration;
          sp_admission = admission;
          sp_tenants = tenants;
        }
      in
      let obs =
        match metrics_out with
        | None -> Obs.disabled
        | Some _ -> Obs.make ~metrics:(Obs.Metrics.create ()) ()
      in
      let* flusher =
        match (metrics_out, Obs.metrics obs) with
        | None, _ | _, None -> Ok None
        | Some path, Some m ->
          if metrics_period <= 0 then Error "--metrics-period must be positive"
          else begin
            let f = Obs.Flush.every ~period_ms:metrics_period ~path m in
            Obs.set_flush obs f;
            Ok (Some f)
          end
      in
      (* A drain request stops the server at the next quiescent instant:
         SIGTERM/SIGINT (graceful shutdown), an emulated-time trigger
         (reproducible checkpoints), or a wall-clock budget (soak). *)
      let stop = ref false in
      let install s =
        try Sys.set_signal s (Sys.Signal_handle (fun _ -> stop := true))
        with Invalid_argument _ | Sys_error _ -> ()
      in
      install Sys.sigterm;
      install Sys.sigint;
      let t0 = Unix.gettimeofday () in
      let drain ~now_ns =
        !stop
        || (match drain_at with Some ms -> float_of_int now_ns >= ms *. 1e6 | None -> false)
        ||
        match wall_budget with
        | Some s -> Unix.gettimeofday () -. t0 >= s
        | None -> false
      in
      let r = Server.run ~obs ~drain ?checkpoint ?restore spec in
      (* The flusher's close writes the final snapshot — on the drain
         path this is the "flush observability, then checkpoint was
         written" part of graceful shutdown. *)
      Option.iter Obs.Flush.close flusher;
      let* outcome = r in
      Ok (outcome, flusher)
    in
    match result with
    | Error msg ->
      prerr_endline msg;
      1
    | Ok (outcome, flusher) ->
      let report = Server.render_report outcome in
      print_string report;
      (match report_out with
      | None -> ()
      | Some path ->
        Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc report);
        Printf.printf "wrote report to %s\n" path);
      (match flusher with
      | None -> ()
      | Some f ->
        Printf.printf "wrote %d metric snapshots to %s\n" (Obs.Flush.snapshots f)
          (Obs.Flush.path f));
      if outcome.Server.oc_drained then begin
        match outcome.Server.oc_checkpoint with
        | Some path ->
          Printf.printf "drained at %d ns; checkpoint written to %s (restore with --restore)\n"
            outcome.Server.oc_clock_ns path;
          0
        | None ->
          Printf.printf "drained at %d ns; no --checkpoint given, pending work was discarded\n"
            outcome.Server.oc_clock_ns;
          0
      end
      else 0
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Resident emulation service: open-loop tenant arrival streams with admission \
          control, backpressure, a watchdog, and checkpoint/restore at quiescent instants, \
          on the compiled engine.  SIGTERM/SIGINT drain gracefully (finish in-flight work, \
          flush metrics, write the checkpoint if --checkpoint is set).")
    Term.(
      const run $ host_arg $ cores_arg $ ffts_arg $ big_arg $ little_arg $ policy_arg $ seed_arg
      $ jitter_arg $ tenants $ duration $ admission $ checkpoint $ restore $ drain_at
      $ wall_budget $ metrics_out $ metrics_period $ report_out)

(* ---------------------- convert ---------------------- *)

let convert_cmd =
  let source =
    Arg.(
      value
      & opt (some string) None
      & info [ "source" ] ~docv:"FILE" ~doc:"Mini-C source file (default: the built-in monolithic range detection).")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the generated DAG JSON to FILE.")
  in
  let no_optimize =
    Arg.(value & flag & info [ "no-optimize" ] ~doc:"Disable hash-based kernel recognition/substitution.")
  in
  let parallelize =
    Arg.(
      value & flag
      & info [ "parallelize" ]
          ~doc:"Link nodes by memory-dependence edges so independent kernels run in parallel.")
  in
  let emulate = Arg.(value & flag & info [ "emulate" ] ~doc:"Also run the converted app on 3Core+1FFT.") in
  let run source out no_optimize parallelize emulate =
    reporting_errors @@ fun () ->
    let name, src, inputs =
      match source with
      | None ->
        ("rd_monolithic", Driver.range_detection_source, Driver.range_detection_inputs ())
      | Some path ->
        ( Filename.remove_extension (Filename.basename path),
          In_channel.with_open_bin path In_channel.input_all,
          Driver.range_detection_inputs () )
    in
    match Driver.convert ~optimize:(not no_optimize) ~parallelize ~name ~source:src ~inputs () with
    | Error msg ->
      prerr_endline msg;
      1
    | Ok conv ->
      print_string (Driver.summary conv);
      (match out with
      | None -> ()
      | Some path ->
        App_spec.to_file path conv.Driver.spec;
        Printf.printf "wrote %s\n" path);
      if emulate then begin
        let config = Config.zcu102_cores_ffts ~cores:3 ~ffts:1 in
        let workload = Workload.validation [ (conv.Driver.spec, 1) ] in
        match Emulator.run ~engine:(Emulator.virtual_seeded ~jitter:0.0 1L) ~config ~workload () with
        | Ok report -> Format.printf "@.%a" Stats.pp_summary report
        | Error msg -> prerr_endline msg
      end;
      0
  in
  Cmd.v
    (Cmd.info "convert" ~doc:"Automatically convert monolithic C code into a DAG application.")
    Term.(const run $ source $ out $ no_optimize $ parallelize $ emulate)

let () =
  let info =
    Cmd.info "dssoc_emu" ~version:"1.0.0"
      ~doc:"User-space emulation framework for domain-specific SoC design."
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            apps_cmd;
            platforms_cmd;
            policies_cmd;
            run_cmd;
            serve_cmd;
            sweep_cmd;
            analyze_cmd;
            convert_cmd;
          ]))
