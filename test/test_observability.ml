(* Observability regression tests: hardened Gantt rendering edge cases
   plus golden outputs pinning [Stats.records_csv] and
   [Stats.chrome_trace] for a fixed seeded run, so any change to the
   exporter formats (column order, units, field names) is caught
   deliberately rather than discovered by downstream tooling. *)

module Emulator = Dssoc_runtime.Emulator
module Stats = Dssoc_runtime.Stats
module Config = Dssoc_soc.Config
module Workload = Dssoc_apps.Workload
module Reference_apps = Dssoc_apps.Reference_apps
module Json = Dssoc_json.Json
module Obs = Dssoc_obs.Obs
module Quantile = Dssoc_stats.Quantile

(* ---------------------- hand-built reports for Gantt edges ---------------------- *)

let mk_record ~app ~node ~pe ~d ~c =
  {
    Stats.app;
    instance = 0;
    node;
    pe;
    ready_ns = 0;
    dispatched_ns = d;
    completed_ns = c;
  }

let mk_usage label =
  {
    Stats.pe_label = label;
    pe_kind = "cpu";
    busy_ns = 0;
    tasks_run = 0;
    busy_energy_mj = 0.0;
    energy_mj = 0.0;
  }

let mk_report ?(makespan = 1_000_000) records pe_labels =
  {
    Stats.host_name = "ZCU102";
    config_label = "test";
    policy_name = "FRFS";
    makespan_ns = makespan;
    job_count = List.length records;
    task_count = List.length records;
    pe_usage = List.map mk_usage pe_labels;
    sched_invocations = 0;
    sched_ns = 0;
    wm_overhead_ns = 0;
    records;
    app_stats = [];
    verdict = Stats.Completed;
    resilience = Stats.no_faults;
    fabric = Stats.no_fabric;
  }

let contains ~needle haystack =
  let n = String.length needle in
  let rec go i = i + n <= String.length haystack && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_gantt_zero_width_span () =
  (* An instantaneous task at the very end of the makespan used to
     produce an empty (or reversed) fill range; it must render exactly
     one visible cell and never raise. *)
  let r = mk_report [ mk_record ~app:"blip" ~node:"N" ~pe:"cpu0" ~d:1_000_000 ~c:1_000_000 ] [ "cpu0" ] in
  let g = Stats.gantt ~width:40 r in
  Alcotest.(check bool) "letter rendered" true (contains ~needle:"a" g);
  let row = List.find (fun l -> contains ~needle:"cpu0" l) (String.split_on_char '\n' g) in
  Alcotest.(check bool) "span visible in the cpu0 row" true (contains ~needle:"a|" row)

let test_gantt_degenerate_width () =
  (* width 0 (or negative) is clamped to a single column instead of
     crashing on Bytes.set row (-1). *)
  List.iter
    (fun width ->
      let r = mk_report [ mk_record ~app:"x" ~node:"N" ~pe:"cpu0" ~d:0 ~c:500 ] [ "cpu0" ] in
      let g = Stats.gantt ~width r in
      Alcotest.(check bool) "renders non-empty" true (String.length g > 0))
    [ 0; -5; 1 ]

let test_gantt_zero_makespan () =
  let r = mk_report ~makespan:0 [ mk_record ~app:"x" ~node:"N" ~pe:"cpu0" ~d:0 ~c:0 ] [ "cpu0" ] in
  let g = Stats.gantt ~width:20 r in
  Alcotest.(check bool) "renders" true (String.length g > 0)

let test_gantt_many_apps () =
  (* 30 distinct applications exhaust a-z; the 27th app must continue
     into upper case rather than rendering '?' for every extra app. *)
  let apps = List.init 30 (fun i -> Printf.sprintf "app%02d" i) in
  let records =
    List.mapi (fun i app -> mk_record ~app ~node:"N" ~pe:"cpu0" ~d:(i * 1000) ~c:((i * 1000) + 900)) apps
  in
  let r = mk_report ~makespan:30_000 records [ "cpu0" ] in
  let g = Stats.gantt ~width:120 r in
  Alcotest.(check bool) "no unknown-letter fallback" false (contains ~needle:"?" g);
  Alcotest.(check bool) "27th app maps to upper case" true (contains ~needle:"A = app26" g);
  Alcotest.(check bool) "30th app present in legend" true (contains ~needle:"D = app29" g)

(* ---------------------- golden exporter outputs ---------------------- *)

(* Fixed scenario: 1x wifi_tx on 2Core+1FFT, deterministic virtual
   engine (jitter 0, seed 1).  Regenerate the golden strings with
   [dune exec goldengen/gen.exe] equivalents if the execution model
   deliberately changes, and mention the change in CHANGES.md. *)
let golden_run () =
  let config = Config.zcu102_cores_ffts ~cores:2 ~ffts:1 in
  let workload = Workload.validation [ (Reference_apps.wifi_tx (), 1) ] in
  Emulator.run_exn ~engine:(Emulator.virtual_seeded ~jitter:0.0 1L) ~config ~workload ()

let golden_csv =
  "app,instance,node,pe,ready_ns,dispatched_ns,completed_ns\n\
     wifi_tx,0,CRC,cpu0,1050,5250,9042\n\
     wifi_tx,0,SCRAMBLE,cpu0,10092,14292,19172\n\
     wifi_tx,0,ENCODE,cpu0,20222,24422,34622\n\
     wifi_tx,0,INTERLEAVE,cpu0,35672,39872,47584\n\
     wifi_tx,0,MODULATE,cpu0,48634,52834,62474\n\
     wifi_tx,0,PILOT,cpu0,63524,67724,71254\n\
     wifi_tx,0,IFFT,cpu0,72304,76504,91944\n\
     "

let golden_trace =
  "{\n  \"traceEvents\": [\n    {\n      \"name\": \"thread_name\",\n      \"ph\": \"M\",\n      \"pid\": 1,\n      \"tid\": 0,\n      \"args\": {\n        \"name\": \"cpu0\"\n      }\n    },\n    {\n      \"name\": \"thread_name\",\n      \"ph\": \"M\",\n      \"pid\": 1,\n      \"tid\": 1,\n      \"args\": {\n        \"name\": \"cpu1\"\n      }\n    },\n    {\n      \"name\": \"thread_name\",\n      \"ph\": \"M\",\n      \"pid\": 1,\n      \"tid\": 2,\n      \"args\": {\n        \"name\": \"fft2\"\n      }\n    },\n    {\n      \"name\": \"wifi_tx/0:CRC\",\n      \"cat\": \"wifi_tx\",\n      \"ph\": \"X\",\n      \"ts\": 5.25,\n      \"dur\": 3.7919999999999998,\n      \"pid\": 1,\n      \"tid\": 0,\n      \"args\": {\n        \"ready_us\": 1.05\n      }\n    },\n    {\n      \"name\": \"wifi_tx/0:SCRAMBLE\",\n      \"cat\": \"wifi_tx\",\n      \"ph\": \"X\",\n      \"ts\": 14.292,\n      \"dur\": 4.8799999999999999,\n      \"pid\": 1,\n      \"tid\": 0,\n      \"args\": {\n        \"ready_us\": 10.092000000000001\n      }\n    },\n    {\n      \"name\": \"wifi_tx/0:ENCODE\",\n      \"cat\": \"wifi_tx\",\n      \"ph\": \"X\",\n      \"ts\": 24.422000000000001,\n      \"dur\": 10.199999999999999,\n      \"pid\": 1,\n      \"tid\": 0,\n      \"args\": {\n        \"ready_us\": 20.222000000000001\n      }\n    },\n    {\n      \"name\": \"wifi_tx/0:INTERLEAVE\",\n      \"cat\": \"wifi_tx\",\n      \"ph\": \"X\",\n      \"ts\": 39.872,\n      \"dur\": 7.7119999999999997,\n      \"pid\": 1,\n      \"tid\": 0,\n      \"args\": {\n        \"ready_us\": 35.671999999999997\n      }\n    },\n    {\n      \"name\": \"wifi_tx/0:MODULATE\",\n      \"cat\": \"wifi_tx\",\n      \"ph\": \"X\",\n      \"ts\": 52.834000000000003,\n      \"dur\": 9.6400000000000006,\n      \"pid\": 1,\n      \"tid\": 0,\n      \"args\": {\n        \"ready_us\": 48.634\n      }\n    },\n    {\n      \"name\": \"wifi_tx/0:PILOT\",\n      \"cat\": \"wifi_tx\",\n      \"ph\": \"X\",\n      \"ts\": 67.724000000000004,\n      \"dur\": 3.5299999999999998,\n      \"pid\": 1,\n      \"tid\": 0,\n      \"args\": {\n        \"ready_us\": 63.524000000000001\n      }\n    },\n    {\n      \"name\": \"wifi_tx/0:IFFT\",\n      \"cat\": \"wifi_tx\",\n      \"ph\": \"X\",\n      \"ts\": 76.504000000000005,\n      \"dur\": 15.44,\n      \"pid\": 1,\n      \"tid\": 0,\n      \"args\": {\n        \"ready_us\": 72.304000000000002\n      }\n    }\n  ],\n  \"displayTimeUnit\": \"ms\",\n  \"otherData\": {\n    \"config\": \"2Core+1FFT\",\n    \"policy\": \"FRFS\",\n    \"host\": \"ZCU102\"\n  }\n}"

let test_records_csv_golden () =
  Alcotest.(check string) "records_csv pinned" golden_csv (Stats.records_csv (golden_run ()))

let test_compiled_records_csv_golden () =
  (* The compiled engine must replay the golden scenario byte for
     byte, so it is pinned against the *same* literal as the virtual
     engine — one golden, two engines. *)
  let config = Config.zcu102_cores_ffts ~cores:2 ~ffts:1 in
  let workload = Workload.validation [ (Reference_apps.wifi_tx (), 1) ] in
  let r =
    Emulator.run_exn ~engine:(Emulator.compiled_seeded ~jitter:0.0 1L) ~config ~workload ()
  in
  Alcotest.(check string) "compiled records_csv pinned" golden_csv (Stats.records_csv r)

let test_chrome_trace_golden () =
  Alcotest.(check string) "chrome_trace pinned" golden_trace
    (Json.to_string (Stats.chrome_trace (golden_run ())))

let test_chrome_trace_roundtrip () =
  let json = Stats.chrome_trace (golden_run ()) in
  Alcotest.(check bool) "parses back" true (Json.parse (Json.to_string json) = Ok json)

(* ---------------------- ring sink ---------------------- *)

let tick i = Obs.Wm_tick { completions = i; injected = 0 }

let test_ring_retention () =
  let s = Obs.Sink.ring ~capacity:4 () in
  Alcotest.(check bool) "not null" false (Obs.Sink.is_null s);
  Alcotest.(check int) "empty" 0 (Obs.Sink.length s);
  for i = 0 to 2 do
    Obs.Sink.emit s i (tick i)
  done;
  Alcotest.(check int) "three stored" 3 (Obs.Sink.length s);
  Alcotest.(check int) "none dropped" 0 (Obs.Sink.dropped s);
  Alcotest.(check (list int)) "oldest first" [ 0; 1; 2 ]
    (List.map (fun e -> e.Obs.t_ns) (Obs.Sink.events s))

let test_ring_wrap () =
  let s = Obs.Sink.ring ~capacity:4 () in
  for i = 0 to 9 do
    Obs.Sink.emit s i (tick i)
  done;
  Alcotest.(check int) "capacity retained" 4 (Obs.Sink.length s);
  Alcotest.(check int) "total counts everything" 10 (Obs.Sink.total s);
  Alcotest.(check int) "overwritten counted as dropped" 6 (Obs.Sink.dropped s);
  Alcotest.(check (list int)) "last four, oldest first" [ 6; 7; 8; 9 ]
    (List.map (fun e -> e.Obs.t_ns) (Obs.Sink.events s));
  (* bodies survive the wrap with their payloads intact *)
  List.iter2
    (fun e i ->
      match e.Obs.body with
      | Obs.Wm_tick { completions; _ } -> Alcotest.(check int) "payload" i completions
      | _ -> Alcotest.fail "unexpected body")
    (Obs.Sink.events s) [ 6; 7; 8; 9 ]

let test_ring_bad_capacity () =
  Alcotest.check_raises "capacity 0 rejected" (Invalid_argument "Obs.Sink.ring: capacity must be positive")
    (fun () -> ignore (Obs.Sink.ring ~capacity:0 ()))

(* ---------------------- metrics registry ---------------------- *)

let test_histogram_matches_quantile () =
  (* The histogram summary must agree with Dssoc_stats.Quantile applied
     to the raw samples — the registry stores, Quantile computes. *)
  let samples = [| 3.2; 1.0; 4.4; 1.5; 9.6; 2.7; 5.3; 5.8 |] in
  let m = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram m "lat" in
  Array.iter (Obs.Metrics.observe h) samples;
  Alcotest.(check int) "count" (Array.length samples) (Obs.Metrics.histogram_count h);
  let got name f expect =
    match f with
    | None -> Alcotest.failf "%s: no samples" name
    | Some v -> Alcotest.(check (float 1e-9)) name expect v
  in
  got "mean" (Obs.Metrics.histogram_mean h) (Quantile.mean samples);
  got "p50" (Obs.Metrics.histogram_quantile h 0.5) (Quantile.quantile samples 0.5);
  got "p95" (Obs.Metrics.histogram_quantile h 0.95) (Quantile.quantile samples 0.95)

let test_gauge_series_collapses_same_timestamp () =
  let m = Obs.Metrics.create () in
  let g = Obs.Metrics.gauge m "depth" in
  Obs.Metrics.set g ~t_ns:10 1;
  Obs.Metrics.set g ~t_ns:10 3;
  Obs.Metrics.set g ~t_ns:20 2;
  Alcotest.(check (list (pair int int))) "step series" [ (10, 3); (20, 2) ]
    (Obs.Metrics.gauge_series g);
  Alcotest.(check int) "max sees collapsed peak" 3 (Obs.Metrics.gauge_max g);
  Alcotest.check_raises "kind mismatch rejected"
    (Invalid_argument "Obs.Metrics.counter: depth registered with another kind")
    (fun () -> ignore (Obs.Metrics.counter m "depth"))

(* ---------------------- golden JSONL event log ---------------------- *)

let observed_run workload_apps =
  let config = Config.zcu102_cores_ffts ~cores:2 ~ffts:1 in
  let workload = Workload.validation workload_apps in
  let obs = Obs.make ~sink:(Obs.Sink.ring ()) ~metrics:(Obs.Metrics.create ()) () in
  let r =
    Emulator.run_exn ~engine:(Emulator.virtual_seeded ~jitter:0.0 1L) ~config ~workload ~obs ()
  in
  (r, obs)

(* Golden for the same fixed scenario as [golden_csv]/[golden_trace];
   regenerate with [dune exec goldengen/gen.exe]. *)
let golden_jsonl =
  String.concat "\n"
    [
      {|{"t":1050,"ev":"instance_injected","instance":0,"app":"wifi_tx"}|};
      {|{"t":1050,"ev":"task_ready","task":0,"instance":0,"app":"wifi_tx","node":"CRC"}|};
      {|{"t":3450,"ev":"sched","ready":1,"examined":1,"ops":3,"cost_ns":2000,"assigned":1}|};
      {|{"t":5250,"ev":"task_dispatched","task":0,"instance":0,"app":"wifi_tx","node":"CRC","pe":"cpu0","pe_index":0,"wait_ns":4200}|};
      {|{"t":5250,"ev":"wm_tick","completions":0,"injected":1}|};
      {|{"t":9042,"ev":"task_completed","task":0,"instance":0,"app":"wifi_tx","node":"CRC","pe":"cpu0","pe_index":0,"service_ns":3792}|};
      {|{"t":10092,"ev":"task_ready","task":1,"instance":0,"app":"wifi_tx","node":"SCRAMBLE"}|};
      {|{"t":12492,"ev":"sched","ready":1,"examined":1,"ops":3,"cost_ns":2000,"assigned":1}|};
      {|{"t":14292,"ev":"task_dispatched","task":1,"instance":0,"app":"wifi_tx","node":"SCRAMBLE","pe":"cpu0","pe_index":0,"wait_ns":4200}|};
      {|{"t":14292,"ev":"wm_tick","completions":1,"injected":0}|};
      {|{"t":19172,"ev":"task_completed","task":1,"instance":0,"app":"wifi_tx","node":"SCRAMBLE","pe":"cpu0","pe_index":0,"service_ns":4880}|};
      {|{"t":20222,"ev":"task_ready","task":2,"instance":0,"app":"wifi_tx","node":"ENCODE"}|};
      {|{"t":22622,"ev":"sched","ready":1,"examined":1,"ops":3,"cost_ns":2000,"assigned":1}|};
      {|{"t":24422,"ev":"task_dispatched","task":2,"instance":0,"app":"wifi_tx","node":"ENCODE","pe":"cpu0","pe_index":0,"wait_ns":4200}|};
      {|{"t":24422,"ev":"wm_tick","completions":1,"injected":0}|};
      {|{"t":34622,"ev":"task_completed","task":2,"instance":0,"app":"wifi_tx","node":"ENCODE","pe":"cpu0","pe_index":0,"service_ns":10200}|};
      {|{"t":35672,"ev":"task_ready","task":3,"instance":0,"app":"wifi_tx","node":"INTERLEAVE"}|};
      {|{"t":38072,"ev":"sched","ready":1,"examined":1,"ops":3,"cost_ns":2000,"assigned":1}|};
      {|{"t":39872,"ev":"task_dispatched","task":3,"instance":0,"app":"wifi_tx","node":"INTERLEAVE","pe":"cpu0","pe_index":0,"wait_ns":4200}|};
      {|{"t":39872,"ev":"wm_tick","completions":1,"injected":0}|};
      {|{"t":47584,"ev":"task_completed","task":3,"instance":0,"app":"wifi_tx","node":"INTERLEAVE","pe":"cpu0","pe_index":0,"service_ns":7712}|};
      {|{"t":48634,"ev":"task_ready","task":4,"instance":0,"app":"wifi_tx","node":"MODULATE"}|};
      {|{"t":51034,"ev":"sched","ready":1,"examined":1,"ops":3,"cost_ns":2000,"assigned":1}|};
      {|{"t":52834,"ev":"task_dispatched","task":4,"instance":0,"app":"wifi_tx","node":"MODULATE","pe":"cpu0","pe_index":0,"wait_ns":4200}|};
      {|{"t":52834,"ev":"wm_tick","completions":1,"injected":0}|};
      {|{"t":62474,"ev":"task_completed","task":4,"instance":0,"app":"wifi_tx","node":"MODULATE","pe":"cpu0","pe_index":0,"service_ns":9640}|};
      {|{"t":63524,"ev":"task_ready","task":5,"instance":0,"app":"wifi_tx","node":"PILOT"}|};
      {|{"t":65924,"ev":"sched","ready":1,"examined":1,"ops":3,"cost_ns":2000,"assigned":1}|};
      {|{"t":67724,"ev":"task_dispatched","task":5,"instance":0,"app":"wifi_tx","node":"PILOT","pe":"cpu0","pe_index":0,"wait_ns":4200}|};
      {|{"t":67724,"ev":"wm_tick","completions":1,"injected":0}|};
      {|{"t":71254,"ev":"task_completed","task":5,"instance":0,"app":"wifi_tx","node":"PILOT","pe":"cpu0","pe_index":0,"service_ns":3530}|};
      {|{"t":72304,"ev":"task_ready","task":6,"instance":0,"app":"wifi_tx","node":"IFFT"}|};
      {|{"t":74704,"ev":"sched","ready":1,"examined":1,"ops":3,"cost_ns":2000,"assigned":1}|};
      {|{"t":76504,"ev":"task_dispatched","task":6,"instance":0,"app":"wifi_tx","node":"IFFT","pe":"cpu0","pe_index":0,"wait_ns":4200}|};
      {|{"t":76504,"ev":"wm_tick","completions":1,"injected":0}|};
      {|{"t":91944,"ev":"task_completed","task":6,"instance":0,"app":"wifi_tx","node":"IFFT","pe":"cpu0","pe_index":0,"service_ns":15440}|};
      {|{"t":92994,"ev":"wm_tick","completions":1,"injected":0}|};
      "";
    ]

let test_jsonl_golden () =
  let _, obs = observed_run [ (Reference_apps.wifi_tx (), 1) ] in
  Alcotest.(check string) "event log pinned" golden_jsonl
    (Obs.to_jsonl (Obs.recorded_events obs));
  Alcotest.(check int) "nothing dropped" 0 (Obs.Sink.dropped (Obs.sink obs))

let test_jsonl_parses_and_deterministic () =
  (* A workload that also exercises the FFT accelerator (phase events). *)
  let apps = [ (Reference_apps.wifi_tx (), 1); (Reference_apps.range_detection (), 1) ] in
  let _, obs1 = observed_run apps in
  let _, obs2 = observed_run apps in
  let jsonl = Obs.to_jsonl (Obs.recorded_events obs1) in
  Alcotest.(check string) "bit-identical across identical runs" jsonl
    (Obs.to_jsonl (Obs.recorded_events obs2));
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' jsonl) in
  Alcotest.(check bool) "non-trivial log" true (List.length lines > 20);
  List.iter
    (fun line ->
      match Json.parse line with
      | Ok (Json.Obj members) ->
          Alcotest.(check bool) "has t" true (List.mem_assoc "t" members);
          Alcotest.(check bool) "has ev" true (List.mem_assoc "ev" members)
      | Ok _ -> Alcotest.failf "line is not an object: %s" line
      | Error e -> Alcotest.failf "unparseable line %s: %s" line (Json.error_to_string e))
    lines;
  let has_ev name =
    List.exists (fun l -> contains ~needle:(Printf.sprintf "\"ev\":%S" name) l) lines
  in
  List.iter
    (fun name -> Alcotest.(check bool) name true (has_ev name))
    [ "instance_injected"; "task_ready"; "task_dispatched"; "task_completed"; "sched"; "phase"; "wm_tick" ]

(* ---------------------- chrome trace with observation data ---------------------- *)

let trace_events json =
  match Json.member "traceEvents" json with
  | Ok (Json.List evs) -> evs
  | _ -> Alcotest.fail "traceEvents missing"

let str_member name ev = match Json.member name ev with Ok (Json.String s) -> Some s | _ -> None

let test_chrome_trace_with_obs () =
  let apps = [ (Reference_apps.wifi_tx (), 1); (Reference_apps.range_detection (), 1) ] in
  let r, obs = observed_run apps in
  let json = Stats.chrome_trace ~obs r in
  (* round-trips through the parser *)
  Alcotest.(check bool) "parses back" true (Json.parse (Json.to_string json) = Ok json);
  let evs = trace_events json in
  let phases ph =
    List.exists (fun e -> str_member "ph" e = Some "X" && str_member "name" e = Some ph) evs
  in
  List.iter
    (fun ph -> Alcotest.(check bool) ("DMA sub-span " ^ ph) true (phases ph))
    [ "dma_in"; "compute"; "dma_out" ];
  let counter_names =
    List.filter_map (fun e -> if str_member "ph" e = Some "C" then str_member "name" e else None) evs
    |> List.sort_uniq compare
  in
  Alcotest.(check bool) "ready-queue counter track" true (List.mem "ready_queue_depth" counter_names);
  Alcotest.(check bool) "in-flight counter track" true (List.mem "in_flight_tasks" counter_names);
  Alcotest.(check bool) ">= 2 counter tracks" true (List.length counter_names >= 2);
  (* the critical-path highlight rides on a dedicated named thread *)
  let crit_spans =
    List.filter
      (fun e ->
        str_member "ph" e = Some "X"
        && (match Json.member "cat" e with Ok (Json.String "crit") -> true | _ -> false))
      evs
  in
  Alcotest.(check bool) "critical-path spans present" true (crit_spans <> []);
  Alcotest.(check bool) "critical-path thread named" true
    (List.exists
       (fun e ->
         str_member "name" e = Some "thread_name"
         &&
         match Json.member "args" e with
         | Ok (Json.Obj args) -> List.assoc_opt "name" args = Some (Json.str "critical path")
         | _ -> false)
       evs);
  List.iter
    (fun e ->
      match Json.member "args" e with
      | Ok (Json.Obj args) ->
          Alcotest.(check bool) "crit span carries edge + slack" true
            (List.mem_assoc "edge" args && List.mem_assoc "slack_us" args)
      | _ -> Alcotest.fail "crit span without args")
    crit_spans;
  (* without ~obs the output must be exactly the pre-observability trace *)
  Alcotest.(check bool) "no counter events without obs" true
    (List.for_all
       (fun e -> str_member "ph" e <> Some "C")
       (trace_events (Stats.chrome_trace r)))

(* ---------------------- event JSON round-trip / streaming writer ---------------------- *)

let sample_events =
  [
    { Obs.t_ns = 0; body = Obs.Instance_injected { instance = 3; app = "wifi_rx" } };
    { Obs.t_ns = 10; body = Obs.Task_ready { task = 7; instance = 3; app = "wifi_rx"; node = "FFT" } };
    {
      Obs.t_ns = 20;
      body =
        Obs.Task_dispatched
          { task = 7; instance = 3; app = "wifi_rx"; node = "FFT"; pe = "fft1"; pe_index = 4;
            wait_ns = 10 };
    };
    {
      Obs.t_ns = 25;
      body = Obs.Phase { task = 7; pe_index = 4; phase = Obs.Dma_in; start_ns = 20; dur_ns = 5 };
    };
    { Obs.t_ns = 30; body = Obs.Stream_stalled { pe_index = 4; bytes = 4096; queued = 2 } };
    {
      Obs.t_ns = 40;
      body = Obs.Stream_admitted { pe_index = 4; bytes = 4096; stall_ns = 10; inflight = 1 };
    };
    { Obs.t_ns = 50; body = Obs.Reservation_enqueued { pe_index = 4; depth = 1 } };
    { Obs.t_ns = 55; body = Obs.Reservation_popped { pe_index = 4; depth = 0 } };
    {
      Obs.t_ns = 60;
      body =
        Obs.Sched_invoked { ready = 2; examined = 2; ops = 10; cost_ns = 2000; assigned = 1 };
    };
    {
      Obs.t_ns = 70;
      body =
        Obs.Task_completed
          { task = 7; instance = 3; app = "wifi_rx"; node = "FFT"; pe = "fft1"; pe_index = 4;
            service_ns = 50 };
    };
    {
      Obs.t_ns = 80;
      body =
        Obs.Fault_injected { task = 7; pe = "fft1"; pe_index = 4; fault = "transient"; attempt = 1 };
    };
    {
      Obs.t_ns = 85;
      body =
        Obs.Task_failed
          { task = 7; instance = 3; app = "wifi_rx"; node = "FFT"; pe = "fft1"; pe_index = 4;
            fault = "transient"; attempt = 1 };
    };
    {
      Obs.t_ns = 90;
      body =
        Obs.Task_retried
          { task = 7; instance = 3; app = "wifi_rx"; node = "FFT"; attempt = 1; backoff_ns = 100 };
    };
    { Obs.t_ns = 95; body = Obs.Pe_quarantined { pe = "fft1"; pe_index = 4; until_ns = 500; permanent = false } };
    { Obs.t_ns = 99; body = Obs.Pe_recovered { pe = "fft1"; pe_index = 4 } };
    { Obs.t_ns = 100; body = Obs.Wm_tick { completions = 1; injected = 0 } };
    { Obs.t_ns = 110; body = Obs.Tenant_admitted { tenant = "gold"; instance = 12; queue_depth = 3 } };
    { Obs.t_ns = 115; body = Obs.Tenant_shed { tenant = "bulk"; instance = 13; queue_depth = 8 } };
    { Obs.t_ns = 120; body = Obs.Instance_timed_out { tenant = "bulk"; instance = 9; age_ns = 5000 } };
    { Obs.t_ns = 130; body = Obs.Checkpoint_written { path = "/tmp/ck.json"; instances_done = 14 } };
  ]

let test_event_json_roundtrip () =
  (* Every constructor round-trips, plus everything a real traced run
     emits (reloading an --events file must lose nothing). *)
  let _, obs = observed_run [ (Reference_apps.wifi_tx (), 1); (Reference_apps.range_detection (), 1) ] in
  List.iter
    (fun (e : Obs.event) ->
      match Obs.event_of_json (Obs.event_to_json e) with
      | Ok e' -> Alcotest.(check bool) "event round-trips" true (e = e')
      | Error msg -> Alcotest.failf "round-trip failed: %s" msg)
    (sample_events @ Obs.recorded_events obs);
  (match Obs.event_of_json (Json.obj [ ("t", Json.int 1) ]) with
  | Ok _ -> Alcotest.fail "missing ev accepted"
  | Error _ -> ());
  match Obs.event_of_json (Json.obj [ ("t", Json.int 1); ("ev", Json.str "no_such_event") ]) with
  | Ok _ -> Alcotest.fail "unknown ev accepted"
  | Error _ -> ()

let test_output_jsonl_streams_same_bytes () =
  (* The streaming writer must be a drop-in for [to_jsonl]: same golden
     bytes, straight to the channel. *)
  let _, obs = observed_run [ (Reference_apps.wifi_tx (), 1) ] in
  let events = Obs.recorded_events obs in
  let path = Filename.temp_file "dssoc_events" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> Obs.output_jsonl oc events);
      let written = In_channel.with_open_bin path In_channel.input_all in
      Alcotest.(check string) "streamed bytes = to_jsonl" (Obs.to_jsonl events) written;
      Alcotest.(check string) "golden bytes" golden_jsonl written)

(* ---------------------- analysis: hand-built schedules ---------------------- *)

module Analyze = Dssoc_obs.Analyze

(* Three tasks of one instance on one CPU:
     A: ready 0,   dispatched 0,   completed 100   (chain start)
     B: ready 0,   dispatched 120, completed 270   (waited for cpu0: resource)
     C: ready 270, dispatched 270, completed 420   (ready when B completed: dependency)
   and the WM tick that observed the last completion at 440. *)
let handbuilt_cpu_events =
  let t task node = (task, node) in
  let ready t_ns (task, node) =
    { Obs.t_ns; body = Obs.Task_ready { task; instance = 0; app = "app"; node } }
  in
  let disp t_ns (task, node) wait_ns =
    {
      Obs.t_ns;
      body =
        Obs.Task_dispatched
          { task; instance = 0; app = "app"; node; pe = "cpu0"; pe_index = 0; wait_ns };
    }
  in
  let comp t_ns (task, node) service_ns =
    {
      Obs.t_ns;
      body =
        Obs.Task_completed
          { task; instance = 0; app = "app"; node; pe = "cpu0"; pe_index = 0; service_ns };
    }
  in
  [
    { Obs.t_ns = 0; body = Obs.Instance_injected { instance = 0; app = "app" } };
    ready 0 (t 0 "A");
    disp 0 (t 0 "A") 0;
    ready 0 (t 1 "B");
    comp 100 (t 0 "A") 100;
    disp 120 (t 1 "B") 120;
    comp 270 (t 1 "B") 150;
    ready 270 (t 2 "C");
    disp 270 (t 2 "C") 0;
    comp 420 (t 2 "C") 150;
    { Obs.t_ns = 440; body = Obs.Wm_tick { completions = 1; injected = 0 } };
  ]

let test_analyze_critical_path_pinned () =
  let a = Analyze.of_events handbuilt_cpu_events in
  Alcotest.(check int) "makespan is the WM-observed end" 440 (Analyze.makespan_ns a);
  let cp = Analyze.critical_path a in
  Alcotest.(check int) "length = makespan" 440 cp.Analyze.cp_length_ns;
  Alcotest.(check int) "three steps" 3 (List.length cp.Analyze.cp_steps);
  let nth n = List.nth cp.Analyze.cp_steps n in
  Alcotest.(check (list string)) "edge kinds"
    [ "injection"; "resource"; "dependency" ]
    (List.map (fun s -> Analyze.edge_name s.Analyze.s_edge) cp.Analyze.cp_steps);
  Alcotest.(check (list string)) "path nodes" [ "A"; "B"; "C" ]
    (List.map (fun s -> s.Analyze.s_task.Analyze.x_node) cp.Analyze.cp_steps);
  Alcotest.(check (list int)) "gaps" [ 0; 20; 0 ]
    (List.map (fun s -> s.Analyze.s_gap_ns) cp.Analyze.cp_steps);
  Alcotest.(check (list int)) "services" [ 100; 150; 150 ]
    (List.map (fun s -> s.Analyze.s_service_ns) cp.Analyze.cp_steps);
  (* Slack: B's binding resource (A's completion at 100) could move up
     to 100 ns earlier before B's own readiness binds; C's binding
     dependency (B at 270) has A's completion at 100 as the
     next-latest same-instance constraint. *)
  Alcotest.(check int) "injection slack" 0 (nth 0).Analyze.s_slack_ns;
  Alcotest.(check int) "resource slack" 100 (nth 1).Analyze.s_slack_ns;
  Alcotest.(check int) "dependency slack" 170 (nth 2).Analyze.s_slack_ns;
  Alcotest.(check int) "gap total" 20 cp.Analyze.cp_gap_ns;
  Alcotest.(check int) "service total" 400 cp.Analyze.cp_service_ns;
  Alcotest.(check int) "observe tail" 20 cp.Analyze.cp_observe_ns;
  Alcotest.(check int) "no dma on a cpu-only path" 0 cp.Analyze.cp_dma_ns;
  Alcotest.(check (float 1e-9)) "dma frac" 0.0 cp.Analyze.cp_dma_frac

let test_analyze_utilization_and_queueing_pinned () =
  let a = Analyze.of_events handbuilt_cpu_events in
  (match Analyze.utilization a with
  | [ ("cpu0", u) ] -> Alcotest.(check (float 1e-9)) "cpu0 busy fraction" (400.0 /. 440.0) u
  | other -> Alcotest.failf "unexpected utilization shape (%d PEs)" (List.length other));
  (match Analyze.utilization_by_class a with
  | [ ("cpu", u) ] -> Alcotest.(check (float 1e-9)) "class mean" (400.0 /. 440.0) u
  | _ -> Alcotest.fail "unexpected class shape");
  (match Analyze.occupancy_by_class a with
  | [ ("cpu", series) ] ->
      (* dispatches at 0, 120, 270 against completions at 100, 270, 420:
         cpu occupancy never exceeds one task. *)
      Alcotest.(check bool) "single-PE occupancy <= 1" true
        (List.for_all (fun (_, lvl) -> lvl <= 1) series);
      Alcotest.(check bool) "goes idle at the end" true
        (match List.rev series with (_, 0) :: _ -> true | _ -> false)
  | _ -> Alcotest.fail "unexpected occupancy shape");
  let q = Analyze.queueing a in
  Alcotest.(check int) "three tasks" 3 q.Analyze.q_wait.Analyze.d_n;
  Alcotest.(check (float 1e-9)) "mean wait us" 0.04 q.Analyze.q_wait.Analyze.d_mean_us;
  Alcotest.(check (float 1e-9)) "max wait us" 0.12 q.Analyze.q_wait.Analyze.d_max_us;
  Alcotest.(check (float 1e-9)) "max service us" 0.15 q.Analyze.q_service.Analyze.d_max_us;
  Alcotest.(check (float 1e-9)) "no stalls" 0.0 q.Analyze.q_stall.Analyze.d_max_us

let test_analyze_dma_and_stall_attribution () =
  (* One accelerator task with DMA phases and a stalled stream inside
     its service window: the path decomposition must charge both. *)
  let events =
    [
      { Obs.t_ns = 0; body = Obs.Instance_injected { instance = 0; app = "app" } };
      { Obs.t_ns = 0; body = Obs.Task_ready { task = 0; instance = 0; app = "app"; node = "K" } };
      {
        Obs.t_ns = 0;
        body =
          Obs.Task_dispatched
            { task = 0; instance = 0; app = "app"; node = "K"; pe = "fft0"; pe_index = 1;
              wait_ns = 0 };
      };
      {
        Obs.t_ns = 50;
        body = Obs.Phase { task = 0; pe_index = 1; phase = Obs.Dma_in; start_ns = 0; dur_ns = 50 };
      };
      {
        Obs.t_ns = 150;
        body =
          Obs.Phase { task = 0; pe_index = 1; phase = Obs.Device_compute; start_ns = 50; dur_ns = 100 };
      };
      {
        Obs.t_ns = 150;
        body = Obs.Stream_admitted { pe_index = 1; bytes = 1024; stall_ns = 30; inflight = 1 };
      };
      {
        Obs.t_ns = 200;
        body = Obs.Phase { task = 0; pe_index = 1; phase = Obs.Dma_out; start_ns = 150; dur_ns = 50 };
      };
      {
        Obs.t_ns = 200;
        body =
          Obs.Task_completed
            { task = 0; instance = 0; app = "app"; node = "K"; pe = "fft0"; pe_index = 1;
              service_ns = 200 };
      };
      { Obs.t_ns = 210; body = Obs.Wm_tick { completions = 1; injected = 0 } };
    ]
  in
  let a = Analyze.of_events events in
  (match Analyze.tasks a with
  | [ x ] ->
      Alcotest.(check int) "dma_in + dma_out charged" 100 x.Analyze.x_dma_ns;
      Alcotest.(check int) "stall attributed to the occupying task" 30 x.Analyze.x_stall_ns
  | _ -> Alcotest.fail "expected one task");
  let cp = Analyze.critical_path a in
  Alcotest.(check int) "length = makespan" 210 cp.Analyze.cp_length_ns;
  Alcotest.(check int) "path dma" 100 cp.Analyze.cp_dma_ns;
  Alcotest.(check int) "path stall" 30 cp.Analyze.cp_stall_ns;
  Alcotest.(check (float 1e-9)) "dma fraction of the path" (100.0 /. 210.0)
    cp.Analyze.cp_dma_frac

let test_analyze_empty_log () =
  let a = Analyze.of_events [] in
  Alcotest.(check int) "zero makespan" 0 (Analyze.makespan_ns a);
  let cp = Analyze.critical_path a in
  Alcotest.(check int) "empty path" 0 (List.length cp.Analyze.cp_steps);
  Alcotest.(check int) "zero length" 0 cp.Analyze.cp_length_ns;
  Alcotest.(check bool) "no utilization" true (Analyze.utilization a = [])

let test_analyze_pp_and_json () =
  let a = Analyze.of_events handbuilt_cpu_events in
  let text = Format.asprintf "%a" Analyze.pp a in
  List.iter
    (fun needle -> Alcotest.(check bool) ("report mentions " ^ needle) true (contains ~needle text))
    [ "critical path"; "utilization"; "queueing"; "dependency"; "resource"; "injection" ];
  let json = Analyze.to_json a in
  Alcotest.(check bool) "round-trips through the parser" true
    (Json.parse (Json.to_string json) = Ok json);
  match Json.member "critical_path" json with
  | Ok cp -> (
      match (Json.member "length_ns" cp, Json.member "observe_ns" cp) with
      | Ok l, Ok o ->
          Alcotest.(check bool) "length pinned" true (l = Json.int 440);
          Alcotest.(check bool) "observe pinned" true (o = Json.int 20)
      | _ -> Alcotest.fail "length_ns/observe_ns missing")
  | Error _ -> Alcotest.fail "critical_path missing"

(* Oracle for [Analyze.critical_path]: the scan-based walk, which
   rescans every task at each backward step.  The library indexes the
   same walk; both must agree step for step (edges, gaps, services,
   slacks) on any log, ties included. *)
let reference_critical_path ~inject (a : Analyze.t) =
  let execs = Array.of_list (Analyze.tasks a) in
  let n = Array.length execs in
  if n = 0 then Analyze.critical_path a
  else begin
    let open Analyze in
    let tsk i = execs.(i) in
    let best = ref 0 in
    Array.iteri
      (fun i x ->
        let b = tsk !best in
        if
          x.x_completed_ns > b.x_completed_ns
          || (x.x_completed_ns = b.x_completed_ns && x.x_task < b.x_task)
        then best := i)
      execs;
    let visited = Hashtbl.create 16 in
    let chain = ref [] in
    let rec back i =
      Hashtbl.replace visited i ();
      let x = tsk i in
      let dep = ref (-1) in
      Array.iteri
        (fun k p ->
          if
            k <> i && p.x_instance = x.x_instance && p.x_completed_ns = x.x_ready_ns
            && (!dep < 0 || p.x_task < (tsk !dep).x_task)
          then dep := k)
        execs;
      let res = ref (-1) in
      if x.x_dispatched_ns > x.x_ready_ns then
        Array.iteri
          (fun k p ->
            if
              k <> i && p.x_pe_index = x.x_pe_index
              && p.x_completed_ns <= x.x_dispatched_ns
              && p.x_completed_ns >= x.x_ready_ns
            then
              if !res < 0 then res := k
              else
                let r = tsk !res in
                if
                  p.x_completed_ns > r.x_completed_ns
                  || (p.x_completed_ns = r.x_completed_ns && p.x_task < r.x_task)
                then res := k)
          execs;
      let pick =
        if x.x_dispatched_ns > x.x_ready_ns && !res >= 0 then Some (!res, Resource)
        else if !dep >= 0 then Some (!dep, Dependency)
        else None
      in
      match pick with
      | Some (p, edge) when not (Hashtbl.mem visited p) ->
          chain := (i, edge, Some p) :: !chain;
          back p
      | _ -> chain := (i, Injection, None) :: !chain
    in
    back !best;
    let inject_ns inst = match List.assoc_opt inst inject with Some v -> v | None -> 0 in
    let slack_of i edge pred =
      let x = tsk i in
      match (edge, pred) with
      | Injection, _ -> 0
      | Dependency, _ ->
          let alt = ref (inject_ns x.x_instance) in
          Array.iteri
            (fun k p ->
              if
                k <> i && p.x_instance = x.x_instance
                && p.x_completed_ns < x.x_ready_ns
                && p.x_completed_ns > !alt
              then alt := p.x_completed_ns)
            execs;
          x.x_ready_ns - !alt
      | Resource, Some pr ->
          let pc = (tsk pr).x_completed_ns in
          let alt = ref x.x_ready_ns in
          Array.iteri
            (fun k q ->
              if
                k <> i && k <> pr && q.x_pe_index = x.x_pe_index
                && q.x_completed_ns >= x.x_ready_ns && q.x_completed_ns < pc
                && q.x_completed_ns > !alt
              then alt := q.x_completed_ns)
            execs;
          pc - !alt
      | Resource, None -> 0
    in
    let prev_end = ref 0 in
    let steps =
      List.map
        (fun (i, edge, pred) ->
          let x = tsk i in
          let gap = max 0 (x.x_dispatched_ns - !prev_end) in
          prev_end := x.x_completed_ns;
          {
            s_task = x;
            s_edge = edge;
            s_gap_ns = gap;
            s_service_ns = x.x_completed_ns - x.x_dispatched_ns;
            s_slack_ns = slack_of i edge pred;
          })
        !chain
    in
    let gap = List.fold_left (fun a s -> a + s.s_gap_ns) 0 steps in
    let service = List.fold_left (fun a s -> a + s.s_service_ns) 0 steps in
    let dma = List.fold_left (fun a s -> a + s.s_task.x_dma_ns) 0 steps in
    let stall = List.fold_left (fun a s -> a + s.s_task.x_stall_ns) 0 steps in
    let observe = max 0 (makespan_ns a - (tsk !best).x_completed_ns) in
    let length = gap + service + observe in
    {
      cp_steps = steps;
      cp_length_ns = length;
      cp_gap_ns = gap;
      cp_service_ns = service;
      cp_observe_ns = observe;
      cp_dma_ns = dma;
      cp_stall_ns = stall;
      cp_dma_frac = (if length <= 0 then 0.0 else float_of_int dma /. float_of_int length);
    }
  end

(* First injection time per instance, as [Analyze.of_events] keeps it. *)
let injections events =
  List.fold_left
    (fun acc (e : Obs.event) ->
      match e.Obs.body with
      | Obs.Instance_injected { instance; _ } when not (List.mem_assoc instance acc) ->
          (instance, e.Obs.t_ns) :: acc
      | _ -> acc)
    [] events

let critical_paths_agree events =
  let a = Analyze.of_events events in
  Analyze.critical_path a = reference_critical_path ~inject:(injections events) a

(* One executed task of a synthetic log. *)
type synth = { sy_task : int; sy_inst : int; sy_pe : int; sy_ready : int; sy_disp : int; sy_done : int }

let synth_events ~injects ~tail tasks =
  let ev t_ns body = { Obs.t_ns; body } in
  let per_task s =
    let node = Printf.sprintf "n%d" s.sy_task and pe = Printf.sprintf "pe%d" s.sy_pe in
    [
      ev s.sy_ready (Obs.Task_ready { task = s.sy_task; instance = s.sy_inst; app = "app"; node });
      ev s.sy_disp
        (Obs.Task_dispatched
           { task = s.sy_task; instance = s.sy_inst; app = "app"; node; pe; pe_index = s.sy_pe;
             wait_ns = s.sy_disp - s.sy_ready });
      ev s.sy_done
        (Obs.Task_completed
           { task = s.sy_task; instance = s.sy_inst; app = "app"; node; pe; pe_index = s.sy_pe;
             service_ns = s.sy_done - s.sy_disp });
    ]
  in
  let body =
    List.map (fun (inst, t) -> ev t (Obs.Instance_injected { instance = inst; app = "app" })) injects
    @ List.concat_map per_task tasks
  in
  let last = List.fold_left (fun acc (e : Obs.event) -> max acc e.Obs.t_ns) 0 body in
  List.stable_sort (fun (x : Obs.event) y -> compare x.Obs.t_ns y.Obs.t_ns) body
  @ [ ev (last + tail) (Obs.Wm_tick { completions = 1; injected = 0 }) ]

(* Random logs on a coarse 10 ns grid, so equal completion times,
   zero-length services and zero waits are common; several tasks share
   each PE and instance, and task ids are a shuffled permutation. *)
let synth_log_gen =
  QCheck.Gen.(
    int_range 1 60 >>= fun n ->
    int_range 1 6 >>= fun n_inst ->
    int_range 1 4 >>= fun n_pe ->
    shuffle_l (List.init n Fun.id) >>= fun ids ->
    flatten_l
      (List.map
         (fun id ->
           map
             (fun (inst, pe, (r, w, sv)) ->
               let ready = 10 * r in
               let disp = ready + (10 * w) in
               { sy_task = id; sy_inst = inst; sy_pe = pe; sy_ready = ready; sy_disp = disp;
                 sy_done = disp + (10 * sv) })
             (triple (int_bound (n_inst - 1)) (int_bound (n_pe - 1))
                (triple (int_bound 30) (oneofl [ 0; 0; 1; 2; 3 ]) (int_bound 3))))
         ids)
    >>= fun tasks ->
    flatten_l (List.init n_inst (fun i -> map (fun t -> (i, t)) (int_bound 10))) >>= fun injects ->
    (* an instance may be missing its injection event *)
    map
      (fun (drop, tail) -> (List.filter (fun (i, _) -> i <> drop) injects, tail, tasks))
      (pair (int_range (-1) (n_inst - 1)) (int_bound 50)))

let prop_critical_path_matches_scan =
  QCheck.Test.make ~name:"critical path matches the scan-based reference" ~count:500
    (QCheck.make
       ~print:(fun (_, _, tasks) ->
         String.concat " "
           (List.map
              (fun s ->
                Printf.sprintf "%d@i%d/pe%d:%d-%d-%d" s.sy_task s.sy_inst s.sy_pe s.sy_ready s.sy_disp
                  s.sy_done)
              tasks))
       synth_log_gen)
    (fun (injects, tail, tasks) -> critical_paths_agree (synth_events ~injects ~tail tasks))

(* A long resource chain: 40 instances' tasks queue up at t=0 on three
   PEs that run them back to back, so the walk takes ~1000 resource
   steps; every fifth service is zero-length and the three PEs finish
   tasks at equal times, exercising the tie-breaks at depth. *)
let test_critical_path_long_chain () =
  let per_pe = 1000 in
  let tasks =
    List.concat_map
      (fun pe ->
        let t = ref 0 in
        List.init per_pe (fun k ->
            let id = (k * 3) + pe in
            let disp = !t in
            let service = if k mod 5 = 0 then 0 else 10 * (1 + (k mod 3)) in
            t := disp + service;
            { sy_task = id; sy_inst = id mod 40; sy_pe = pe; sy_ready = 0; sy_disp = disp;
              sy_done = disp + service }))
      [ 0; 1; 2 ]
  in
  let events = synth_events ~injects:(List.init 40 (fun i -> (i, 0))) ~tail:7 tasks in
  let cp = Analyze.critical_path (Analyze.of_events events) in
  Alcotest.(check bool) "a long chain" true (List.length cp.Analyze.cp_steps > 500);
  Alcotest.(check bool) "agrees with the reference" true (critical_paths_agree events)

(* A path through 200 instances: in each, dependency steps hop between
   PEs, and the instance's first task waits on PE 0 for the previous
   instance's last task, so the walk searches hundreds of instance
   groups. *)
let test_critical_path_many_instances () =
  let t = ref 0 in
  let tasks =
    List.concat
      (List.init 200 (fun j ->
           let step k pe ~ready ~service =
             let disp = !t in
             t := disp + service;
             { sy_task = (3 * j) + k; sy_inst = j; sy_pe = pe; sy_ready = ready; sy_disp = disp;
               sy_done = disp + service }
           in
           let first = step 0 0 ~ready:0 ~service:10 in
           let second = step 1 (1 + (j mod 2)) ~ready:first.sy_done ~service:(10 * (j mod 3)) in
           [ first; second; step 2 0 ~ready:second.sy_done ~service:10 ]))
  in
  let events = synth_events ~injects:(List.init 200 (fun i -> (i, 0))) ~tail:3 tasks in
  let cp = Analyze.critical_path (Analyze.of_events events) in
  (* Where the middle step takes no time (j mod 3 = 0, 67 instances),
     the first and middle tasks complete together and the lower id,
     the first task, binds the last one. *)
  Alcotest.(check int) "path length" (600 - 67) (List.length cp.Analyze.cp_steps);
  Alcotest.(check bool) "agrees with the reference" true (critical_paths_agree events)

(* Real logs: a short jittered FRFS run, and the saturated EFT run at
   rate 4.57 whose makespan is bound by a chain of thousands of
   resource waits. *)
let test_critical_path_emulation_logs () =
  List.iter
    (fun (policy, jitter, window_ms, min_steps) ->
      let obs = Obs.make ~sink:(Obs.Sink.ring ~capacity:(1 lsl 20) ()) () in
      ignore
        (Emulator.run_exn ~engine:(Emulator.virtual_seeded ~jitter 5L) ~policy
           ~config:(Config.zcu102_cores_ffts ~cores:2 ~ffts:2)
           ~workload:(Workload.table2_workload ~window_ms ~rate:4.57 ())
           ~obs ());
      let events = Obs.recorded_events obs in
      let cp = Analyze.critical_path (Analyze.of_events events) in
      Alcotest.(check bool)
        (Printf.sprintf "%s path has >= %d steps" policy min_steps)
        true
        (List.length cp.Analyze.cp_steps >= min_steps);
      Alcotest.(check bool) (policy ^ " log agrees") true (critical_paths_agree events))
    [ ("FRFS", 0.03, 2.0, 100); ("EFT", 0.0, 100.0, 1000) ]

(* ---------------------- schedule recorder ---------------------- *)

module Compiled_engine = Dssoc_runtime.Compiled_engine
module Engine_core = Dssoc_runtime.Engine_core
module Scheduler = Dssoc_runtime.Scheduler
module Fabric = Dssoc_soc.Fabric
module Fault = Dssoc_fault.Fault

(* [run obs] traced twice, into a ring and into a schedule sink: the
   analysis built from the recorder must equal the one replayed from
   the ring's log, field for field.  Returns the recorder's analysis
   and the ring run's report. *)
let recorder_matches_ring label run =
  let ring = Obs.Sink.ring ~capacity:(1 lsl 20) () and recorder = Obs.Sink.schedule () in
  let report = run (Obs.make ~sink:ring ()) in
  ignore (run (Obs.make ~sink:recorder ()));
  Alcotest.(check int) (label ^ ": ring dropped nothing") 0 (Obs.Sink.dropped ring);
  Alcotest.(check int) (label ^ ": same event count") (Obs.Sink.total ring)
    (Obs.Sink.total recorder);
  let a = Analyze.of_events (Obs.Sink.events ring) and b = Analyze.of_sink recorder in
  let same what x y =
    Alcotest.(check bool) (Printf.sprintf "%s: same %s" label what) true (x = y)
  in
  same "tasks" (Analyze.tasks a) (Analyze.tasks b);
  same "makespan" (Analyze.makespan_ns a) (Analyze.makespan_ns b);
  let ca = Analyze.critical_path a and cb = Analyze.critical_path b in
  same "critical-path steps (edges, slack, DMA, stall)" ca.Analyze.cp_steps cb.Analyze.cp_steps;
  same "critical path" ca cb;
  same "utilization" (Analyze.utilization a) (Analyze.utilization b);
  same "occupancy" (Analyze.occupancy_by_class a) (Analyze.occupancy_by_class b);
  same "queueing" (Analyze.queueing a) (Analyze.queueing b);
  Alcotest.(check string) (label ^ ": same report") (Json.to_string (Analyze.to_json a))
    (Json.to_string (Analyze.to_json b));
  Alcotest.(check bool) (label ^ ": a ring sink replays into the same analysis") true
    (Analyze.tasks (Analyze.of_sink ring) = Analyze.tasks b);
  (b, report)

(* No preset sweep row has a nonzero DMA share of its critical path,
   so byte-identical sweep tables do not pin the DMA accounting: an
   FFT-heavy mix on a starved one-deep bus does, on both engines. *)
let test_recorder_matches_ring_contended () =
  let config =
    Config.with_fabric
      (Result.get_ok (Fabric.of_spec "bus:bw=100MB/s,fifo=1"))
      (Config.zcu102_cores_ffts ~cores:1 ~ffts:2)
  in
  let workload () =
    Workload.validation
      [ (Reference_apps.wifi_tx (), 3); (Reference_apps.range_detection (), 3) ]
  in
  let check label run =
    let a, report = recorder_matches_ring label run in
    let cp = Analyze.critical_path a in
    Alcotest.(check bool) (label ^ ": path DMA is nonzero") true (cp.Analyze.cp_dma_ns > 0);
    Alcotest.(check bool) (label ^ ": path fabric stall is nonzero") true
      (cp.Analyze.cp_stall_ns > 0);
    Alcotest.(check int) (label ^ ": every task completed") report.Stats.task_count
      (List.length (Analyze.tasks a))
  in
  check "virtual" (fun obs ->
      Emulator.run_exn ~engine:(Emulator.virtual_seeded ~jitter:0.0 7L) ~policy:"FRFS" ~obs
        ~config ~workload:(workload ()) ());
  let plan =
    Compiled_engine.compile ~config ~workload:(workload ())
      ~policy:(Result.get_ok (Scheduler.find "FRFS")) ()
  in
  check "compiled" (fun obs ->
      Compiled_engine.run ~obs plan
        { Engine_core.seed = 7L; jitter = 0.0; reservation_depth = 0 })

(* Retries overwrite a task's ready/dispatch times and add to its DMA
   time: the recorder must fold those exactly as the replayed log. *)
let test_recorder_matches_ring_faulted () =
  let fault =
    Result.get_ok
      (Fault.of_spec ~seed:11L "accel:transient:p=0.3:recover=0.05ms,accel:dma:p=0.3,retries=8")
  in
  let config =
    Config.with_fabric
      (Result.get_ok (Fabric.of_spec "bus:bw=100MB/s,fifo=1"))
      (Config.zcu102_cores_ffts ~cores:2 ~ffts:2)
  in
  let _, report =
    recorder_matches_ring "faulted" (fun obs ->
        Emulator.run_exn ~engine:(Emulator.virtual_seeded ~jitter:0.03 3L) ~policy:"FRFS" ~obs
          ~fault ~config
          ~workload:
            (Workload.validation
               [ (Reference_apps.pulse_doppler (), 1); (Reference_apps.wifi_tx (), 2) ])
          ())
  in
  Alcotest.(check bool) "faulted: tasks were retried" true
    (report.Stats.resilience.Stats.task_retries > 0)

(* Task ids no engine produces: negative, past 2^40, and far beyond
   the events seen; ids reused after completion; a completion with no
   ready/dispatch; a retried task whose two attempts both carry DMA. *)
let hostile_events =
  let big = 1 lsl 40 in
  let ev t_ns body = { Obs.t_ns; body } in
  let ready t task instance node = ev t (Obs.Task_ready { task; instance; app = "app"; node }) in
  let disp t task instance node pe pe_index =
    ev t (Obs.Task_dispatched { task; instance; app = "app"; node; pe; pe_index; wait_ns = 0 })
  in
  let comp t task instance node pe pe_index =
    ev t (Obs.Task_completed { task; instance; app = "app"; node; pe; pe_index; service_ns = 0 })
  in
  let dma t task pe_index phase dur_ns =
    ev t (Obs.Phase { task; pe_index; phase; start_ns = t - dur_ns; dur_ns })
  in
  [
    ev 0 (Obs.Instance_injected { instance = -3; app = "app" });
    ev 5 (Obs.Instance_injected { instance = big; app = "app" });
    ev 7 (Obs.Instance_injected { instance = -3; app = "app" });
    ready 10 (-5) (-3) "A";
    disp 12 (-5) (-3) "A" "fft0" 1;
    dma 20 (-5) 1 Obs.Dma_in 8;
    ev 25
      (Obs.Task_failed
         { task = -5; instance = -3; app = "app"; node = "A"; pe = "fft0"; pe_index = 1;
           fault = "dma_error"; attempt = 1 });
    ev 25
      (Obs.Task_retried
         { task = -5; instance = -3; app = "app"; node = "A"; attempt = 1; backoff_ns = 5 });
    ready 30 (-5) (-3) "A";
    ready 31 big big "B";
    disp 32 big big "B" "cpu0" 0;
    disp 40 (-5) (-3) "A" "fft0" 1;
    dma 50 (-5) 1 Obs.Dma_in 10;
    dma 70 (-5) 1 Obs.Device_compute 20;
    ev 72 (Obs.Stream_admitted { pe_index = 1; bytes = 64; stall_ns = 4; inflight = 1 });
    dma 80 (-5) 1 Obs.Dma_out 10;
    comp 80 (-5) (-3) "A" "fft0" 1;
    ready 80 (big + 1) big "C";
    comp 90 big big "B" "cpu0" 0;
    comp 91 big big "B" "cpu0" 0;
    disp 95 (big + 1) big "C" "cpu0" 0;
    ready 96 1_000_000 (-3) "D";
    disp 97 1_000_000 (-3) "D" "cpu1" 2;
    comp 99 7 (-3) "E" "cpu1" 2;
    comp 110 1_000_000 (-3) "D" "cpu1" 2;
    comp 120 (big + 1) big "C" "cpu0" 0;
    ready 126 min_int 0 "F";
    disp 127 max_int 0 "G" "cpu1" 2;
    ev 130 (Obs.Wm_tick { completions = 2; injected = 0 });
  ]

(* A reloaded log is a total input: whatever its task ids, the analysis
   neither raises nor allocates in proportion to an id's value, and it
   folds the log as it always has (the values below are the analysis of
   this log before the schedule recorder existed). *)
let test_analyze_hostile_task_ids () =
  let b0 = Gc.allocated_bytes () in
  let a = Analyze.of_events hostile_events in
  let allocated = Gc.allocated_bytes () -. b0 in
  Alcotest.(check bool)
    (Printf.sprintf "allocation bounded by the log (%.0f bytes)" allocated)
    true (allocated < 1e6);
  let big = 1 lsl 40 in
  Alcotest.(check (list (list int)))
    "tasks: id, instance, pe, ready, dispatched, completed, dma, stall"
    [
      [ -5; -3; 1; 30; 40; 80; 28; 4 ];
      [ big; big; 0; 31; 32; 90; 0; 0 ];
      [ big; big; 0; 0; 0; 91; 0; 0 ];
      [ 7; -3; 2; 0; 0; 99; 0; 0 ];
      [ 1_000_000; -3; 2; 96; 97; 110; 0; 0 ];
      [ big + 1; big; 0; 80; 95; 120; 0; 0 ];
    ]
    (List.map
       (fun x ->
         Analyze.
           [ x.x_task; x.x_instance; x.x_pe_index; x.x_ready_ns; x.x_dispatched_ns;
             x.x_completed_ns; x.x_dma_ns; x.x_stall_ns ])
       (Analyze.tasks a));
  Alcotest.(check int) "makespan" 130 (Analyze.makespan_ns a);
  let cp = Analyze.critical_path a in
  Alcotest.(check (list (pair string (list int))))
    "critical path: edge, (task, gap, service, slack)"
    [ ("injection", [ big; 0; 91; 0 ]); ("resource", [ big + 1; 4; 25; 1 ]) ]
    (List.map
       (fun s ->
         Analyze.
           ( edge_name s.s_edge,
             [ s.s_task.x_task; s.s_gap_ns; s.s_service_ns; s.s_slack_ns ] ))
       cp.Analyze.cp_steps);
  Alcotest.(check int) "observe tail" 10 cp.Analyze.cp_observe_ns

(* Oracle for the recorder's per-task fold: one hash table of pending
   (ready, dispatched, DMA) triples keyed by task id, finalized and
   forgotten at each completion. *)
let reference_tasks events =
  let pend = Hashtbl.create 16 in
  let get task = Option.value ~default:(0, 0, 0) (Hashtbl.find_opt pend task) in
  List.fold_left
    (fun acc { Obs.t_ns; body } ->
      match body with
      | Obs.Task_ready { task; _ } ->
          let _, d, m = get task in
          Hashtbl.replace pend task (t_ns, d, m);
          acc
      | Obs.Task_dispatched { task; _ } ->
          let r, _, m = get task in
          Hashtbl.replace pend task (r, t_ns, m);
          acc
      | Obs.Phase { task; phase = Obs.Dma_in | Obs.Dma_out; dur_ns; _ } ->
          let r, d, m = get task in
          Hashtbl.replace pend task (r, d, m + dur_ns);
          acc
      | Obs.Task_completed { task; instance; pe_index; _ } ->
          let r, d, m = get task in
          Hashtbl.remove pend task;
          (task, instance, pe_index, r, d, t_ns, m) :: acc
      | _ -> acc)
    [] events
  |> List.rev

(* Random interleavings of lifecycle events over ids drawn from dense,
   negative and huge ranges, with repeats: whichever of its two stores
   the recorder keeps a task's triple in, it must fold like the oracle. *)
let prop_recorder_fold_matches_reference =
  let id_gen =
    QCheck.Gen.(
      frequency
        [
          (6, int_bound 40);
          (2, int_range (-40) (-1));
          (2, map (fun k -> (1 lsl 40) + k) (int_bound 5));
          (1, map (fun k -> 100_000 + k) (int_bound 5));
          (* just past the dense table's reach at the start of a log,
             within it after a few dozen events *)
          (2, map (fun k -> 4150 + k) (int_bound 5));
        ])
  in
  let event_gen =
    QCheck.Gen.(
      map3
        (fun kind task t ->
          let body =
            match kind with
            | 0 -> Obs.Task_ready { task; instance = 0; app = "a"; node = "n" }
            | 1 ->
                Obs.Task_dispatched
                  { task; instance = 0; app = "a"; node = "n"; pe = "p"; pe_index = 0; wait_ns = 0 }
            | 2 -> Obs.Phase { task; pe_index = 0; phase = Obs.Dma_in; start_ns = 0; dur_ns = t }
            | 3 ->
                Obs.Phase
                  { task; pe_index = 0; phase = Obs.Device_compute; start_ns = 0; dur_ns = t }
            | 4 -> Obs.Wm_tick { completions = 0; injected = 0 }
            | _ ->
                Obs.Task_completed
                  { task; instance = task mod 3; app = "a"; node = "n"; pe = "p"; pe_index = 0;
                    service_ns = 0 }
          in
          { Obs.t_ns = t; body })
        (int_bound 5) id_gen (int_bound 1000))
  in
  QCheck.Test.make ~name:"recorder fold matches the per-task reference" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 0 400) event_gen))
    (fun events ->
      List.map
        (fun x ->
          Analyze.
            ( x.x_task,
              x.x_instance,
              x.x_pe_index,
              x.x_ready_ns,
              x.x_dispatched_ns,
              x.x_completed_ns,
              x.x_dma_ns ))
        (Analyze.tasks (Analyze.of_events events))
      = reference_tasks events)

(* ---------------------- periodic metrics flusher ---------------------- *)

let test_flush_snapshots_and_close () =
  let path = Filename.temp_file "dssoc_metrics" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let m = Obs.Metrics.create () in
      let c = Obs.Metrics.counter m "ticks" in
      let f = Obs.Flush.every ~period_ms:1 ~path m in
      Alcotest.(check string) "path recorded" path (Obs.Flush.path f);
      for i = 1 to 6 do
        Obs.Metrics.incr c;
        (* 0.6 ms apart with a 1 ms period: snapshots due at ticks
           1, 3 and 5; close covers the trailing tick at 3.6 ms. *)
        Obs.Flush.tick f ~now:(i * 600_000)
      done;
      Obs.Flush.close f;
      Alcotest.(check int) "snapshot count" 4 (Obs.Flush.snapshots f);
      Obs.Flush.close f;
      Alcotest.(check int) "close idempotent" 4 (Obs.Flush.snapshots f);
      let lines =
        In_channel.with_open_bin path In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "")
      in
      Alcotest.(check int) "one JSONL line per snapshot" 4 (List.length lines);
      let ts =
        List.map
          (fun line ->
            match Json.parse line with
            | Ok j -> (
                match (Json.member "t_ns" j, Json.member "counters" j) with
                | Ok t, Ok (Json.Obj cs) ->
                    Alcotest.(check bool) "counters present" true (List.mem_assoc "ticks" cs);
                    (match t with Json.Int v -> v | _ -> Alcotest.fail "t_ns not an int")
                | _ -> Alcotest.fail "snapshot shape")
            | Error e -> Alcotest.failf "unparseable snapshot: %s" (Json.error_to_string e))
          lines
      in
      Alcotest.(check (list int)) "snapshot times pinned"
        [ 600_000; 1_800_000; 3_000_000; 3_600_000 ] ts)

let test_flush_midstream_durability () =
  (* The flusher rewrites to a temp file and renames: at ANY point in
     the stream — i.e. after every snapshot — a concurrent reader (or a
     process killed right here) sees only complete, parseable lines. *)
  let path = Filename.temp_file "dssoc_metrics" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove path;
      if Sys.file_exists (path ^ ".tmp") then Sys.remove (path ^ ".tmp"))
    (fun () ->
      let m = Obs.Metrics.create () in
      let c = Obs.Metrics.counter m "ticks" in
      let f = Obs.Flush.every ~period_ms:1 ~path m in
      for i = 1 to 9 do
        Obs.Metrics.incr c;
        Obs.Flush.tick f ~now:(i * 1_000_000);
        (* mid-stream check: every line on disk parses right now *)
        let lines =
          In_channel.with_open_bin path In_channel.input_all
          |> String.split_on_char '\n'
          |> List.filter (fun l -> l <> "")
        in
        Alcotest.(check int)
          (Printf.sprintf "tick %d: snapshots all on disk" i)
          (Obs.Flush.snapshots f) (List.length lines);
        List.iteri
          (fun j line ->
            match Json.parse line with
            | Ok _ -> ()
            | Error e ->
              Alcotest.failf "tick %d line %d unparseable: %s" i j (Json.error_to_string e))
          lines
      done;
      Obs.Flush.close f;
      Alcotest.(check bool) "no temp file left behind" false
        (Sys.file_exists (path ^ ".tmp")))

let test_flush_rejects_bad_period () =
  let m = Obs.Metrics.create () in
  Alcotest.check_raises "period 0 rejected"
    (Invalid_argument "Obs.Flush.every: period_ms must be positive") (fun () ->
      ignore (Obs.Flush.every ~period_ms:0 ~path:"/dev/null" m))

let test_flush_driven_by_engine_run () =
  (* End-to-end through the WM tick: the same seeded run produces the
     same snapshot stream, byte for byte. *)
  let snap () =
    let path = Filename.temp_file "dssoc_metrics" ".jsonl" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let config = Config.zcu102_cores_ffts ~cores:2 ~ffts:1 in
        let workload =
          Workload.validation
            [ (Reference_apps.wifi_tx (), 1); (Reference_apps.range_detection (), 1) ]
        in
        let m = Obs.Metrics.create () in
        let obs = Obs.make ~metrics:m () in
        let f = Obs.Flush.every ~period_ms:1 ~path m in
        Obs.set_flush obs f;
        ignore
          (Emulator.run_exn ~engine:(Emulator.virtual_seeded ~jitter:0.0 1L) ~config ~workload
             ~obs ());
        Obs.Flush.close f;
        (Obs.Flush.snapshots f, In_channel.with_open_bin path In_channel.input_all))
  in
  let n1, s1 = snap () in
  let n2, s2 = snap () in
  Alcotest.(check bool) "snapshots taken" true (n1 > 1);
  Alcotest.(check int) "snapshot count deterministic" n1 n2;
  Alcotest.(check string) "snapshot stream deterministic" s1 s2

let () =
  Alcotest.run "observability"
    [
      ( "gantt",
        [
          Alcotest.test_case "zero-width span" `Quick test_gantt_zero_width_span;
          Alcotest.test_case "degenerate width" `Quick test_gantt_degenerate_width;
          Alcotest.test_case "zero makespan" `Quick test_gantt_zero_makespan;
          Alcotest.test_case "alphabet exhaustion" `Quick test_gantt_many_apps;
        ] );
      ( "golden",
        [
          Alcotest.test_case "records_csv" `Quick test_records_csv_golden;
          Alcotest.test_case "compiled records_csv" `Quick test_compiled_records_csv_golden;
          Alcotest.test_case "chrome_trace" `Quick test_chrome_trace_golden;
          Alcotest.test_case "chrome_trace roundtrip" `Quick test_chrome_trace_roundtrip;
        ] );
      ( "ring sink",
        [
          Alcotest.test_case "retention below capacity" `Quick test_ring_retention;
          Alcotest.test_case "wrap and overflow accounting" `Quick test_ring_wrap;
          Alcotest.test_case "bad capacity" `Quick test_ring_bad_capacity;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "histogram agrees with Quantile" `Quick test_histogram_matches_quantile;
          Alcotest.test_case "gauge series semantics" `Quick test_gauge_series_collapses_same_timestamp;
        ] );
      ( "event log",
        [
          Alcotest.test_case "golden JSONL" `Quick test_jsonl_golden;
          Alcotest.test_case "parseable and deterministic" `Quick test_jsonl_parses_and_deterministic;
          Alcotest.test_case "event JSON round-trip" `Quick test_event_json_roundtrip;
          Alcotest.test_case "streaming writer byte-identical" `Quick
            test_output_jsonl_streams_same_bytes;
        ] );
      ( "chrome trace + obs",
        [ Alcotest.test_case "counter tracks and DMA sub-spans" `Quick test_chrome_trace_with_obs ] );
      ( "analysis",
        [
          Alcotest.test_case "critical path pinned" `Quick test_analyze_critical_path_pinned;
          Alcotest.test_case "utilization and queueing pinned" `Quick
            test_analyze_utilization_and_queueing_pinned;
          Alcotest.test_case "dma and stall attribution" `Quick
            test_analyze_dma_and_stall_attribution;
          Alcotest.test_case "empty log" `Quick test_analyze_empty_log;
          Alcotest.test_case "pp and json" `Quick test_analyze_pp_and_json;
          QCheck_alcotest.to_alcotest prop_critical_path_matches_scan;
          Alcotest.test_case "critical path on a long chain" `Quick test_critical_path_long_chain;
          Alcotest.test_case "critical path through many instances" `Quick
            test_critical_path_many_instances;
          Alcotest.test_case "critical path on emulation logs" `Slow
            test_critical_path_emulation_logs;
          Alcotest.test_case "recorder equals ring on a contended bus" `Quick
            test_recorder_matches_ring_contended;
          Alcotest.test_case "recorder equals ring under faults" `Quick
            test_recorder_matches_ring_faulted;
          Alcotest.test_case "hostile task ids in a reloaded log" `Quick
            test_analyze_hostile_task_ids;
          QCheck_alcotest.to_alcotest prop_recorder_fold_matches_reference;
        ] );
      ( "metrics flusher",
        [
          Alcotest.test_case "snapshots and close" `Quick test_flush_snapshots_and_close;
          Alcotest.test_case "bad period rejected" `Quick test_flush_rejects_bad_period;
          Alcotest.test_case "mid-stream durability" `Quick test_flush_midstream_durability;
          Alcotest.test_case "engine-driven determinism" `Quick test_flush_driven_by_engine_run;
        ] );
    ]
