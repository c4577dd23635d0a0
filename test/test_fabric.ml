(* Shared-interconnect (fabric) tests.

   The fabric layer arbitrates every accelerator DMA stream through
   one processor-shared link with a bounded admission FIFO.  Its
   contract has three legs:

   - [Fabric.Ideal] is the default and must replay the legacy
     per-device DMA timings byte-for-byte on every engine;
   - under a [Bus] the virtual and compiled engines must still agree
     byte-for-byte (records CSV, report, final stores) — contention
     is part of the deterministic replay contract;
   - the native engine, whose clock measures this host, must agree
     functionally: same task population, same stores, same stream
     count (stream admission is jitter- and clock-invariant), with
     makespan only in a coarse band. *)

module Fabric = Dssoc_soc.Fabric
module Dma = Dssoc_soc.Dma
module Pe = Dssoc_soc.Pe
module Config = Dssoc_soc.Config
module Task = Dssoc_runtime.Task
module Emulator = Dssoc_runtime.Emulator
module Compiled = Dssoc_runtime.Compiled_engine
module Scheduler = Dssoc_runtime.Scheduler
module Engine_core = Dssoc_runtime.Engine_core
module Stats = Dssoc_runtime.Stats
module App_spec = Dssoc_apps.App_spec
module Store = Dssoc_apps.Store
module Kernels = Dssoc_apps.Kernels
module Reference_apps = Dssoc_apps.Reference_apps
module Workload = Dssoc_apps.Workload
module Prng = Dssoc_util.Prng

let qtest = QCheck_alcotest.to_alcotest
let fabric_of spec = Result.get_ok (Fabric.of_spec spec)

(* ---------------- spec parsing ---------------- *)

let test_of_spec_ideal () =
  Alcotest.(check bool) "ideal" true (fabric_of "ideal" = Fabric.Ideal);
  Alcotest.(check bool) "empty" true (fabric_of "" = Fabric.Ideal)

let test_of_spec_bus () =
  (match fabric_of "bus:" with
  | Fabric.Bus b ->
    Alcotest.(check bool) "defaults" true (b = Fabric.default_bus)
  | Fabric.Ideal -> Alcotest.fail "bus: parsed as Ideal");
  (match fabric_of "bus:bw=500MB/s,fifo=4,hop=20ns" with
  | Fabric.Bus b ->
    Alcotest.(check (float 1e-9)) "bw" 500.0 b.Fabric.bw_mb_s;
    Alcotest.(check int) "fifo" 4 b.Fabric.fifo_depth;
    Alcotest.(check int) "hop" 20 b.Fabric.hop_ns;
    Alcotest.(check bool) "crossbar" true (b.Fabric.topology = Fabric.Crossbar)
  | Fabric.Ideal -> Alcotest.fail "bus spec parsed as Ideal");
  (match fabric_of "bus:bw=2GB/s,hops=mesh2x2" with
  | Fabric.Bus b ->
    Alcotest.(check (float 1e-9)) "GB/s scaled" 2000.0 b.Fabric.bw_mb_s;
    Alcotest.(check bool) "mesh" true (b.Fabric.topology = Fabric.Mesh (2, 2))
  | Fabric.Ideal -> Alcotest.fail "mesh spec parsed as Ideal")

let test_of_spec_errors () =
  List.iter
    (fun spec ->
      match Fabric.of_spec spec with
      | Ok _ -> Alcotest.failf "%S parsed" spec
      | Error msg -> Alcotest.(check bool) (spec ^ ": has message") true (msg <> ""))
    [
      "ring:bw=1";
      "bus:bw=0MB/s";
      "bus:bw=nope";
      "bus:fifo=0";
      "bus:fifo=-2";
      "bus:hop=-1";
      "bus:hops=mesh0x2";
      "bus:hops=torus";
      "bus:color=red";
      "bus:bw";
    ]

let test_fingerprint_roundtrip () =
  List.iter
    (fun spec ->
      let f = fabric_of spec in
      Alcotest.(check bool)
        (spec ^ ": of_spec (fingerprint f) = f")
        true
        (fabric_of (Fabric.fingerprint f) = f))
    [ "ideal"; "bus:"; "bus:bw=125MB/s,fifo=2"; "bus:hop=50ns,hops=mesh2x3" ]

(* ---------------- pricing primitives ---------------- *)

let test_hops () =
  List.iter
    (fun i ->
      Alcotest.(check int) "crossbar is one hop" 1 (Fabric.hops Fabric.Crossbar ~pe_index:i))
    [ 0; 1; 7 ];
  (* mesh2x2 slots: (0,0)=1, (1,0)=2, (0,1)=2, (1,1)=3, then wraps *)
  List.iter
    (fun (i, expect) ->
      Alcotest.(check int)
        (Printf.sprintf "mesh2x2 pe %d" i)
        expect
        (Fabric.hops (Fabric.Mesh (2, 2)) ~pe_index:i))
    [ (0, 1); (1, 2); (2, 2); (3, 3); (4, 1) ]

let test_demand_ns () =
  let b = { Fabric.default_bus with Fabric.bw_mb_s = 1000.0 } in
  Alcotest.(check int) "zero bytes" 0 (Fabric.demand_ns b ~bytes:0);
  Alcotest.(check int) "negative bytes" 0 (Fabric.demand_ns b ~bytes:(-4));
  (* 1000 MB/s = 1 byte/ns *)
  Alcotest.(check int) "8192 bytes at 1 GB/s" 8192 (Fabric.demand_ns b ~bytes:8192);
  let slow = { b with Fabric.bw_mb_s = 1e-6 } in
  Alcotest.check_raises "overflow guarded"
    (Invalid_argument "Fabric.demand_ns: duration overflows")
    (fun () -> ignore (Fabric.demand_ns slow ~bytes:max_int))

let test_fixed_ns () =
  let b = { Fabric.default_bus with Fabric.hop_ns = 40; topology = Fabric.Mesh (2, 2) } in
  (* PE 3 sits three hops out on a 2x2 mesh: 2 x (100 + 3 x 40) *)
  Alcotest.(check int) "chunks x (latency + hops x hop)" 440
    (Fabric.fixed_ns b ~pe_index:3 ~chunks:2 ~chunk_lat_ns:100);
  Alcotest.(check int) "no chunks" 0
    (Fabric.fixed_ns b ~pe_index:3 ~chunks:0 ~chunk_lat_ns:100);
  let huge = { b with Fabric.hop_ns = max_int / 2 } in
  List.iter
    (fun (label, f) ->
      Alcotest.check_raises label (Invalid_argument "Fabric.fixed_ns: duration overflows")
        (fun () -> ignore (f ())))
    [
      ( "hops x hop overflows",
        fun () -> Fabric.fixed_ns huge ~pe_index:3 ~chunks:1 ~chunk_lat_ns:0 );
      ( "latency sum overflows",
        fun () -> Fabric.fixed_ns huge ~pe_index:0 ~chunks:1 ~chunk_lat_ns:max_int );
      ( "chunk product overflows",
        fun () -> Fabric.fixed_ns huge ~pe_index:0 ~chunks:3 ~chunk_lat_ns:0 );
    ]

(* The satellite bugfix: Dma.transfer_ns used to wrap around on huge
   transfers; now it refuses them and stays bit-identical in range. *)
let test_dma_transfer_overflow () =
  let d = Dma.make ~latency_ns:4_000 ~bandwidth_mb_s:400.0 in
  Alcotest.(check bool) "in-range positive" true (Dma.transfer_ns d ~bytes:8192 > 4_000);
  Alcotest.check_raises "overflow guarded"
    (Invalid_argument "Dma.transfer_ns: duration overflows")
    (fun () -> ignore (Dma.transfer_ns d ~bytes:max_int))

(* ---------------- engine-differential helpers ---------------- *)

let policy_of name = Result.get_ok (Scheduler.find name)

let check_csv_identical label vcsv ccsv =
  if not (String.equal vcsv ccsv) then begin
    let vl = String.split_on_char '\n' vcsv and cl = String.split_on_char '\n' ccsv in
    let rec first i = function
      | a :: ta, b :: tb ->
        if String.equal a b then first (i + 1) (ta, tb)
        else Printf.sprintf "line %d: virtual %S vs compiled %S" i a b
      | a :: _, [] -> Printf.sprintf "line %d only in virtual: %S" i a
      | [], b :: _ -> Printf.sprintf "line %d only in compiled: %S" i b
      | [], [] -> "equal length, no differing line (?)"
    in
    Alcotest.failf "%s: records_csv diverges at %s" label (first 0 (vl, cl))
  end

let check_stores_identical label (vi : Task.instance array) (ci : Task.instance array) =
  Alcotest.(check int) (label ^ ": same instance count") (Array.length vi) (Array.length ci);
  Array.iteri
    (fun i (v : Task.instance) ->
      List.iter
        (fun var ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: instance %d var %s byte-identical" label i var)
            true
            (Bytes.equal (Store.get_raw v.Task.store var) (Store.get_raw ci.(i).Task.store var)))
        (Store.names v.Task.store))
    vi

let run_virtual ?(jitter = 0.03) ?(depth = 0) ~policy ~config ~wl () =
  Result.get_ok
    (Emulator.run_detailed
       ~engine:(Emulator.virtual_seeded ~jitter ~reservation_depth:depth 7L)
       ~policy ~config ~workload:(wl ()) ())

let run_compiled ?(jitter = 0.03) ?(depth = 0) ~policy ~config ~wl () =
  let plan = Compiled.compile ~config ~workload:(wl ()) ~policy:(policy_of policy) () in
  Compiled.run_detailed plan { Engine_core.seed = 7L; jitter; reservation_depth = depth }

(* ---------------- contended differential matrix ---------------- *)

(* Four contention shapes: a saturating two-accelerator mix behind a
   starved single-entry FIFO, the fig9-style mix on the default bus,
   a hop-latency-dominated bus with a small FIFO, and a 2x2 mesh whose
   PEs sit at different hop counts. *)
let contended_scenarios =
  [
    ( "two-fft-saturated",
      (fun () -> Config.zcu102_cores_ffts ~cores:2 ~ffts:2),
      fabric_of "bus:bw=100MB/s,fifo=1",
      fun () ->
        Workload.validation
          [ (Reference_apps.pulse_doppler (), 1); (Reference_apps.wifi_rx (), 1) ] );
    ( "fig9-mix-default-bus",
      (fun () -> Config.zcu102_cores_ffts ~cores:3 ~ffts:2),
      fabric_of "bus:",
      fun () ->
        Workload.validation
          [ (Reference_apps.pulse_doppler (), 1); (Reference_apps.range_detection (), 2);
            (Reference_apps.wifi_tx (), 2); (Reference_apps.wifi_rx (), 2) ] );
    ( "hop-latency-bus",
      (fun () -> Config.zcu102_cores_ffts ~cores:2 ~ffts:1),
      fabric_of "bus:bw=500MB/s,fifo=2,hop=50ns",
      fun () ->
        Workload.validation
          [ (Reference_apps.range_detection (), 2); (Reference_apps.wifi_rx (), 1) ] );
    ( "mesh-hops",
      (fun () -> Config.zcu102_cores_ffts ~cores:2 ~ffts:2),
      fabric_of "bus:bw=500MB/s,fifo=2,hop=100ns,hops=mesh2x2",
      fun () ->
        Workload.validation
          [ (Reference_apps.range_detection (), 2); (Reference_apps.wifi_rx (), 1) ] );
  ]

let matrix_policies = [ "FRFS"; "MET"; "EFT"; "RANDOM"; "POWER" ]

let test_contended_virtual_compiled_matrix () =
  List.iter
    (fun (scen, config_fn, fabric, wl) ->
      let config = Config.with_fabric fabric (config_fn ()) in
      List.iter
        (fun policy ->
          let label = scen ^ "/" ^ policy in
          let vr, vi = run_virtual ~policy ~config ~wl () in
          let cr, ci = run_compiled ~policy ~config ~wl () in
          check_csv_identical label (Stats.records_csv vr) (Stats.records_csv cr);
          Alcotest.(check bool) (label ^ ": same report") true (vr = cr);
          check_stores_identical label vi ci;
          Oracle.check (label ^ "/virtual") ~config vi;
          Oracle.check (label ^ "/compiled") ~config ci;
          Alcotest.(check bool)
            (label ^ ": streams flowed")
            true
            (vr.Stats.fabric.Stats.dma_streams > 0))
        matrix_policies)
    contended_scenarios

(* Traced lowering parity under contention: the fabric hooks
   (stream admissions with their stall times, stall-queue events, the
   occupancy gauge and stall histogram) must replay byte-for-byte, on
   top of the untraced record parity above. *)
let test_contended_obs_parity () =
  let module Obs = Dssoc_obs.Obs in
  let module Analyze = Dssoc_obs.Analyze in
  let traced () =
    Obs.make ~sink:(Obs.Sink.ring ~capacity:(1 lsl 18) ()) ~metrics:(Obs.Metrics.create ()) ()
  in
  let metrics_text obs =
    match Obs.metrics obs with
    | Some m -> Format.asprintf "%a" Obs.Metrics.pp m
    | None -> ""
  in
  List.iter
    (fun (scen, config_fn, fabric, wl) ->
      let config = Config.with_fabric fabric (config_fn ()) in
      List.iter
        (fun policy ->
          let label = scen ^ "/" ^ policy in
          let vobs = traced () and cobs = traced () in
          let vr, _ =
            Result.get_ok
              (Emulator.run_detailed
                 ~engine:(Emulator.virtual_seeded ~jitter:0.03 7L)
                 ~policy ~obs:vobs ~config ~workload:(wl ()) ())
          in
          let plan = Compiled.compile ~config ~workload:(wl ()) ~policy:(policy_of policy) () in
          let cr =
            Compiled.run ~obs:cobs plan
              { Engine_core.seed = 7L; jitter = 0.03; reservation_depth = 0 }
          in
          Alcotest.(check int) (label ^ ": no dropped events") 0
            (Obs.Sink.dropped (Obs.sink vobs));
          Alcotest.(check string)
            (label ^ ": event JSONL byte-identical")
            (Obs.to_jsonl (Obs.recorded_events vobs))
            (Obs.to_jsonl (Obs.recorded_events cobs));
          Alcotest.(check string)
            (label ^ ": metrics identical")
            (metrics_text vobs) (metrics_text cobs);
          Alcotest.(check int) (label ^ ": same makespan") vr.Stats.makespan_ns
            cr.Stats.makespan_ns;
          let admissions =
            List.length
              (List.filter
                 (fun (e : Obs.event) ->
                   match e.Obs.body with Obs.Stream_admitted _ -> true | _ -> false)
                 (Obs.recorded_events cobs))
          in
          Alcotest.(check int)
            (label ^ ": one admission event per DMA stream")
            cr.Stats.fabric.Stats.dma_streams admissions;
          let cp = Analyze.critical_path (Analyze.of_events (Obs.recorded_events cobs)) in
          Alcotest.(check int) (label ^ ": crit path = makespan") cr.Stats.makespan_ns
            cp.Analyze.cp_length_ns)
        matrix_policies)
    contended_scenarios

let test_contended_native_functional_matrix () =
  List.iter
    (fun (scen, config_fn, fabric, wl) ->
      let config = Config.with_fabric fabric (config_fn ()) in
      List.iter
        (fun policy ->
          let label = scen ^ "/" ^ policy ^ "/native" in
          let vr, vi = run_virtual ~jitter:0.0 ~policy ~config ~wl () in
          let nr, ni =
            Result.get_ok
              (Emulator.run_detailed
                 ~engine:(Emulator.native_seeded 7L)
                 ~policy ~config ~workload:(wl ()) ())
          in
          Alcotest.(check int) (label ^ ": same task count") vr.Stats.task_count
            nr.Stats.task_count;
          Alcotest.(check int)
            (label ^ ": same record count")
            (List.length vr.Stats.records)
            (List.length nr.Stats.records);
          (* Which PE a task lands on is timing, so the native stream
             count legitimately differs from the virtual one; what must
             hold is the ledger invariant — the FIFO depth bounded the
             in-flight set.  Stalls and stall-ns are wall-clock facts
             on the native side and are not compared. *)
          let fifo =
            match fabric with Fabric.Bus b -> b.Fabric.fifo_depth | Fabric.Ideal -> max_int
          in
          Alcotest.(check bool)
            (label ^ ": native in-flight bounded by FIFO")
            true
            (nr.Stats.fabric.Stats.max_inflight_streams <= fifo);
          let ratio =
            float_of_int nr.Stats.makespan_ns /. float_of_int (max 1 vr.Stats.makespan_ns)
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s: makespan ratio %.3f in band" label ratio)
            true
            (ratio > 1e-3 && ratio < 1e3);
          check_stores_identical label vi ni)
        [ "FRFS"; "EFT" ])
    contended_scenarios

(* ---------------- contention is visible and bounded ---------------- *)

let test_saturated_bus_stalls_and_slows () =
  let config_fn () = Config.zcu102_cores_ffts ~cores:2 ~ffts:2 in
  let wl () =
    Workload.validation
      [ (Reference_apps.pulse_doppler (), 1); (Reference_apps.wifi_rx (), 1) ]
  in
  let ideal, _ = run_virtual ~policy:"EFT" ~config:(config_fn ()) ~wl () in
  let contended, _ =
    run_virtual ~policy:"EFT"
      ~config:(Config.with_fabric (fabric_of "bus:bw=100MB/s,fifo=1") (config_fn ()))
      ~wl ()
  in
  Alcotest.(check bool) "ideal run reports no fabric activity" true
    (ideal.Stats.fabric = Stats.no_fabric);
  let f = contended.Stats.fabric in
  Alcotest.(check bool) "streams" true (f.Stats.dma_streams > 0);
  Alcotest.(check bool) "stalls observed" true (f.Stats.fabric_stalls > 0);
  Alcotest.(check bool) "stall time accumulated" true (f.Stats.fabric_stall_ns > 0);
  Alcotest.(check bool) "FIFO bound respected" true (f.Stats.max_inflight_streams <= 1);
  Alcotest.(check bool)
    (Printf.sprintf "contention slows the run (%d ns vs %d ns ideal)"
       contended.Stats.makespan_ns ideal.Stats.makespan_ns)
    true
    (contended.Stats.makespan_ns > ideal.Stats.makespan_ns)

(* The compiled engine used to refuse mesh fabrics; both engines now
   price mesh hops, and from one seed they agree on the makespan. *)
let test_mesh_topology_both_engines () =
  let config =
    Config.with_fabric (fabric_of "bus:bw=500MB/s,hop=100ns,hops=mesh2x2")
      (Config.zcu102_cores_ffts ~cores:2 ~ffts:2)
  in
  let wl () = Workload.validation [ (Reference_apps.range_detection (), 1) ] in
  let run name engine =
    match Emulator.run ~engine ~config ~workload:(wl ()) () with
    | Ok r -> r
    | Error e -> Alcotest.failf "%s rejected mesh fabric: %s" name e
  in
  let vr = run "virtual" (Emulator.virtual_seeded 7L) in
  Alcotest.(check bool) "virtual prices mesh hops" true (vr.Stats.makespan_ns > 0);
  let cr = run "compiled" (Emulator.compiled_seeded 7L) in
  Alcotest.(check int) "compiled matches virtual on the mesh" vr.Stats.makespan_ns
    cr.Stats.makespan_ns

(* A hop latency near [max_int] used to wrap the fixed DMA latency
   into a shorter run; every engine must now refuse it before the run
   starts — including the native engine, and a FRFS run whose schedule
   never uses the accelerator — and a sweep must record the refusal
   instead of dying. *)
let test_hop_latency_overflow () =
  let fabric = fabric_of "bus:hop=4611686018427387000ns" in
  let config = Config.with_fabric fabric (Config.zcu102_cores_ffts ~cores:2 ~ffts:1) in
  let wl () = Workload.validation [ (Reference_apps.pulse_doppler (), 1) ] in
  let unused_accel () = Workload.validation [ (Reference_apps.range_detection (), 1) ] in
  List.iter
    (fun (name, engine, policy, wl) ->
      match Emulator.run ~engine ~policy ~config ~workload:(wl ()) () with
      | Error msg ->
        Alcotest.(check string) (name ^ ": typed overflow error")
          "Fabric.fixed_ns: duration overflows" msg
      | Ok r -> Alcotest.failf "%s: accepted, makespan %d ns" name r.Stats.makespan_ns)
    [
      ("virtual", Emulator.virtual_seeded ~jitter:0.0 7L, "FRFS", wl);
      ("compiled", Emulator.compiled_seeded ~jitter:0.0 7L, "FRFS", wl);
      ("native", Emulator.native_seeded 7L, "MET", unused_accel);
      ("virtual FRFS, accelerator unused", Emulator.virtual_seeded ~jitter:0.0 7L, "FRFS",
        unused_accel);
    ];
  let module Grid = Dssoc_explore.Grid in
  let module Sweep = Dssoc_explore.Sweep in
  let grid =
    Grid.make
      ~configs:[ (config.Config.label, config) ]
      ~policies:[ "FRFS" ]
      ~workloads:[ Grid.fixed_workload ~label:"pd" (wl ()) ]
      ()
  in
  List.iter
    (fun engine ->
      match (Sweep.run ~engine grid).Sweep.rows with
      | [ r ] ->
        Alcotest.(check bool) "sweep row aborted" true
          (r.Sweep.verdict = Stats.Aborted "Fabric.fixed_ns: duration overflows")
      | rows -> Alcotest.failf "expected one sweep row, got %d" (List.length rows))
    [ `Virtual; `Compiled ]

(* ---------------- random-DAG properties ---------------- *)

let () =
  Kernels.register_object "qfab.so"
    [
      ( "bump",
        fun store args ->
          ignore args;
          Store.set_i32 store "acc" (Store.get_i32 store "acc" + 1) );
    ]

(* Random DAGs with real data movement: sizes up to 4K samples give
   DMA phases of up to 32 KiB, enough to contend on a narrow bus. *)
let random_dag seed =
  let prng = Prng.create ~seed:(Int64.of_int (0xFAB + seed)) in
  let n = 3 + Prng.int prng 8 in
  let nodes =
    List.init n (fun i ->
        let preds =
          List.filteri (fun j _ -> j < i && Prng.bool prng) (List.init n (fun j -> j))
          |> List.map (Printf.sprintf "n%d")
        in
        let preds =
          if i > 0 && preds = [] && Prng.bool prng then [ Printf.sprintf "n%d" (i - 1) ]
          else preds
        in
        let platforms =
          { App_spec.platform = "cpu"; runfunc = "bump"; shared_object = None; cost_us = None }
          ::
          (if Prng.bool prng then
             [ { App_spec.platform = "fft"; runfunc = "bump"; shared_object = None;
                 cost_us = None } ]
           else [])
        in
        {
          App_spec.node_name = Printf.sprintf "n%d" i;
          arguments = [ "acc" ];
          predecessors = preds;
          successors = [];
          platforms;
          kernel_class = "generic";
          size = 1 + Prng.int prng 4096;
          bytes_in = 0;
          bytes_out = 0;
        })
  in
  App_spec.of_edges ~app_name:(Printf.sprintf "qfab%d" seed) ~shared_object:"qfab.so"
    ~variables:[ ("acc", { Store.bytes = 4; is_ptr = false; ptr_alloc_bytes = 0; init = [] }) ]
    ~nodes

let qcheck_ideal_replays_legacy =
  (* [with_fabric Ideal] must be indistinguishable from an untouched
     config — byte-identical records and stores on the deterministic
     engines — for random DAGs, seeds and reservation depths. *)
  QCheck.Test.make ~name:"Ideal fabric replays legacy timings byte-for-byte" ~count:15
    QCheck.(make Gen.(pair (int_range 0 10_000) (pair (int_range 0 4) (int_range 0 2))))
    (fun (seed, (policy_ix, depth)) ->
      let spec = random_dag seed in
      let legacy = Config.zcu102_cores_ffts ~cores:2 ~ffts:1 in
      let config = Config.with_fabric Fabric.Ideal legacy in
      let policy = List.nth matrix_policies policy_ix in
      let wl () = Workload.validation [ (spec, 2) ] in
      let params =
        { Engine_core.seed = Int64.of_int (seed + 1); jitter = 0.03; reservation_depth = depth }
      in
      let run cfg =
        Result.get_ok
          (Emulator.run_detailed ~engine:(Emulator.Virtual params) ~policy ~config:cfg
             ~workload:(wl ()) ())
      in
      let lr, li = run legacy in
      let ir, ii = run config in
      let plan = Compiled.compile ~config ~workload:(wl ()) ~policy:(policy_of policy) () in
      let cr, ci = Compiled.run_detailed plan params in
      if not (String.equal (Stats.records_csv lr) (Stats.records_csv ir)) then
        QCheck.Test.fail_reportf "seed %d: Ideal fabric changed virtual records" seed;
      if not (String.equal (Stats.records_csv lr) (Stats.records_csv cr)) then
        QCheck.Test.fail_reportf "seed %d: compiled diverged under Ideal fabric" seed;
      if ir.Stats.fabric <> Stats.no_fabric then
        QCheck.Test.fail_reportf "seed %d: Ideal fabric reported activity" seed;
      check_stores_identical "ideal-replay" li ii;
      check_stores_identical "ideal-replay-compiled" li ci;
      lr = ir && ir = cr)

let qcheck_contended_replay_and_fifo_bound =
  QCheck.Test.make ~name:"contended virtual = compiled; FIFO bounds in-flight" ~count:15
    QCheck.(make Gen.(pair (int_range 0 10_000) (pair (int_range 0 4) (int_range 1 3))))
    (fun (seed, (policy_ix, fifo)) ->
      let spec = random_dag seed in
      let fabric = fabric_of (Printf.sprintf "bus:bw=50MB/s,fifo=%d" fifo) in
      let config = Config.with_fabric fabric (Config.zcu102_cores_ffts ~cores:2 ~ffts:2) in
      let policy = List.nth matrix_policies policy_ix in
      let wl () = Workload.validation [ (spec, 2) ] in
      let params =
        { Engine_core.seed = Int64.of_int (seed + 1); jitter = 0.03; reservation_depth = 0 }
      in
      let vr, vi =
        Result.get_ok
          (Emulator.run_detailed ~engine:(Emulator.Virtual params) ~policy ~config
             ~workload:(wl ()) ())
      in
      let plan = Compiled.compile ~config ~workload:(wl ()) ~policy:(policy_of policy) () in
      let cr, ci = Compiled.run_detailed plan params in
      if not (String.equal (Stats.records_csv vr) (Stats.records_csv cr)) then
        QCheck.Test.fail_reportf "seed %d fifo %d: contended records diverge" seed fifo;
      check_stores_identical "contended" vi ci;
      let f = vr.Stats.fabric in
      if f.Stats.max_inflight_streams > fifo then
        QCheck.Test.fail_reportf "seed %d: %d in flight exceeds fifo %d" seed
          f.Stats.max_inflight_streams fifo;
      if f.Stats.fabric_stall_ns < 0 then QCheck.Test.fail_reportf "negative stall time";
      vr = cr)

let () =
  Alcotest.run "fabric"
    [
      ( "spec",
        [
          Alcotest.test_case "ideal and empty" `Quick test_of_spec_ideal;
          Alcotest.test_case "bus key=value forms" `Quick test_of_spec_bus;
          Alcotest.test_case "malformed specs rejected" `Quick test_of_spec_errors;
          Alcotest.test_case "fingerprint round-trips" `Quick test_fingerprint_roundtrip;
        ] );
      ( "pricing",
        [
          Alcotest.test_case "hop counts" `Quick test_hops;
          Alcotest.test_case "link demand" `Quick test_demand_ns;
          Alcotest.test_case "fixed latency" `Quick test_fixed_ns;
          Alcotest.test_case "Dma.transfer_ns overflow guard" `Quick
            test_dma_transfer_overflow;
        ] );
      ( "contended matrix",
        [
          Alcotest.test_case "virtual = compiled byte-for-byte" `Slow
            test_contended_virtual_compiled_matrix;
          Alcotest.test_case "traced virtual = traced compiled (events + metrics)" `Slow
            test_contended_obs_parity;
          Alcotest.test_case "native functional agreement" `Slow
            test_contended_native_functional_matrix;
        ] );
      ( "contention",
        [
          Alcotest.test_case "saturated bus stalls and slows" `Quick
            test_saturated_bus_stalls_and_slows;
          Alcotest.test_case "mesh topology: virtual yes, compiled yes" `Quick
            test_mesh_topology_both_engines;
          Alcotest.test_case "hop latency overflow is a typed error" `Quick
            test_hop_latency_overflow;
        ] );
      ( "properties",
        [ qtest qcheck_ideal_replays_legacy; qtest qcheck_contended_replay_and_fifo_bound ] );
    ]
