(* The benchmark's workloads, their timed passes and output checks.

   Every workload evaluates design points on the emulator the way a
   user does, and a run measures one workload: its set-up (median of
   repeated input builds), its timed passes (as many as fit the run's
   budget), the Table I model error, and its peak heap.  fig9-dse runs
   a campaign of short points cold on both engines and then resumes it
   from the result cache: per-point fixed costs and plan compiles
   amortised over ten replicates.  fig10-dse runs a campaign of long
   points cold on both engines, where the event loop and the policies
   dominate and every compiled point pays a full compile.  storm-faults
   is the only workload that drives the fabric ledger and the retry
   paths, and serve-ramp drives admission, shedding and the watchdog. *)

module Prng = Dssoc_util.Prng
module Mclock = Dssoc_util.Mclock
module Reference_apps = Dssoc_apps.Reference_apps
module Workload = Dssoc_apps.Workload
module Config = Dssoc_soc.Config
module Fabric = Dssoc_soc.Fabric
module Emulator = Dssoc_runtime.Emulator
module Stats = Dssoc_runtime.Stats
module Scheduler = Dssoc_runtime.Scheduler
module Fault = Dssoc_fault.Fault
module Grid = Dssoc_explore.Grid
module Sweep = Dssoc_explore.Sweep
module Cache = Dssoc_explore.Cache
module Presets = Dssoc_explore.Presets
module Server = Dssoc_serve.Server

type opts = {
  seed : int64;
  seconds : float;
  quick : bool;  (** shrunken inputs, for the benchmark's own tests *)
  out_dir : string;  (** trace files and the scratch cache, inside the checkout *)
}

(* One timed pass: the points it evaluated, the seconds it took, its
   output fingerprints, and the detail samples it took. *)
type pass = { points : int; wall_s : float; fps : string list; samples : (string * float) list }

(* What set-up hands to the rest of a run. *)
type prepared = {
  passes : Measure.t -> budget_s:float -> interleave:(unit -> float) -> string list;
      (** run the timed passes through [repeat_passes]; returns the
          passes' output fingerprints *)
  verify : Measure.t -> string list -> string;
      (** check the passes' outputs against each other and against a
          second computation; returns the fingerprint compared with the
          expected digest *)
  traced : int -> Layers.point;  (** the k-th point of the traced pass *)
}

(* Sweeps run on one domain.  With two domains on a two-core host,
   every minor collection stops both and a descheduled core stalls the
   other, which made the run-to-run spread of sweep throughput about
   20%; on one domain it is a few percent, like the single-domain
   workloads. *)
let jobs = 1

(* The workload-layer build behind a grid workload label: what the
   traced pass times as the apps layer. *)
let rebuild_of_label label =
  if label = "sdr_mix" then fun () ->
    Workload.validation (List.map (fun a -> (a, 1)) (Reference_apps.all ()))
  else
    match List.find_opt (fun r -> Printf.sprintf "rate%.2f" r = label) Workload.table2_rates with
    | Some rate -> fun () -> Workload.table2_workload ~rate ()
    | None -> invalid_arg ("no workload build for " ^ label)

let traced_of_grid grid =
  let points = Grid.points grid in
  let reps = grid.Grid.replicates in
  let cells = Array.length points / reps in
  (* Visit cells round-robin, so a short pass still sees every
     configuration, policy and rate before it sees a second replicate. *)
  fun k ->
    let p = points.((k mod cells * reps) + (k / cells mod reps)) in
    {
      Layers.label = Printf.sprintf "%s/%s/%s/r%d" p.Grid.config_label p.Grid.policy p.Grid.wl_label p.Grid.replicate;
      grid;
      point = p;
      rebuild = rebuild_of_label p.Grid.wl_label;
      serve = None;
    }

(* ------------------------------------------------------------------ *)
(* Timed passes                                                       *)
(* ------------------------------------------------------------------ *)

(* Every pass of a workload with fixed inputs must produce the same
   output. *)
let same_outputs m fps =
  Measure.check m "timed passes produced different outputs"
    (fps <> [] && List.for_all (( = ) (List.hd fps)) fps);
  match fps with fp :: _ -> fp | [] -> ""

let peak_heap_mb () = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Alternate timed passes with [interleave] (the set-up probe) until
   the budget is spent, and record each pass's throughput and detail
   samples.  When three or more passes ran, the first is a warm-up and
   is not recorded: it grows the heap and fills the per-domain memos
   that later passes reuse.  The peak heap is read when the first pass
   ends, so it measures the same work however many passes fit the
   budget.  Returns every pass's output fingerprints. *)
let repeat_passes m ~budget_s ~interleave f =
  let passes = ref [] in
  ignore
    (Harness.sample ~budget_s
       [|
         (fun () ->
           match Measure.attempt m "timed pass" f with
           | Some p ->
             if !passes = [] then Measure.add m "peak_heap_mb" (peak_heap_mb ());
             passes := p :: !passes;
             p.wall_s
           | None -> 0.0);
         interleave;
       |]);
  let passes = List.rev !passes in
  let recorded = match passes with _ :: (_ :: _ :: _ as rest) -> rest | all -> all in
  List.iter
    (fun p ->
      Measure.add m "points_per_s" (float_of_int p.points /. p.wall_s);
      Measure.add m "pass_s" p.wall_s;
      List.iter (fun (name, v) -> Measure.add m name v) p.samples)
    recorded;
  List.concat_map (fun p -> p.fps) passes

(* The throughput and the median and 95th percentile host latency of
   the points of one part of a pass, named [kind]. *)
let part_samples ~kind ~points ~wall_s latencies_ms =
  [
    ("points_per_s." ^ kind, float_of_int points /. wall_s);
    ("point_ms.p50." ^ kind, Harness.median latencies_ms);
    ("point_ms.p95." ^ kind, Harness.percentile latencies_ms 0.95);
  ]

(* ------------------------------------------------------------------ *)
(* Sweep campaigns                                                    *)
(* ------------------------------------------------------------------ *)

(* One timed sweep, as one part of a pass.  [on_row] runs in the domain
   that evaluated the row, so the gap between two rows of one domain is
   the host latency of the later point; a domain's first point is timed
   from [t0], the start of the sweep unless the caller did work for it
   first. *)
let timed_sweep ~kind ?cache ?(t0 = Mclock.now_ns ()) ~engine grid =
  let last = Hashtbl.create 2 in
  let latencies = ref [] in
  let on_row _ =
    let now = Mclock.now_ns () in
    let d = (Domain.self () :> int) in
    let prev = Option.value ~default:t0 (Hashtbl.find_opt last d) in
    Hashtbl.replace last d now;
    latencies := float_of_int (now - prev) /. 1e6 :: !latencies
  in
  let table, stats = Sweep.run_stats ~jobs ~engine ?cache ~on_row grid in
  let wall_s = Harness.seconds_since t0 in
  let points = stats.Sweep.points in
  ( stats,
    {
      points;
      wall_s;
      fps = [ Measure.md5 (Sweep.to_csv table) ];
      samples = part_samples ~kind ~points ~wall_s !latencies;
    } )

(* The parts of a pass, as one pass. *)
let combine parts =
  let sum f = List.fold_left (fun acc p -> acc +. f p) 0.0 parts in
  {
    points = List.fold_left (fun acc p -> acc + p.points) 0 parts;
    wall_s = sum (fun p -> p.wall_s);
    fps = List.concat_map (fun p -> p.fps) parts;
    samples = List.concat_map (fun p -> p.samples) parts;
  }

(* Quick mode keeps two configurations, one with an accelerator, and two
   replicates, so a compiled pass both compiles and reuses a plan. *)
let fig9_grid o =
  if o.quick then
    Grid.make ~label:"fig9" ~replicates:2 ~base_seed:o.seed ~jitter:0.03
      ~configs:
        (List.map
           (fun (cores, ffts) ->
             let c = Config.zcu102_cores_ffts ~cores ~ffts in
             (c.Config.label, c))
           [ (1, 1); (2, 0) ])
      ~policies:[ "FRFS" ] ~workloads:[ Presets.sdr_mix () ] ()
  else Presets.fig9 ~replicates:10 ~base_seed:o.seed ()

let fig10_grid o =
  if o.quick then
    let c = Config.zcu102_cores_ffts ~cores:3 ~ffts:2 in
    Grid.make ~label:"fig10" ~base_seed:o.seed ~configs:[ (c.Config.label, c) ] ~policies:[ "FRFS" ]
      ~workloads:[ List.hd (Presets.rate_workloads ()) ]
      ()
  else Presets.fig10 ~base_seed:o.seed ()

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

(* A campaign, cold on both engines: a pass sweeps it on the virtual
   engine and on the compiled one, in alternating order.  Every sweep
   builds a fresh grid, so the compiled engine's per-domain plan memo
   (keyed on the workload's identity) never carries a plan from one
   sweep to the next.  With [resume], one cold sweep fills a fresh
   result cache before the passes, and every pass then also re-sweeps
   the campaign from it through a new handle.  Opening loads and parses
   the whole shard file, which is what resuming costs, so that sweep is
   timed from before the open; every one of its points must be a hit.
   All tables must be byte-equal. *)
let campaign ~grid ~resume o =
  let setup_grid = grid o in
  let dir = Filename.concat o.out_dir (Printf.sprintf "cache-%d" (Unix.getpid ())) in
  let open_cache () = Cache.open_ ~code_rev:"perfbench" ~dir () in
  let fill m =
    Measure.attempt m "cache fill" (fun () ->
        let cache = open_cache () in
        let (table, _), fill_s =
          Fun.protect
            ~finally:(fun () -> Cache.close cache)
            (fun () -> Harness.time (fun () -> Sweep.run_stats ~jobs ~cache (grid o)))
        in
        Measure.add m "explore.cache_fill_s" fill_s;
        Measure.md5 (Sweep.to_csv table))
  in
  let cold engine =
    let kind = match engine with `Virtual -> "virtual" | `Compiled -> "compiled" in
    let stats, part = timed_sweep ~kind ~engine (grid o) in
    match engine with
    | `Virtual -> part
    | `Compiled ->
      {
        part with
        samples =
          part.samples
          @ [
              ("explore.plan_compiles", float_of_int stats.Sweep.plan_compiles);
              ("explore.plan_reuses", float_of_int stats.Sweep.plan_reuses);
            ];
      }
  in
  let warm m =
    let grid = grid o in
    let t0 = Mclock.now_ns () in
    let cache = open_cache () in
    let stats, part =
      Fun.protect
        ~finally:(fun () -> Cache.close cache)
        (fun () -> timed_sweep ~kind:"warm" ~cache ~t0 ~engine:`Virtual grid)
    in
    Measure.check m "warm sweep not fully served from the cache"
      (stats.Sweep.cache_hits = stats.Sweep.points && stats.Sweep.cache_misses = 0);
    {
      part with
      samples =
        part.samples
        @ [
            ("explore.cache_hits", float_of_int stats.Sweep.cache_hits);
            ("explore.cache_misses", float_of_int stats.Sweep.cache_misses);
          ];
    }
  in
  let passes m ~budget_s ~interleave =
    let k = ref 0 in
    repeat_passes m ~budget_s ~interleave (fun () ->
        let engines = if !k mod 2 = 0 then [ `Virtual; `Compiled ] else [ `Compiled; `Virtual ] in
        incr k;
        let cold = List.map cold engines in
        combine (if resume then cold @ [ warm m ] else cold))
  in
  {
    passes =
      (fun m ~budget_s ~interleave ->
        if resume then begin
          rm_rf dir;
          Fun.protect
            ~finally:(fun () -> rm_rf dir)
            (fun () ->
              let filled = fill m in
              Option.to_list filled @ passes m ~budget_s ~interleave)
        end
        else passes m ~budget_s ~interleave);
    verify = same_outputs;
    traced = traced_of_grid setup_grid;
  }

(* ------------------------------------------------------------------ *)
(* storm-faults                                                       *)
(* ------------------------------------------------------------------ *)

let storm_fabric = "bus:bw=100MB/s,fifo=1"
let storm_faults = "*:transient:p=0.05:recover=0.2ms,accel:dma:p=0.05,retries=6"

let ok = function Ok v -> v | Error msg -> failwith msg

(* 2C+2F on a starved, one-deep bus with transient and DMA faults over
   the Table II rate-1.71 trace.  Emulation i takes its engine seed and
   fault seed from (seed, i); it is held in a one-point grid so the
   traced pass can also evaluate it as a sweep row. *)
let storm o =
  let config =
    Config.with_fabric (ok (Fabric.of_spec storm_fabric)) (Config.zcu102_cores_ffts ~cores:2 ~ffts:2)
  in
  let plan = ok (Fault.of_spec storm_faults) in
  let wl = Workload.table2_workload ~rate:1.71 () in
  let point i =
    let s = Prng.derive_seed ~seed:o.seed ~index:i in
    let grid =
      Grid.make ~label:"storm" ~base_seed:s ~jitter:0.03 ~fault:(Fault.with_seed plan s)
        ~configs:[ (config.Config.label, config) ] ~policies:[ "FRFS" ]
        ~workloads:[ Grid.fixed_workload ~label:"rate1.71" wl ]
        ()
    in
    (grid, (Grid.points grid).(0))
  in
  let emulate i =
    let grid, p = point i in
    let r =
      Emulator.run_exn
        ~engine:(Emulator.virtual_seeded ~jitter:grid.Grid.jitter p.Grid.seed)
        ~policy:p.Grid.policy ?fault:grid.Grid.fault ~config ~workload:p.Grid.workload ()
    in
    (r, Measure.md5 (Printf.sprintf "%d/%d/%s" r.Stats.makespan_ns r.Stats.task_count (Stats.records_csv r)))
  in
  ignore (point 0);
  {
    passes =
      (fun m ~budget_s ~interleave ->
        let next = ref 0 in
        let per_pass = if o.quick then 1 else 10 in
        repeat_passes m ~budget_s ~interleave (fun () ->
            let runs =
              List.init per_pass (fun _ ->
                  let k = !next in
                  incr next;
                  Harness.time (fun () -> emulate k))
            in
            let wall_s = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 runs in
            {
              points = per_pass;
              wall_s;
              fps = List.map (fun ((_, fp), _) -> fp) runs;
              samples =
                part_samples ~kind:"virtual" ~points:per_pass ~wall_s (List.map (fun (_, s) -> s *. 1e3) runs)
                @ List.concat_map
                    (fun ((r, _), _) ->
                      [
                        ("fault.retries", float_of_int r.Stats.resilience.Stats.task_retries);
                        ("fault.injected", float_of_int r.Stats.resilience.Stats.faults_injected);
                        ("soc.fabric_stall_sim_ms", float_of_int r.Stats.fabric.Stats.fabric_stall_ns /. 1e6);
                        (* An abort is a typed outcome of the fault plan (a
                           task exhausted its attempts), not a failed
                           operation of the benchmark. *)
                        ("fault.aborted", match r.Stats.verdict with Stats.Aborted _ -> 1.0 | _ -> 0.0);
                      ])
                    runs;
            }));
    verify =
      (fun m fps ->
        (match Measure.attempt m "storm repeat" (fun () -> snd (emulate 0)) with
        | Some fp -> Measure.check m "storm emulation not repeatable" (fps = [] || fp = List.hd fps)
        | None -> ());
        Measure.md5 (String.concat "," (List.filteri (fun i _ -> i < 3) fps)));
    traced =
      (fun k ->
        let grid, p = point k in
        {
          Layers.label = Printf.sprintf "storm/%d" k;
          grid;
          point = p;
          rebuild = (fun () -> Workload.table2_workload ~rate:1.71 ());
          serve = None;
        });
  }

(* ------------------------------------------------------------------ *)
(* serve-ramp                                                         *)
(* ------------------------------------------------------------------ *)

let serve_rates = [ 5.0; 10.0; 20.0 ]
let serve_admission = "policy=degrade:queue=16:max-ready=64:timeout=20ms"

let serve_tenants rate =
  Printf.sprintf
    "gold:apps=range_detection+wifi_tx:rate=%g:prio=1:slo=3ms;bulk:apps=range_detection:rate=%g:prio=0:slo=10ms"
    (0.6 *. rate) (0.4 *. rate)

(* Open-loop arrivals from two tenants (gold 60%, bulk 40%) at 5, 10
   and 20 jobs/ms on 3C+1F; 10 jobs/ms is the saturation knee.  The
   traced pass also replays each rate's arrivals as a batch trace
   without admission control: the runtime layers' share of a server
   run, and what the compiled engine would take for it. *)
let serve o =
  let duration_ms = if o.quick then 10.0 else 200.0 in
  let config = Config.zcu102_cores_ffts ~cores:3 ~ffts:1 in
  let spec rate =
    {
      Server.sp_config = config;
      sp_policy = ok (Scheduler.find "FRFS");
      sp_seed = o.seed;
      sp_jitter = 0.0;
      sp_duration_ms = duration_ms;
      sp_admission = ok (Server.admission_of_spec serve_admission);
      sp_tenants = ok (Server.tenants_of_spec (serve_tenants rate));
    }
  in
  let specs = List.map (fun r -> (Printf.sprintf "r%g" r, spec r)) serve_rates in
  let batch sp () =
    let counts = Hashtbl.create 4 and specs = Hashtbl.create 4 in
    let spec_of name =
      match Hashtbl.find_opt specs name with
      | Some s -> s
      | None ->
        let s = ok (Reference_apps.by_name name) in
        Hashtbl.replace specs name s;
        s
    in
    let items =
      List.map
        (fun (t, _, _, name) ->
          let n = Option.value ~default:0 (Hashtbl.find_opt counts name) in
          Hashtbl.replace counts name (n + 1);
          { Workload.spec = spec_of name; arrival_ns = t; instance = n })
        (Server.materialize_debug sp)
    in
    { Workload.items; window_ns = int_of_float (duration_ms *. 1e6) }
  in
  let traced =
    Array.of_list
      (List.map
         (fun (label, sp) ->
           let grid =
             Grid.make ~label:"serve-batch" ~base_seed:o.seed
               ~configs:[ (config.Config.label, config) ] ~policies:[ "FRFS" ]
               ~workloads:[ Grid.fixed_workload ~label (batch sp ()) ]
               ()
           in
           { Layers.label; grid; point = (Grid.points grid).(0); rebuild = batch sp; serve = Some sp })
         specs)
  in
  (* One ramp: the three rates in turn, each a point. *)
  let ramp () =
    let runs =
      List.map
        (fun (label, sp) ->
          let oc, run_s = Harness.time (fun () -> ok (Server.run sp)) in
          let tenants =
            List.concat_map
              (fun (tr : Server.tenant_report) ->
                [
                  (Printf.sprintf "serve.shed.%s.%s" tr.Server.tr_name label, float_of_int tr.Server.tr_shed);
                  (Printf.sprintf "serve.p95_sim_ms.%s.%s" tr.Server.tr_name label, tr.Server.tr_p95_ms);
                ])
              oc.Server.oc_tenants
          in
          (Server.render_report oc, run_s, tenants))
        specs
    in
    let points = List.length runs in
    let wall_s = List.fold_left (fun acc (_, s, _) -> acc +. s) 0.0 runs in
    {
      points;
      wall_s;
      fps = [ Measure.md5 (String.concat "\n" (List.map (fun (r, _, _) -> r) runs)) ];
      samples =
        part_samples ~kind:"virtual" ~points ~wall_s (List.map (fun (_, s, _) -> s *. 1e3) runs)
        @ List.concat_map (fun (_, _, t) -> t) runs;
    }
  in
  {
    passes = (fun m ~budget_s ~interleave -> repeat_passes m ~budget_s ~interleave ramp);
    verify = same_outputs;
    traced = (fun k -> traced.(k mod Array.length traced));
  }

(* ------------------------------------------------------------------ *)

let all =
  [
    ("fig9-dse", campaign ~grid:fig9_grid ~resume:true);
    ("fig10-dse", campaign ~grid:fig10_grid ~resume:false);
    ("storm-faults", storm);
    ("serve-ramp", serve);
  ]

(* Table I standalone times (3C+2F, FRFS, no jitter) against the
   paper's measurements: the simulated model's mean absolute error. *)
let paper_table1 = [ ("range_detection", 0.32); ("pulse_doppler", 5.60); ("wifi_tx", 0.13); ("wifi_rx", 2.22) ]

let model_err_pct () =
  let config = Config.zcu102_cores_ffts ~cores:3 ~ffts:2 in
  let errs =
    List.map
      (fun (name, paper_ms) ->
        let app = ok (Reference_apps.by_name name) in
        let r =
          Emulator.run_exn ~engine:(Emulator.virtual_seeded ~jitter:0.0 1L) ~config
            ~workload:(Workload.validation [ (app, 1) ])
            ()
        in
        Float.abs ((float_of_int r.Stats.makespan_ns /. 1e6) -. paper_ms) /. paper_ms)
      paper_table1
  in
  100.0 *. List.fold_left ( +. ) 0.0 errs /. float_of_int (List.length errs)

(* One run of one workload: with [trace] off the end-to-end passes and
   checks, with it on the traced pass.  [digests] (seed -> expected
   output fingerprint) is consulted for the seeds it lists, outside
   quick mode. *)
let run ~digests ~trace ~name o setup =
  let m = Measure.create () in
  (* One set-up sample: a full input build, from an empty minor heap.
     The passes use the inputs of one untimed build; the samples are
     taken three at a time between passes, so a slow moment of the host
     skews only some of them, and only once the first pass has grown the
     heap: builds in a fresh process take up to twice as long and vary
     far more, because they grow the heap as they go.  (Forcing a major
     collection here instead doubled the peak heap of fig10.) *)
  let probe () =
    Gc.minor ();
    match Measure.attempt m "set-up" (fun () -> Harness.time (fun () -> setup o)) with
    | Some (_, s) ->
      Measure.add m "setup_s" s;
      s
    | None -> 0.0
  in
  let prepared = Measure.attempt m "set-up" (fun () -> setup o) in
  (match prepared with
  | None -> ()
  | Some p when trace ->
    Layers.pass m ~budget_s:o.seconds ~trace_file:(Filename.concat o.out_dir (name ^ ".trace.json")) p.traced
  | Some p ->
    (match Measure.attempt m "model error" model_err_pct with
    | Some e -> Measure.add m "model_err_pct" e
    | None -> ());
    let interleave () = probe () +. probe () +. probe () in
    let fp = p.verify m (p.passes m ~budget_s:o.seconds ~interleave) in
    m.Measure.digest <- Some fp;
    if not o.quick then begin
      match List.assoc_opt (Int64.to_string o.seed) digests with
      | Some d -> Measure.check m (Printf.sprintf "output digest %s, expected %s" fp d) (fp = d)
      | None -> ()
    end);
  m
