module Emulator = Dssoc_runtime.Emulator
module Stats = Dssoc_runtime.Stats
module Scheduler = Dssoc_runtime.Scheduler
module Compiled_engine = Dssoc_runtime.Compiled_engine
module Engine_core = Dssoc_runtime.Engine_core
module Json = Dssoc_json.Json
module Table = Dssoc_stats.Table
module Quantile = Dssoc_stats.Quantile
module Obs = Dssoc_obs.Obs
module Analyze = Dssoc_obs.Analyze
module Fault = Dssoc_fault.Fault
module App_spec = Dssoc_apps.App_spec
module Workload = Dssoc_apps.Workload
module Config = Dssoc_soc.Config
module Fabric = Dssoc_soc.Fabric
module Mclock = Dssoc_util.Mclock

type row = {
  index : int;
  config : string;
  policy : string;
  workload : string;
  replicate : int;
  seed : int64;
  makespan_ns : int;
  job_count : int;
  task_count : int;
  sched_invocations : int;
  sched_ns : int;
  wm_overhead_ns : int;
  busy_energy_mj : float;
  energy_mj : float;
  max_ready_depth : int;
  max_inflight : int;
  mean_wait_us : float;
  p95_service_us : float;
  util_by_kind : (string * float) list;
  verdict : Stats.verdict;
  completed_fraction : float;
  task_retries : int;
  fabric_stall_ns : int;
  crit_path_us : float;
  crit_path_dma_frac : float;
}

type table = { grid_label : string; rows : row list }

type engine_kind = [ `Virtual | `Compiled ]

let engine_name = function `Virtual -> "virtual" | `Compiled -> "compiled"

(* ------------------------------------------------------------------ *)
(* Content addressing — the digest recipe and the row codec.  A row   *)
(* round-trips bit-exactly (floats travel as hex-float strings), so a *)
(* cached table serializes byte-identically to a freshly computed one.*)
(* ------------------------------------------------------------------ *)

let hex_float = Printf.sprintf "%h"

let fault_fingerprint = function
  | None -> "none"
  | Some (p : Fault.plan) ->
    let target = function Fault.All -> "*" | Fault.Pe_named s -> s in
    let fkind = function
      | Fault.Die_at t -> Printf.sprintf "die@%d" t
      | Fault.Transient_faults { p; recover_ns } ->
        Printf.sprintf "transient:p=%s:recover=%d" (hex_float p) recover_ns
      | Fault.Dma_errors { p; recover_ns } ->
        Printf.sprintf "dma:p=%s:recover=%d" (hex_float p) recover_ns
      | Fault.Hangs { p; recover_ns } ->
        Printf.sprintf "hang:p=%s:recover=%d" (hex_float p) recover_ns
      | Fault.Slowdowns { p; factor } ->
        Printf.sprintf "slow:p=%s:factor=%s" (hex_float p) (hex_float factor)
    in
    Printf.sprintf "seed=%Ld;attempts=%d;backoff=%d..%d;watchdog=%s/%d;rules=%s"
      p.Fault.fault_seed p.Fault.max_attempts p.Fault.backoff_base_ns p.Fault.backoff_cap_ns
      (hex_float p.Fault.watchdog_factor)
      p.Fault.watchdog_floor_ns
      (String.concat ","
         (List.map (fun (r : Fault.rule) -> target r.Fault.target ^ ":" ^ fkind r.Fault.fault) p.Fault.rules))

let workload_fingerprint (wl : Workload.t) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "window=%d" wl.Workload.window_ns);
  List.iter
    (fun (it : Workload.item) ->
      Buffer.add_string buf
        (Printf.sprintf ";%s#%d@%d" it.Workload.spec.App_spec.app_name it.Workload.instance
           it.Workload.arrival_ns))
    wl.Workload.items;
  Buffer.contents buf

let point_digest ~engine ~code_rev (grid : Grid.t) (p : Grid.point) =
  Cache.digest_of_parts
    [
      (* v3: rows grew the critical-path analytics columns, and the
         compiled engine now populates the observability columns for
         real — cached v2 rows (compiled zeros, no crit_path fields)
         must never satisfy a v3 lookup.  v2 added the fabric to the
         recipe so contended rows never alias uncontended ones. *)
      "dssoc-sweep-row/v3";
      "engine=" ^ engine_name engine;
      "code_rev=" ^ code_rev;
      "config=" ^ p.Grid.config_label;
      "platform=" ^ Format.asprintf "%a" Config.pp p.Grid.config;
      "fabric=" ^ Fabric.fingerprint p.Grid.config.Config.fabric;
      "policy=" ^ p.Grid.policy;
      "workload=" ^ p.Grid.wl_label;
      "trace=" ^ workload_fingerprint p.Grid.workload;
      Printf.sprintf "seed=%Ld" p.Grid.seed;
      "jitter=" ^ hex_float grid.Grid.jitter;
      Printf.sprintf "reservation=%d" grid.Grid.reservation_depth;
      "fault=" ^ fault_fingerprint grid.Grid.fault;
    ]

let verdict_to_json = function
  | Stats.Completed -> Json.str "completed"
  | Stats.Degraded -> Json.str "degraded"
  | Stats.Aborted msg -> Json.list [ Json.str "aborted"; Json.str msg ]

let verdict_of_json = function
  | Json.String "completed" -> Ok Stats.Completed
  | Json.String "degraded" -> Ok Stats.Degraded
  | Json.List [ Json.String "aborted"; Json.String msg ] -> Ok (Stats.Aborted msg)
  | _ -> Error "bad verdict"

let jf f = Json.str (hex_float f)

let jf_of j =
  match j with
  | Json.String s -> (
    match float_of_string_opt s with Some f -> Ok f | None -> Error ("bad float " ^ s))
  | _ -> Error "expected hex-float string"

let row_payload r =
  Json.to_string ~minify:true
    (Json.obj
       [
         ("index", Json.int r.index);
         ("config", Json.str r.config);
         ("policy", Json.str r.policy);
         ("workload", Json.str r.workload);
         ("replicate", Json.int r.replicate);
         ("seed", Json.str (Printf.sprintf "%Ld" r.seed));
         ("makespan_ns", Json.int r.makespan_ns);
         ("job_count", Json.int r.job_count);
         ("task_count", Json.int r.task_count);
         ("sched_invocations", Json.int r.sched_invocations);
         ("sched_ns", Json.int r.sched_ns);
         ("wm_overhead_ns", Json.int r.wm_overhead_ns);
         ("busy_energy_mj", jf r.busy_energy_mj);
         ("energy_mj", jf r.energy_mj);
         ("max_ready_depth", Json.int r.max_ready_depth);
         ("max_inflight", Json.int r.max_inflight);
         ("mean_wait_us", jf r.mean_wait_us);
         ("p95_service_us", jf r.p95_service_us);
         ( "util_by_kind",
           Json.list (List.map (fun (k, v) -> Json.list [ Json.str k; jf v ]) r.util_by_kind) );
         ("verdict", verdict_to_json r.verdict);
         ("completed_fraction", jf r.completed_fraction);
         ("task_retries", Json.int r.task_retries);
         ("fabric_stall_ns", Json.int r.fabric_stall_ns);
         ("crit_path_us", jf r.crit_path_us);
         ("crit_path_dma_frac", jf r.crit_path_dma_frac);
       ])

let row_of_payload payload =
  let ( let* ) = Result.bind in
  let* j =
    match Json.parse payload with
    | Ok j -> Ok j
    | Error e -> Error (Json.error_to_string e)
  in
  let mem name conv = Result.bind (Json.member name j) conv in
  let* index = mem "index" Json.to_int in
  let* config = mem "config" Json.to_str in
  let* policy = mem "policy" Json.to_str in
  let* workload = mem "workload" Json.to_str in
  let* replicate = mem "replicate" Json.to_int in
  let* seed_s = mem "seed" Json.to_str in
  let* seed =
    match Int64.of_string_opt seed_s with Some s -> Ok s | None -> Error "bad seed"
  in
  let* makespan_ns = mem "makespan_ns" Json.to_int in
  let* job_count = mem "job_count" Json.to_int in
  let* task_count = mem "task_count" Json.to_int in
  let* sched_invocations = mem "sched_invocations" Json.to_int in
  let* sched_ns = mem "sched_ns" Json.to_int in
  let* wm_overhead_ns = mem "wm_overhead_ns" Json.to_int in
  let* busy_energy_mj = mem "busy_energy_mj" jf_of in
  let* energy_mj = mem "energy_mj" jf_of in
  let* max_ready_depth = mem "max_ready_depth" Json.to_int in
  let* max_inflight = mem "max_inflight" Json.to_int in
  let* mean_wait_us = mem "mean_wait_us" jf_of in
  let* p95_service_us = mem "p95_service_us" jf_of in
  let* util_items = mem "util_by_kind" Json.to_list in
  let* util_by_kind =
    List.fold_left
      (fun acc item ->
        let* acc = acc in
        match item with
        | Json.List [ Json.String k; v ] ->
          let* v = jf_of v in
          Ok ((k, v) :: acc)
        | _ -> Error "bad util_by_kind entry")
      (Ok []) util_items
    |> Result.map List.rev
  in
  let* verdict = Result.bind (Json.member "verdict" j) verdict_of_json in
  let* completed_fraction = mem "completed_fraction" jf_of in
  let* task_retries = mem "task_retries" Json.to_int in
  let* fabric_stall_ns = mem "fabric_stall_ns" Json.to_int in
  let* crit_path_us = mem "crit_path_us" jf_of in
  let* crit_path_dma_frac = mem "crit_path_dma_frac" jf_of in
  Ok
    {
      index;
      config;
      policy;
      workload;
      replicate;
      seed;
      makespan_ns;
      job_count;
      task_count;
      sched_invocations;
      sched_ns;
      wm_overhead_ns;
      busy_energy_mj;
      energy_mj;
      max_ready_depth;
      max_inflight;
      mean_wait_us;
      p95_service_us;
      util_by_kind;
      verdict;
      completed_fraction;
      task_retries;
      fabric_stall_ns;
      crit_path_us;
      crit_path_dma_frac;
    }

(* ------------------------------------------------------------------ *)
(* Point evaluation                                                   *)
(* ------------------------------------------------------------------ *)

type counters = {
  c_hits : int Atomic.t;
  c_misses : int Atomic.t;
  c_plan_compiles : int Atomic.t;
  c_plan_reuses : int Atomic.t;
}

let fresh_counters () =
  {
    c_hits = Atomic.make 0;
    c_misses = Atomic.make 0;
    c_plan_compiles = Atomic.make 0;
    c_plan_reuses = Atomic.make 0;
  }

(* Compiled plans are pure and reusable, so within one worker domain a
   plan is compiled once per (config x policy x workload) cell and
   replayed for every replicate — that is the compiled engine's
   intended amortization.  The memo keys on the cell labels but stores
   the config and the workload by physical identity: generator-built
   workloads are fresh values per point and therefore never falsely
   share a plan, a different config that happens to reuse a label (in
   a later sweep on the same domain) recompiles, while
   [Grid.fixed_workload] cells hit on every replicate. *)
let plan_memo :
    (string * string * string, Config.t * Workload.t * Compiled_engine.plan) Hashtbl.t
    Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 16)

let compiled_result ?counters ~obs (grid : Grid.t) (p : Grid.point) =
  let bump f = match counters with Some c -> Atomic.incr (f c) | None -> () in
  let policy () =
    match Scheduler.find p.Grid.policy with Ok pol -> pol | Error msg -> invalid_arg msg
  in
  match
    let plan =
      match grid.Grid.fault with
      | Some fault ->
        (* Outside the replay contract: let [compile] reject it so the
           sweep reports the same error a per-point [Emulator.run]
           would have. *)
        Compiled_engine.compile ~fault ~config:p.Grid.config ~workload:p.Grid.workload
          ~policy:(policy ()) ()
      | None -> (
        let memo = Domain.DLS.get plan_memo in
        let key = (p.Grid.config_label, p.Grid.policy, p.Grid.wl_label) in
        match Hashtbl.find_opt memo key with
        | Some (cfg, wl, plan) when cfg == p.Grid.config && wl == p.Grid.workload ->
          bump (fun c -> c.c_plan_reuses);
          plan
        | _ ->
          let plan =
            Compiled_engine.compile ~config:p.Grid.config ~workload:p.Grid.workload
              ~policy:(policy ()) ()
          in
          bump (fun c -> c.c_plan_compiles);
          Hashtbl.replace memo key (p.Grid.config, p.Grid.workload, plan);
          plan)
    in
    Compiled_engine.run ~obs plan
      {
        Engine_core.seed = p.Grid.seed;
        jitter = grid.Grid.jitter;
        reservation_depth = grid.Grid.reservation_depth;
      }
  with
  | report -> Ok report
  | exception Compiled_engine.Unsupported msg -> Error msg
  | exception Invalid_argument msg -> Error msg

let aborted_row (p : Grid.point) msg =
  {
    index = p.Grid.index;
    config = p.Grid.config_label;
    policy = p.Grid.policy;
    workload = p.Grid.wl_label;
    replicate = p.Grid.replicate;
    seed = p.Grid.seed;
    makespan_ns = 0;
    job_count = 0;
    task_count = 0;
    sched_invocations = 0;
    sched_ns = 0;
    wm_overhead_ns = 0;
    busy_energy_mj = 0.0;
    energy_mj = 0.0;
    max_ready_depth = 0;
    max_inflight = 0;
    mean_wait_us = 0.0;
    p95_service_us = 0.0;
    util_by_kind = [];
    verdict = Stats.Aborted msg;
    completed_fraction = 0.0;
    task_retries = 0;
    fabric_stall_ns = 0;
    crit_path_us = 0.0;
    crit_path_dma_frac = 0.0;
  }

let run_point_inner ?counters ~engine_kind (grid : Grid.t) (p : Grid.point) =
  (* Full observation per point: metrics feed the queue-depth /
     latency columns, a schedule sink feeds the critical-path
     analytics.  Both engines run traced — the compiled engine lowers
     the same hooks and produces the same events, so result tables
     stay byte-identical across engines and worker counts.  The
     schedule sink keeps only what the analysis reads, and keeps all
     of it: no point drops an event, and none pays for an event log. *)
  let metrics = Obs.Metrics.create () in
  let obs = Obs.make ~sink:(Obs.Sink.schedule ()) ~metrics () in
  let result =
    match engine_kind with
    | `Virtual ->
      let engine =
        Emulator.virtual_seeded ~jitter:grid.Grid.jitter
          ~reservation_depth:grid.Grid.reservation_depth p.Grid.seed
      in
      Emulator.run ~engine ~policy:p.Grid.policy ~obs ?fault:grid.Grid.fault
        ~config:p.Grid.config ~workload:p.Grid.workload ()
    | `Compiled -> compiled_result ?counters ~obs grid p
  in
  match result with
  | Error msg ->
    (* A grid can span points a run rejects: configurations a fault
       plan cannot target (an [accel:...] rule over a 0-FFT point), or
       fabric latencies that overflow.  Record the rejection in the
       verdict column instead of killing the sweep. *)
    aborted_row p msg
  | Ok r ->
    let gauge_max name =
      match Obs.Metrics.find_gauge metrics name with
      | Some g -> Obs.Metrics.gauge_max g
      | None -> 0
    in
    let hist f name =
      match Obs.Metrics.find_histogram metrics name with
      | Some h -> Option.value ~default:0.0 (f h)
      | None -> 0.0
    in
    let cp = Analyze.critical_path (Analyze.of_sink (Obs.sink obs)) in
    {
      index = p.Grid.index;
      config = p.Grid.config_label;
      policy = p.Grid.policy;
      workload = p.Grid.wl_label;
      replicate = p.Grid.replicate;
      seed = p.Grid.seed;
      makespan_ns = r.Stats.makespan_ns;
      job_count = r.Stats.job_count;
      task_count = r.Stats.task_count;
      sched_invocations = r.Stats.sched_invocations;
      sched_ns = r.Stats.sched_ns;
      wm_overhead_ns = r.Stats.wm_overhead_ns;
      busy_energy_mj = Stats.total_busy_energy_mj r;
      energy_mj = Stats.total_energy_mj r;
      max_ready_depth = gauge_max "ready_queue_depth";
      max_inflight = gauge_max "in_flight_tasks";
      mean_wait_us = hist Obs.Metrics.histogram_mean "task_wait_us";
      p95_service_us = hist (fun h -> Obs.Metrics.histogram_quantile h 0.95) "task_service_us";
      util_by_kind = Stats.mean_utilization_by_kind r;
      verdict = r.Stats.verdict;
      completed_fraction = Stats.completed_fraction r;
      task_retries = r.Stats.resilience.Stats.task_retries;
      fabric_stall_ns = r.Stats.fabric.Stats.fabric_stall_ns;
      crit_path_us = float_of_int cp.Analyze.cp_length_ns /. 1e3;
      crit_path_dma_frac = cp.Analyze.cp_dma_frac;
    }

let run_point ~engine_kind grid p = run_point_inner ~engine_kind grid p

type eval_ctx = {
  e_grid : Grid.t;
  e_engine : engine_kind;
  e_cache : Cache.t option;
  e_counters : counters;
  e_emit : (row -> unit) option;  (* already mutex-serialized *)
}

let make_ctx ?cache ?on_row ~engine grid =
  let emit =
    match on_row with
    | None -> None
    | Some f ->
      let mu = Mutex.create () in
      Some (fun r -> Mutex.protect mu (fun () -> f r))
  in
  { e_grid = grid; e_engine = engine; e_cache = cache; e_counters = fresh_counters (); e_emit = emit }

let eval_point ctx (p : Grid.point) =
  let row =
    match ctx.e_cache with
    | None ->
      let r = run_point_inner ~counters:ctx.e_counters ~engine_kind:ctx.e_engine ctx.e_grid p in
      Atomic.incr ctx.e_counters.c_misses;
      r
    | Some cache -> (
      let digest = point_digest ~engine:ctx.e_engine ~code_rev:(Cache.code_rev cache) ctx.e_grid p in
      match Cache.find cache ~digest with
      | Some payload -> (
        match row_of_payload payload with
        | Ok r ->
          Atomic.incr ctx.e_counters.c_hits;
          (* The digest deliberately excludes the point index (a grown
             grid may renumber); restore the requesting point's. *)
          { r with index = p.Grid.index }
        | Error msg ->
          failwith (Printf.sprintf "Sweep: corrupt cache row %s: %s" digest msg))
      | None ->
        let r = run_point_inner ~counters:ctx.e_counters ~engine_kind:ctx.e_engine ctx.e_grid p in
        Atomic.incr ctx.e_counters.c_misses;
        Cache.add cache ~digest (row_payload r);
        r)
  in
  (match ctx.e_emit with Some f -> f row | None -> ());
  row

(* ------------------------------------------------------------------ *)
(* Exhaustive runs                                                    *)
(* ------------------------------------------------------------------ *)

type stats = {
  points : int;
  cache_hits : int;
  cache_misses : int;
  plan_compiles : int;
  plan_reuses : int;
  elapsed_ns : int;
}

let stats_of ctx ~points ~t0 =
  {
    points;
    cache_hits = Atomic.get ctx.e_counters.c_hits;
    cache_misses = Atomic.get ctx.e_counters.c_misses;
    plan_compiles = Atomic.get ctx.e_counters.c_plan_compiles;
    plan_reuses = Atomic.get ctx.e_counters.c_plan_reuses;
    elapsed_ns = Mclock.now_ns () - t0;
  }

let shard_points shard points =
  match shard with
  | None -> points
  | Some (i, n) ->
    if n <= 0 || i < 0 || i >= n then
      invalid_arg (Printf.sprintf "Sweep.run: shard %d/%d out of range" i n);
    Array.of_list
      (List.filter (fun (p : Grid.point) -> p.Grid.index mod n = i) (Array.to_list points))

let run_stats ?jobs ?(engine = `Virtual) ?cache ?shard ?on_row grid =
  let t0 = Mclock.now_ns () in
  let points = shard_points shard (Grid.points grid) in
  let jobs = match jobs with Some j -> max 1 j | None -> Pool.default_jobs () in
  let ctx = make_ctx ?cache ?on_row ~engine grid in
  let rows =
    Pool.map ~jobs ~n:(Array.length points) (fun i -> eval_point ctx points.(i))
  in
  Option.iter Cache.flush cache;
  ( { grid_label = grid.Grid.label; rows = Array.to_list rows },
    stats_of ctx ~points:(Array.length points) ~t0 )

let run ?jobs ?engine ?cache ?shard ?on_row grid =
  fst (run_stats ?jobs ?engine ?cache ?shard ?on_row grid)

let run_timed ?jobs ?engine grid =
  let t, s = run_stats ?jobs ?engine grid in
  (t, s.elapsed_ns)

(* ------------------------------------------------------------------ *)
(* Merge: reassemble a full table from shard stores                   *)
(* ------------------------------------------------------------------ *)

exception Corrupt of string

let of_cache ?(engine = `Virtual) ~cache grid =
  let points = Grid.points grid in
  let missing = ref 0 in
  let first_missing = ref (-1) in
  match
    Array.to_list points
    |> List.filter_map (fun (p : Grid.point) ->
           let digest = point_digest ~engine ~code_rev:(Cache.code_rev cache) grid p in
           match Cache.find cache ~digest with
           | Some payload -> (
             match row_of_payload payload with
             | Ok r -> Some { r with index = p.Grid.index }
             | Error msg ->
               raise (Corrupt (Printf.sprintf "corrupt cache row %s: %s" digest msg)))
           | None ->
             incr missing;
             if !first_missing < 0 then first_missing := p.Grid.index;
             None)
  with
  | rows ->
    if !missing > 0 then
      Error
        (Printf.sprintf
           "%d of %d points missing from cache %s (first missing point index %d; engine %s, \
            code_rev %s) — run the missing shards first"
           !missing (Array.length points) (Cache.dir cache) !first_missing
           (engine_name engine) (Cache.code_rev cache))
    else Ok { grid_label = grid.Grid.label; rows }
  | exception Corrupt msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Adaptive runs: successive halving over (config x policy x workload)*)
(* arms, replicates as the rung budget                                *)
(* ------------------------------------------------------------------ *)

type adaptive = {
  a_table : table;
  a_frontier : row list;
  a_exhaustive_points : int;
  a_survivors : int list;
  a_rungs : Frontier.rung list;
  a_stats : stats;
}

let arm_cell (grid : Grid.t) arm =
  let w = List.length grid.Grid.workloads and p = List.length grid.Grid.policies in
  let wi = arm mod w in
  let pi = arm / w mod p in
  let ci = arm / (w * p) in
  ( fst (List.nth grid.Grid.configs ci),
    List.nth grid.Grid.policies pi,
    (List.nth grid.Grid.workloads wi).Grid.wl_label )

let objectives_of_row (r : row) =
  match r.verdict with
  | Stats.Aborted _ ->
    (* An aborted point reports makespan 0; never let it look optimal. *)
    { Frontier.makespan_ns = max_int; energy_mj = infinity; completed_fraction = neg_infinity }
  | Stats.Completed | Stats.Degraded ->
    {
      Frontier.makespan_ns = r.makespan_ns;
      energy_mj = r.energy_mj;
      completed_fraction = r.completed_fraction;
    }

let run_adaptive ?jobs ?(engine = `Virtual) ?cache ?on_row grid =
  let t0 = Mclock.now_ns () in
  let points = Grid.points grid in
  let total = Array.length points in
  let reps = grid.Grid.replicates in
  let arms = total / reps in
  let jobs = match jobs with Some j -> max 1 j | None -> Pool.default_jobs () in
  let ctx = make_ctx ?cache ?on_row ~engine grid in
  let eval pairs =
    (* One rung's (arm, replicate) batch fanned out over the pool;
       replicate varies fastest in grid enumeration, so cell [arm]'s
       replicate [r] is point [arm * reps + r]. *)
    Pool.map ~jobs ~n:(Array.length pairs) (fun k ->
        let arm, r = pairs.(k) in
        eval_point ctx points.((arm * reps) + r))
  in
  let outcome =
    Frontier.successive_halving ~arms ~replicates:reps ~seed:grid.Grid.base_seed ~eval
      ~objectives:objectives_of_row ()
  in
  Option.iter Cache.flush cache;
  let rows =
    List.map (fun (_, _, r) -> r) outcome.Frontier.evaluated
    |> List.sort (fun a b -> compare a.index b.index)
  in
  let on_frontier r = List.mem (r.index / reps, r.index mod reps) outcome.Frontier.frontier in
  {
    a_table = { grid_label = grid.Grid.label; rows };
    a_frontier = List.filter on_frontier rows;
    a_exhaustive_points = total;
    a_survivors = outcome.Frontier.survivors;
    a_rungs = outcome.Frontier.rungs;
    a_stats = stats_of ctx ~points:(List.length rows) ~t0;
  }

(* ------------------------------------------------------------------ *)
(* Serialization — all formats are pure functions of the rows, so a   *)
(* sweep's export is byte-identical across worker counts.             *)
(* ------------------------------------------------------------------ *)

let util_string u = String.concat ";" (List.map (fun (k, v) -> Printf.sprintf "%s=%.6f" k v) u)

let csv_header =
  "config,policy,workload,replicate,seed,makespan_ns,job_count,task_count,sched_invocations,sched_ns,wm_overhead_ns,busy_energy_mj,energy_mj,max_ready_depth,max_inflight,mean_wait_us,p95_service_us,util_by_kind,verdict,completed_fraction,task_retries,fabric_stall_ns,crit_path_us,crit_path_dma_frac"

let csv_row r =
  let field = Table.csv_field in
  Printf.sprintf
    "%s,%s,%s,%d,%Ld,%d,%d,%d,%d,%d,%d,%.6f,%.6f,%d,%d,%.3f,%.3f,%s,%s,%.6f,%d,%d,%.3f,%.6f"
    (field r.config) (field r.policy) (field r.workload) r.replicate r.seed r.makespan_ns
    r.job_count r.task_count r.sched_invocations r.sched_ns r.wm_overhead_ns r.busy_energy_mj
    r.energy_mj r.max_ready_depth r.max_inflight r.mean_wait_us r.p95_service_us
    (field (util_string r.util_by_kind))
    (Stats.verdict_name r.verdict) r.completed_fraction r.task_retries r.fabric_stall_ns
    r.crit_path_us r.crit_path_dma_frac

let to_csv t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf csv_header;
  Buffer.add_char buf '\n';
  List.iter
    (fun r ->
      Buffer.add_string buf (csv_row r);
      Buffer.add_char buf '\n')
    t.rows;
  Buffer.contents buf

let to_json t =
  Json.obj
    [
      ("grid", Json.str t.grid_label);
      ("points", Json.int (List.length t.rows));
      ( "rows",
        Json.list
          (List.map
             (fun r ->
               Json.obj
                 [
                   ("config", Json.str r.config);
                   ("policy", Json.str r.policy);
                   ("workload", Json.str r.workload);
                   ("replicate", Json.int r.replicate);
                   ("seed", Json.str (Printf.sprintf "%Ld" r.seed));
                   ("makespan_ns", Json.int r.makespan_ns);
                   ("job_count", Json.int r.job_count);
                   ("task_count", Json.int r.task_count);
                   ("sched_invocations", Json.int r.sched_invocations);
                   ("sched_ns", Json.int r.sched_ns);
                   ("wm_overhead_ns", Json.int r.wm_overhead_ns);
                   ("busy_energy_mj", Json.float r.busy_energy_mj);
                   ("energy_mj", Json.float r.energy_mj);
                   ("max_ready_depth", Json.int r.max_ready_depth);
                   ("max_inflight", Json.int r.max_inflight);
                   ("mean_wait_us", Json.float r.mean_wait_us);
                   ("p95_service_us", Json.float r.p95_service_us);
                   ( "util_by_kind",
                     Json.obj (List.map (fun (k, v) -> (k, Json.float v)) r.util_by_kind) );
                   ("verdict", Json.str (Stats.verdict_name r.verdict));
                   ("completed_fraction", Json.float r.completed_fraction);
                   ("task_retries", Json.int r.task_retries);
                   ("fabric_stall_ns", Json.int r.fabric_stall_ns);
                   ("crit_path_us", Json.float r.crit_path_us);
                   ("crit_path_dma_frac", Json.float r.crit_path_dma_frac);
                 ])
             t.rows) );
    ]

let pp fmt t =
  let ms ns = Printf.sprintf "%.3f" (float_of_int ns /. 1e6) in
  let rows =
    List.map
      (fun r ->
        [
          r.config;
          r.policy;
          r.workload;
          string_of_int r.replicate;
          ms r.makespan_ns;
          string_of_int r.job_count;
          string_of_int r.sched_invocations;
          ms r.wm_overhead_ns;
          Printf.sprintf "%.2f" r.energy_mj;
          string_of_int r.max_ready_depth;
          Printf.sprintf "%.1f" r.mean_wait_us;
          util_string r.util_by_kind;
        ])
      t.rows
  in
  Format.fprintf fmt "%s"
    (Table.render
       ~header:
         [
           "config"; "policy"; "workload"; "rep"; "makespan ms"; "jobs"; "sched inv";
           "WM ms"; "energy mJ"; "max rdy"; "wait us"; "util";
         ]
       ~rows)

(* ------------------------------------------------------------------ *)
(* Aggregation over replicates                                        *)
(* ------------------------------------------------------------------ *)

type summary = {
  s_config : string;
  s_policy : string;
  s_workload : string;
  n : int;
  makespan_ms : Quantile.boxplot;
  mean_energy_mj : float;
  mean_util_by_kind : (string * float) list;
}

let summarize t =
  (* Group rows by (config, policy, workload) in first-appearance
     order; rows arrive in point order, so groups are exactly the
     grid cells in grid order. *)
  let order = ref [] in
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun r ->
      let key = (r.config, r.policy, r.workload) in
      if not (Hashtbl.mem tbl key) then begin
        Hashtbl.add tbl key (ref []);
        order := key :: !order
      end;
      let cell = Hashtbl.find tbl key in
      cell := r :: !cell)
    t.rows;
  List.rev_map
    (fun ((config, policy, workload) as key) ->
      let rows = List.rev !(Hashtbl.find tbl key) in
      let n = List.length rows in
      let makespans =
        Array.of_list (List.map (fun r -> float_of_int r.makespan_ns /. 1e6) rows)
      in
      let mean_energy =
        List.fold_left (fun acc r -> acc +. r.energy_mj) 0.0 rows /. float_of_int (max 1 n)
      in
      let kinds =
        List.sort_uniq compare (List.concat_map (fun r -> List.map fst r.util_by_kind) rows)
      in
      let mean_util k =
        let sum, cnt =
          List.fold_left
            (fun (sum, cnt) r ->
              match List.assoc_opt k r.util_by_kind with
              | Some u -> (sum +. u, cnt + 1)
              | None -> (sum, cnt))
            (0.0, 0) rows
        in
        sum /. float_of_int (max 1 cnt)
      in
      {
        s_config = config;
        s_policy = policy;
        s_workload = workload;
        n;
        makespan_ms = Quantile.boxplot makespans;
        mean_energy_mj = mean_energy;
        mean_util_by_kind = List.map (fun k -> (k, mean_util k)) kinds;
      })
    !order

let pp_summary fmt t =
  let rows =
    List.map
      (fun s ->
        [
          s.s_config;
          s.s_policy;
          s.s_workload;
          string_of_int s.n;
          Printf.sprintf "%.3f" s.makespan_ms.Quantile.med;
          Printf.sprintf "%.3f" s.makespan_ms.Quantile.lo;
          Printf.sprintf "%.3f" s.makespan_ms.Quantile.hi;
          Printf.sprintf "%.2f" s.mean_energy_mj;
          util_string s.mean_util_by_kind;
        ])
      (summarize t)
  in
  Format.fprintf fmt "%s"
    (Table.render
       ~header:
         [
           "config"; "policy"; "workload"; "n"; "med ms"; "lo ms"; "hi ms"; "energy mJ";
           "mean util";
         ]
       ~rows)
