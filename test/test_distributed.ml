(* Tests of the distributed-exploration layer: content-addressed
   result cache (digest stability, byte-identical round-trips),
   multi-process shard/merge equality, and adaptive successive-halving
   (never prunes a frontier arm; matches the exhaustive frontier on
   the tested grids). *)

module Grid = Dssoc_explore.Grid
module Sweep = Dssoc_explore.Sweep
module Cache = Dssoc_explore.Cache
module Frontier = Dssoc_explore.Frontier
module Config = Dssoc_soc.Config
module Workload = Dssoc_apps.Workload
module Reference_apps = Dssoc_apps.Reference_apps
module Stats = Dssoc_runtime.Stats
module Fault = Dssoc_fault.Fault
module Json = Dssoc_json.Json

let tmp_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "dssoc-test-cache-%d-%d" (Unix.getpid ()) !n)
    in
    if Sys.file_exists dir then
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    dir

let small_grid ?fault ?(jitter = 0.02) ?(replicates = 2) () =
  let c1 = Config.zcu102_cores_ffts ~cores:1 ~ffts:0 in
  let c2 = Config.zcu102_cores_ffts ~cores:2 ~ffts:1 in
  Grid.make ~label:"small" ~replicates ~base_seed:42L ~jitter ?fault
    ~configs:[ (c1.Config.label, c1); (c2.Config.label, c2) ]
    ~policies:[ "FRFS"; "MET" ]
    ~workloads:
      [
        Grid.fixed_workload ~label:"tx" (Workload.validation [ (Reference_apps.wifi_tx (), 1) ]);
        Grid.fixed_workload ~label:"rd"
          (Workload.validation [ (Reference_apps.range_detection (), 1) ]);
      ]
    ()

let transient_plan =
  {
    Fault.default_plan with
    Fault.fault_seed = 7L;
    rules =
      [ { Fault.target = Fault.All; fault = Fault.Transient_faults { p = 0.3; recover_ns = 200_000 } } ];
  }

(* ---------------------- digests ---------------------- *)

let test_digest_stability () =
  let g = small_grid () in
  let p = (Grid.points g).(0) in
  let d = Sweep.point_digest ~engine:`Virtual ~code_rev:"r1" g p in
  Alcotest.(check string) "pure function of the point"
    d
    (Sweep.point_digest ~engine:`Virtual ~code_rev:"r1" g p);
  let differs name d' = Alcotest.(check bool) name true (d <> d') in
  differs "engine in key" (Sweep.point_digest ~engine:`Compiled ~code_rev:"r1" g p);
  differs "code_rev in key" (Sweep.point_digest ~engine:`Virtual ~code_rev:"r2" g p);
  differs "seed in key"
    (Sweep.point_digest ~engine:`Virtual ~code_rev:"r1" g { p with Grid.seed = 99L });
  differs "policy in key"
    (Sweep.point_digest ~engine:`Virtual ~code_rev:"r1" g { p with Grid.policy = "MET" });
  differs "jitter in key"
    (Sweep.point_digest ~engine:`Virtual ~code_rev:"r1" { g with Grid.jitter = 0.5 } p);
  differs "fault plan in key"
    (Sweep.point_digest ~engine:`Virtual ~code_rev:"r1"
       { g with Grid.fault = Some transient_plan }
       p);
  (* but not the index: a grown grid reuses previously cached rows *)
  Alcotest.(check string) "index not in key" d
    (Sweep.point_digest ~engine:`Virtual ~code_rev:"r1" g { p with Grid.index = 1000 });
  Alcotest.(check bool) "digest_of_parts is injective on part boundaries" true
    (Cache.digest_of_parts [ "ab"; "c" ] <> Cache.digest_of_parts [ "a"; "bc" ])

(* Cache shards written before the deterministic engines were unified
   must keep serving: a point's digest still hashes the engine name the
   user asked for, and its recipe is unchanged.  Pinned for a faulted
   fig9 point on both engine names. *)
let test_digest_pinned () =
  let fault =
    Result.get_ok (Fault.of_spec ~seed:7L "accel:dma:p=0.1,*:transient:p=0.05:recover=0.2ms")
  in
  let g = { (Dssoc_explore.Presets.fig9 ~replicates:2 ()) with Grid.fault = Some fault } in
  let p = (Grid.points g).(3) in
  List.iter
    (fun (engine, want) ->
      Alcotest.(check string) (Sweep.engine_name engine) want
        (Sweep.point_digest ~engine ~code_rev:"r1" g p))
    [
      (`Virtual, "3451eb87db55ab89f4bdf3758afee477");
      (`Compiled, "b093cb2b18e0f4ace30b119e6b8d609e");
    ]

(* The v2 digest must separate rows by interconnect: an Ideal-fabric
   point and a Bus-fabric point of the otherwise identical grid may
   not share a cache entry, and distinct bus parameters may not share
   one either.  (The v1 -> v2 tag bump itself keeps pre-fabric rows
   from ever being served to either.) *)
let test_digest_fabric_conflict () =
  let module Fabric = Dssoc_soc.Fabric in
  let with_fab f =
    let g = small_grid () in
    { g with Grid.configs = List.map (fun (l, c) -> (l, Config.with_fabric f c)) g.Grid.configs }
  in
  let digest g = Sweep.point_digest ~engine:`Virtual ~code_rev:"r1" g (Grid.points g).(0) in
  let ideal = digest (small_grid ()) in
  let bus spec =
    match Fabric.of_spec spec with
    | Ok f -> digest (with_fab f)
    | Error msg -> Alcotest.fail msg
  in
  let contended = bus "bus:bw=200MB/s,fifo=2" in
  Alcotest.(check bool) "ideal vs bus fabric differ" true (ideal <> contended);
  Alcotest.(check bool) "bus bandwidth in key" true (contended <> bus "bus:bw=100MB/s,fifo=2");
  Alcotest.(check bool) "fifo depth in key" true (contended <> bus "bus:bw=200MB/s,fifo=3");
  Alcotest.(check bool) "hop latency in key" true
    (contended <> bus "bus:bw=200MB/s,fifo=2,hop=50ns");
  Alcotest.(check bool) "topology in key" true
    (contended <> bus "bus:bw=200MB/s,fifo=2,hops=mesh2x2");
  Alcotest.(check string) "explicit ideal spec digests like the default" ideal
    (digest (with_fab Fabric.Ideal))

let test_row_codec_roundtrip () =
  let g = small_grid ~jitter:0.03 ~replicates:1 () in
  let rows = (Sweep.run ~jobs:1 g).Sweep.rows in
  List.iter
    (fun (r : Sweep.row) ->
      match Sweep.row_of_payload (Sweep.row_payload r) with
      | Error e -> Alcotest.fail e
      | Ok r' ->
        Alcotest.(check bool) "structural equality (bit-exact floats)" true (compare r r' = 0);
        Alcotest.(check string) "identical CSV rendering" (Sweep.csv_row r) (Sweep.csv_row r'))
    rows;
  (* the Aborted message survives even though the CSV verdict column
     drops it *)
  let aborted = { (List.hd rows) with Sweep.verdict = Stats.Aborted "fft busy; no fallback" } in
  match Sweep.row_of_payload (Sweep.row_payload aborted) with
  | Error e -> Alcotest.fail e
  | Ok r' ->
    Alcotest.(check bool) "aborted message preserved" true (compare aborted r' = 0)

(* ---------------------- cache store ---------------------- *)

let test_cache_conflict () =
  let dir = tmp_dir () in
  let c = Cache.open_ ~code_rev:"t" ~dir () in
  Cache.add c ~digest:"d1" {|{"v":"a"}|};
  Cache.add c ~digest:"d1" {|{"v": "a"}|} (* equivalent re-add is a no-op *);
  Alcotest.(check int) "one entry" 1 (Cache.size c);
  Alcotest.(check bool) "conflicting re-add raises" true
    (match Cache.add c ~digest:"d1" {|{"v":"b"}|} with
    | () -> false
    | exception Cache.Conflict _ -> true);
  Alcotest.(check bool) "non-JSON payload rejected" true
    (match Cache.add c ~digest:"d2" "not json" with
    | () -> false
    | exception Invalid_argument _ -> true);
  Cache.close c;
  (* a second handle sees the persisted row *)
  let c2 = Cache.open_ ~readonly:true ~code_rev:"t" ~dir () in
  Alcotest.(check (option string)) "persisted" (Some {|{"v":"a"}|}) (Cache.find c2 ~digest:"d1");
  Alcotest.(check bool) "read-only handle rejects writes" true
    (match Cache.add c2 ~digest:"d2" {|"x"|} with
    | () -> false
    | exception Invalid_argument _ -> true);
  Cache.close c2

let test_cache_torn_final_line () =
  (* a kill mid-append leaves a truncated final line: loading must
     drop that line (it gets re-evaluated) and keep every whole row *)
  let dir = tmp_dir () in
  let c = Cache.open_ ~code_rev:"t" ~dir () in
  Cache.add c ~digest:"d1" {|{"v":"a"}|};
  Cache.add c ~digest:"d2" {|{"v":"b"}|};
  Cache.close c;
  let shard =
    match Array.to_list (Sys.readdir dir) with
    | [ f ] -> Filename.concat dir f
    | l -> Alcotest.failf "expected one shard file, got %d" (List.length l)
  in
  let whole = In_channel.with_open_bin shard In_channel.input_all in
  (* tear the final append mid-payload, no trailing newline *)
  let torn = String.sub whole 0 (String.length whole - 8) in
  Out_channel.with_open_bin shard (fun oc -> Out_channel.output_string oc torn);
  let c2 = Cache.open_ ~readonly:true ~code_rev:"t" ~dir () in
  Alcotest.(check int) "whole rows survive" 1 (Cache.size c2);
  Alcotest.(check (option string)) "first row intact" (Some {|{"v":"a"}|})
    (Cache.find c2 ~digest:"d1");
  Alcotest.(check (option string)) "torn row dropped" None (Cache.find c2 ~digest:"d2");
  Cache.close c2;
  (* corruption that is NOT the final line still fails loudly *)
  Out_channel.with_open_bin shard (fun oc ->
      Out_channel.output_string oc ("{broken\n" ^ whole));
  Alcotest.(check bool) "mid-file corruption still raises" true
    (match Cache.open_ ~readonly:true ~code_rev:"t" ~dir () with
    | c -> Cache.close c; false
    | exception Cache.Conflict _ -> true)

let warm_cold_roundtrip ~engine ?fault () =
  let dir = tmp_dir () in
  let g = small_grid ?fault () in
  let cold_t, cold =
    let cache = Cache.open_ ~code_rev:"t" ~dir () in
    Fun.protect
      ~finally:(fun () -> Cache.close cache)
      (fun () -> Sweep.run_stats ~jobs:2 ~engine ~cache g)
  in
  Alcotest.(check int) "cold: all misses" (Grid.size g) cold.Sweep.cache_misses;
  Alcotest.(check int) "cold: no hits" 0 cold.Sweep.cache_hits;
  (* a fresh handle = a separate process resuming the campaign *)
  let warm_t, warm =
    let cache = Cache.open_ ~code_rev:"t" ~dir () in
    Fun.protect
      ~finally:(fun () -> Cache.close cache)
      (fun () -> Sweep.run_stats ~jobs:2 ~engine ~cache g)
  in
  Alcotest.(check int) "warm: all hits" (Grid.size g) warm.Sweep.cache_hits;
  Alcotest.(check int) "warm: no misses" 0 warm.Sweep.cache_misses;
  Alcotest.(check string) "warm CSV byte-identical (obs and fault columns included)"
    (Sweep.to_csv cold_t) (Sweep.to_csv warm_t);
  Alcotest.(check string) "warm JSON byte-identical"
    (Json.to_string (Sweep.to_json cold_t))
    (Json.to_string (Sweep.to_json warm_t));
  Alcotest.(check bool) "rows structurally bit-identical" true
    (compare cold_t.Sweep.rows warm_t.Sweep.rows = 0)

let test_cache_roundtrip_virtual () = warm_cold_roundtrip ~engine:`Virtual ()
let test_cache_roundtrip_compiled () = warm_cold_roundtrip ~engine:`Compiled ()
let test_cache_roundtrip_fault () = warm_cold_roundtrip ~engine:`Virtual ~fault:transient_plan ()

let test_cache_revision_isolation () =
  (* Rows computed by one code revision are never served to another. *)
  let dir = tmp_dir () in
  let g = small_grid ~replicates:1 () in
  let run rev =
    let cache = Cache.open_ ~code_rev:rev ~dir () in
    Fun.protect
      ~finally:(fun () -> Cache.close cache)
      (fun () -> snd (Sweep.run_stats ~jobs:1 ~cache g))
  in
  ignore (run "rev-a");
  let s = run "rev-b" in
  Alcotest.(check int) "other revision: all misses" (Grid.size g) s.Sweep.cache_misses;
  let s' = run "rev-a" in
  Alcotest.(check int) "original revision still warm" (Grid.size g) s'.Sweep.cache_hits

(* ---------------------- shard / merge ---------------------- *)

let shard_merge_equality ~engine () =
  let dir = tmp_dir () in
  let g = small_grid () in
  let n = 2 in
  for i = 0 to n - 1 do
    let cache = Cache.open_ ~shard:(i, n) ~code_rev:"t" ~dir () in
    Fun.protect
      ~finally:(fun () -> Cache.close cache)
      (fun () ->
        let t, s = Sweep.run_stats ~jobs:2 ~engine ~cache ~shard:(i, n) g in
        Alcotest.(check int)
          (Printf.sprintf "shard %d/%d row count" i n)
          (List.length t.Sweep.rows) s.Sweep.points;
        List.iter
          (fun (r : Sweep.row) ->
            Alcotest.(check int) "only this shard's indices" i (r.Sweep.index mod n))
          t.Sweep.rows)
  done;
  let cache = Cache.open_ ~readonly:true ~code_rev:"t" ~dir () in
  Fun.protect
    ~finally:(fun () -> Cache.close cache)
    (fun () ->
      match Sweep.of_cache ~engine ~cache g with
      | Error e -> Alcotest.fail e
      | Ok merged ->
        let single = Sweep.run ~jobs:1 ~engine g in
        Alcotest.(check string) "merged CSV byte-identical to single-process run"
          (Sweep.to_csv single) (Sweep.to_csv merged);
        Alcotest.(check string) "merged JSON byte-identical"
          (Json.to_string (Sweep.to_json single))
          (Json.to_string (Sweep.to_json merged)))

let test_shard_merge_virtual () = shard_merge_equality ~engine:`Virtual ()
let test_shard_merge_compiled () = shard_merge_equality ~engine:`Compiled ()

let test_merge_reports_missing () =
  let dir = tmp_dir () in
  let g = small_grid () in
  (* only shard 0 of 2 has run *)
  let cache = Cache.open_ ~shard:(0, 2) ~code_rev:"t" ~dir () in
  Fun.protect
    ~finally:(fun () -> Cache.close cache)
    (fun () -> ignore (Sweep.run_stats ~jobs:1 ~cache ~shard:(0, 2) g));
  let cache = Cache.open_ ~readonly:true ~code_rev:"t" ~dir () in
  Fun.protect
    ~finally:(fun () -> Cache.close cache)
    (fun () ->
      match Sweep.of_cache ~cache g with
      | Ok _ -> Alcotest.fail "expected missing points"
      | Error msg ->
        let contains s sub =
          let n = String.length s and m = String.length sub in
          let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool) "counts the missing points" true
          (contains msg "8 of 16 points missing"))

let test_on_row_streaming () =
  let g = small_grid ~replicates:1 () in
  let seen = ref [] in
  let t = Sweep.run ~jobs:2 ~on_row:(fun r -> seen := r :: !seen) g in
  let streamed = List.sort (fun (a : Sweep.row) b -> compare a.Sweep.index b.Sweep.index) !seen in
  Alcotest.(check bool) "every row streamed exactly once (any completion order)" true
    (compare streamed t.Sweep.rows = 0)

(* ---------------------- frontier ---------------------- *)

let obj m e c = { Frontier.makespan_ns = m; energy_mj = e; completed_fraction = c }

let test_dominates () =
  let check name exp a b = Alcotest.(check bool) name exp (Frontier.dominates a b) in
  check "strictly better everywhere" true (obj 1 1.0 1.0) (obj 2 2.0 0.5);
  check "equal vectors do not dominate" false (obj 1 1.0 1.0) (obj 1 1.0 1.0);
  check "tie on two axes, better on one" true (obj 1 1.0 1.0) (obj 1 1.0 0.9);
  check "trade-off does not dominate" false (obj 1 2.0 1.0) (obj 2 1.0 1.0);
  check "completed fraction is maximized" false (obj 1 1.0 0.5) (obj 1 1.0 0.6)

let test_frontier_tracker () =
  let t = Frontier.create () in
  Frontier.add t ~id:0 (obj 10 10.0 1.0);
  Frontier.add t ~id:1 (obj 5 20.0 1.0) (* trade-off: stays *);
  Frontier.add t ~id:2 (obj 12 11.0 1.0) (* dominated by 0 *);
  Frontier.add t ~id:3 (obj 10 10.0 1.0) (* duplicate of 0: both stay *);
  Alcotest.(check (list int)) "frontier ids" [ 0; 1; 3 ] (Frontier.frontier_ids t);
  Alcotest.(check int) "all entries kept" 4 (List.length (Frontier.entries t))

(* The qcheck property behind adaptive soundness: whatever the
   objective landscape, successive halving never prunes an arm that
   owns a point on the Pareto frontier of everything evaluated so
   far. *)
let test_halving_never_prunes_frontier =
  let gen =
    QCheck.make
      ~print:(fun (arms, reps, cells) ->
        Printf.sprintf "arms=%d reps=%d cells=%s" arms reps
          (String.concat ";"
             (List.map (fun (m, e, c) -> Printf.sprintf "(%d,%d,%d)" m e c) cells)))
      QCheck.Gen.(
        int_range 1 6 >>= fun arms ->
        int_range 1 6 >>= fun reps ->
        (* small value ranges on purpose: ties and duplicated vectors
           are the interesting corner *)
        list_size (return (arms * reps)) (triple (int_bound 4) (int_bound 4) (int_bound 2))
        >>= fun cells -> return (arms, reps, cells))
  in
  QCheck.Test.make ~name:"successive halving never prunes a frontier arm" ~count:200 gen
    (fun (arms, reps, cells) ->
      let cells = Array.of_list cells in
      let objective (a, r) =
        let m, e, c = cells.((a * reps) + r) in
        obj m (float_of_int e) (float_of_int c /. 2.0)
      in
      let eval pairs = Array.map objective pairs in
      let outcome =
        Frontier.successive_halving ~arms ~replicates:reps ~seed:11L ~eval
          ~objectives:Fun.id ()
      in
      (* replay the rung schedule and re-derive each prune decision's
         frontier independently *)
      let evaluated = Array.of_list outcome.Frontier.evaluated in
      let pos = ref 0 in
      let seen = ref [] in
      let sound = ref true in
      let prev_cum = ref 0 in
      List.iter
        (fun (rung : Frontier.rung) ->
          let budget = rung.Frontier.cumulative_replicates - !prev_cum in
          prev_cum := rung.Frontier.cumulative_replicates;
          let count = List.length rung.Frontier.arms_in * budget in
          for k = !pos to !pos + count - 1 do
            let a, r, o = evaluated.(k) in
            seen := ((a, r), o) :: !seen
          done;
          pos := !pos + count;
          if rung.Frontier.pruned <> [] then begin
            let all = !seen in
            let frontier_arms =
              List.filter_map
                (fun ((a, _), o) ->
                  if List.exists (fun (_, o') -> Frontier.dominates o' o) all then None
                  else Some a)
                all
              |> List.sort_uniq compare
            in
            if List.exists (fun a -> List.mem a frontier_arms) rung.Frontier.pruned then
              sound := false
          end)
        outcome.Frontier.rungs;
      (* and the whole schedule was consumed *)
      !sound && !pos = Array.length evaluated
      (* determinism: same inputs, same outcome *)
      && compare outcome
           (Frontier.successive_halving ~arms ~replicates:reps ~seed:11L ~eval
              ~objectives:Fun.id ())
         = 0)

(* ---------------------- adaptive sweeps ---------------------- *)

(* A grid with deliberately dominated arms: the same single
   configuration runs one light workload and three increasingly heavy
   ones, so every heavy cell is strictly dominated (more tasks = more
   makespan and more energy at equal completed fraction) and pruned
   early. *)
let adaptive_grid () =
  let c = Config.zcu102_cores_ffts ~cores:2 ~ffts:1 in
  let tx = Reference_apps.wifi_tx () in
  let rd = Reference_apps.range_detection () in
  Grid.make ~label:"adaptive" ~replicates:8 ~base_seed:42L ~jitter:0.01
    ~configs:[ (c.Config.label, c) ]
    ~policies:[ "FRFS"; "MET"; "EFT" ]
    ~workloads:
      [
        Grid.fixed_workload ~label:"light" (Workload.validation [ (tx, 1) ]);
        Grid.fixed_workload ~label:"mid" (Workload.validation [ (tx, 1); (rd, 1) ]);
        Grid.fixed_workload ~label:"heavy" (Workload.validation [ (tx, 2); (rd, 2) ]);
        Grid.fixed_workload ~label:"heavier" (Workload.validation [ (tx, 4); (rd, 4) ]);
      ]
    ()

let frontier_key (r : Sweep.row) = (r.Sweep.config, r.Sweep.policy, r.Sweep.workload, r.Sweep.replicate)

let test_adaptive_budget_and_frontier () =
  let g = adaptive_grid () in
  let a = Sweep.run_adaptive ~jobs:2 g in
  let evaluated = a.Sweep.a_stats.Sweep.points in
  Alcotest.(check int) "exhaustive point count" (Grid.size g) a.Sweep.a_exhaustive_points;
  Alcotest.(check bool)
    (Printf.sprintf "evaluates at most half the grid (%d of %d)" evaluated
       a.Sweep.a_exhaustive_points)
    true
    (2 * evaluated <= a.Sweep.a_exhaustive_points);
  (* the reported frontier must match the exhaustive run's frontier *)
  let exhaustive = Sweep.run ~jobs:2 g in
  let frontier_of rows =
    let objs = List.map (fun r -> (r, Sweep.objectives_of_row r)) rows in
    List.filter_map
      (fun (r, o) ->
        if List.exists (fun (_, o') -> Frontier.dominates o' o) objs then None
        else Some (frontier_key r))
      objs
    |> List.sort_uniq compare
  in
  Alcotest.(check bool) "adaptive frontier = exhaustive frontier" true
    (frontier_of exhaustive.Sweep.rows
    = List.sort_uniq compare (List.map frontier_key a.Sweep.a_frontier));
  (* adaptive runs replay deterministically *)
  let a' = Sweep.run_adaptive ~jobs:1 g in
  Alcotest.(check string) "deterministic across jobs" (Sweep.to_csv a.Sweep.a_table)
    (Sweep.to_csv a'.Sweep.a_table)

let test_adaptive_shares_cache_with_exhaustive () =
  let dir = tmp_dir () in
  let g = adaptive_grid () in
  let cache = Cache.open_ ~code_rev:"t" ~dir () in
  let a =
    Fun.protect
      ~finally:(fun () -> Cache.close cache)
      (fun () -> Sweep.run_adaptive ~jobs:2 ~cache g)
  in
  (* an exhaustive run over the same grid reuses every adaptive row *)
  let cache = Cache.open_ ~code_rev:"t" ~dir () in
  Fun.protect
    ~finally:(fun () -> Cache.close cache)
    (fun () ->
      let _, s = Sweep.run_stats ~jobs:2 ~cache g in
      Alcotest.(check int) "every adaptive row reused" a.Sweep.a_stats.Sweep.points
        s.Sweep.cache_hits;
      Alcotest.(check int) "only the pruned points computed"
        (Grid.size g - a.Sweep.a_stats.Sweep.points)
        s.Sweep.cache_misses)

let () =
  Alcotest.run "distributed"
    [
      ( "digest",
        [
          Alcotest.test_case "stability and sensitivity" `Quick test_digest_stability;
          Alcotest.test_case "fabric separates rows" `Quick test_digest_fabric_conflict;
          Alcotest.test_case "pinned recipe" `Quick test_digest_pinned;
          Alcotest.test_case "row codec round-trip" `Quick test_row_codec_roundtrip;
        ] );
      ( "cache",
        [
          Alcotest.test_case "conflict detection and persistence" `Quick test_cache_conflict;
          Alcotest.test_case "torn final line tolerated" `Quick test_cache_torn_final_line;
          Alcotest.test_case "warm run byte-identical (virtual)" `Slow test_cache_roundtrip_virtual;
          Alcotest.test_case "warm run byte-identical (compiled)" `Slow test_cache_roundtrip_compiled;
          Alcotest.test_case "warm run byte-identical (fault grid)" `Slow test_cache_roundtrip_fault;
          Alcotest.test_case "code_rev isolation" `Slow test_cache_revision_isolation;
        ] );
      ( "shard",
        [
          Alcotest.test_case "merge = single process (virtual)" `Slow test_shard_merge_virtual;
          Alcotest.test_case "merge = single process (compiled)" `Slow test_shard_merge_compiled;
          Alcotest.test_case "merge reports missing shards" `Slow test_merge_reports_missing;
          Alcotest.test_case "on_row streams every row" `Quick test_on_row_streaming;
        ] );
      ( "frontier",
        [
          Alcotest.test_case "dominates" `Quick test_dominates;
          Alcotest.test_case "tracker" `Quick test_frontier_tracker;
          QCheck_alcotest.to_alcotest test_halving_never_prunes_frontier;
        ] );
      ( "adaptive",
        [
          Alcotest.test_case "budget and frontier vs exhaustive" `Slow
            test_adaptive_budget_and_frontier;
          Alcotest.test_case "shares cache with exhaustive runs" `Slow
            test_adaptive_shares_cache_with_exhaustive;
        ] );
    ]
