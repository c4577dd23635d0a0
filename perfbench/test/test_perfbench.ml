(* The benchmark's own tests: the sampling harness, compare verdicts,
   the result documents, and a quick run of every declared workload. *)

open Perfbench
module Json = Dssoc_json.Json

let close_to = Alcotest.float 1e-9

(* ---------------- harness ---------------- *)

(* Expected values are Python's statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  let check xs (a, b, c) =
    let q1, q2, q3 = Harness.quartiles xs in
    Alcotest.check close_to "q1" a q1;
    Alcotest.check close_to "q2" b q2;
    Alcotest.check close_to "q3" c q3
  in
  check [ 4.0; 1.0; 3.0; 2.0 ] (1.25, 2.5, 3.75);
  check (List.init 10 (fun i -> float_of_int (i + 1))) (2.75, 5.5, 8.25);
  check [ 1.0; 5.0 ] (0.0, 3.0, 6.0);
  check [ 7.0 ] (7.0, 7.0, 7.0)

let test_percentile () =
  let xs = List.init 11 float_of_int in
  Alcotest.check close_to "p90" 9.0 (Harness.percentile xs 0.9);
  Alcotest.check close_to "p50" 5.0 (Harness.percentile xs 0.5);
  Alcotest.check close_to "interpolated" 1.5 (Harness.percentile [ 1.0; 2.0 ] 0.5)

let test_sample_alternates () =
  let calls = ref [] in
  let v i () =
    calls := i :: !calls;
    0.0
  in
  let times = Harness.sample ~min_rounds:3 ~budget_s:0.0 [| v 0; v 1 |] in
  Alcotest.(check (list int)) "order" [ 0; 1; 1; 0; 0; 1 ] (List.rev !calls);
  Alcotest.(check (list int)) "samples" [ 3; 3 ] (Array.to_list (Array.map List.length times))

(* ---------------- compare ---------------- *)

let test_verdicts () =
  let v = Report.verdict in
  let name x = Report.verdict_name x in
  let check expected ~bound ~old_spread ~worsening =
    Alcotest.(check string) expected expected (name (v ~bound ~old_spread ~worsening))
  in
  check "unresolved" ~bound:(Some 0.1) ~old_spread:0.2 ~worsening:0.5;
  check "regressed" ~bound:(Some 0.1) ~old_spread:0.02 ~worsening:0.15;
  check "within bound" ~bound:(Some 0.1) ~old_spread:0.02 ~worsening:0.05;
  check "within bound" ~bound:(Some 0.1) ~old_spread:0.05 ~worsening:(-0.03);
  check "improved" ~bound:(Some 0.1) ~old_spread:0.02 ~worsening:(-0.05);
  check "worse" ~bound:None ~old_spread:0.0 ~worsening:0.01;
  check "same" ~bound:None ~old_spread:0.0 ~worsening:0.0;
  check "improved" ~bound:None ~old_spread:0.0 ~worsening:(-0.01)

let decl =
  {
    Decl.run_seconds = 1.0;
    workloads = [ "w" ];
    end_to_end =
      [
        { Decl.name = "rate"; unit_ = "1/s"; higher_better = true; bound = Some 0.1 };
        { Decl.name = "lat"; unit_ = "ms"; higher_better = false; bound = Some 0.1 };
      ];
    gates = [ { Decl.name = "failed_frac"; unit_ = "ratio"; higher_better = false; bound = Some 0.0 } ];
    per_layer = [ { Decl.name = "count"; unit_ = "count"; higher_better = false; bound = None } ];
    details = [ { Decl.w_name = "w"; seed = ""; pass = ""; digests = [] } ];
    should_move = [ { Decl.layer_metric = "count"; moves = "rate"; on = [ "w" ] } ];
  }

let doc metrics =
  let m (name, med, q1, q3) =
    ( name,
      Json.obj [ ("median", Json.float med); ("q1", Json.float q1); ("q3", Json.float q3); ("n", Json.int 5) ] )
  in
  Json.obj [ ("workloads", Json.obj [ ("w", Json.obj [ ("metrics", Json.obj (List.map m metrics)) ]) ]) ]

let test_compare_docs () =
  let verdicts old_doc new_doc =
    List.map
      (fun r -> (r.Report.metric, Report.verdict_name r.Report.verdict, r.Report.should_move))
      (Report.compare_docs decl old_doc new_doc)
  in
  let old_doc =
    doc [ ("rate", 100.0, 99.0, 101.0); ("lat", 10.0, 9.9, 10.1); ("failed_frac", 0.0, 0.0, 0.0); ("count", 5.0, 5.0, 5.0) ]
  in
  Alcotest.(check (list (triple string string string)))
    "verdicts"
    [ ("rate", "regressed", ""); ("lat", "improved", ""); ("failed_frac", "within bound", ""); ("count", "same", "rate") ]
    (verdicts old_doc
       (doc [ ("rate", 80.0, 79.0, 81.0); ("lat", 9.0, 8.9, 9.1); ("failed_frac", 0.0, 0.0, 0.0); ("count", 5.0, 5.0, 5.0) ]));
  (* Any failure where the old document had none is a regression, and
     an old spread wider than the bound leaves a change unresolved. *)
  Alcotest.(check (list (triple string string string)))
    "failures and wide spreads"
    [ ("rate", "unresolved", ""); ("lat", "within bound", ""); ("failed_frac", "regressed", ""); ("count", "worse", "rate") ]
    (verdicts
       (doc [ ("rate", 100.0, 80.0, 120.0); ("lat", 10.0, 9.9, 10.1); ("failed_frac", 0.0, 0.0, 0.0); ("count", 5.0, 5.0, 5.0) ])
       (doc [ ("rate", 70.0, 69.0, 71.0); ("lat", 10.5, 10.4, 10.6); ("failed_frac", 0.01, 0.0, 0.02); ("count", 6.0, 6.0, 6.0) ]))

(* ---------------- result documents ---------------- *)

let test_result_round_trip () =
  let m = Measure.create () in
  List.iter (Measure.add m "rate") [ 3.0; 1.0; 2.0 ];
  Measure.add m "lat" 0.25;
  Measure.check m "holds" true;
  Measure.check m "broken" false;
  let values = Result.get_ok (Report.declared m decl.Decl.end_to_end) in
  let j = Json.parse_exn (Report.result_line m values) in
  Alcotest.(check (list string)) "keys" [ "correct"; "attempted"; "failed"; "metrics" ] (Json.keys j);
  Alcotest.(check bool) "correct" false (Json.member_opt "correct" j = Some (Json.Bool true));
  let value name =
    Result.get_ok
      (Result.bind (Json.member "metrics" j) (fun ms ->
           Result.bind (Json.member name ms) (fun v -> Result.bind (Json.member "value" v) Json.to_float)))
  in
  Alcotest.check close_to "rate" 2.0 (value "rate");
  Alcotest.check close_to "lat" 0.25 (value "lat");
  let detail = Json.parse_exn (Report.detail_line ~workload:"w" ~seed:1L ~trace:false m) in
  let traced_m = Measure.create () in
  List.iter (Measure.add traced_m "count") [ 4.0; 5.0; 6.0 ];
  let traced_values = Result.get_ok (Report.declared traced_m decl.Decl.per_layer) in
  let traced =
    ( Json.parse_exn (Report.detail_line ~workload:"w" ~seed:1L ~trace:true traced_m),
      Json.parse_exn (Report.result_line traced_m traced_values) )
  in
  let entry = Result.get_ok (Report.workload_entry decl ~timed:[ (detail, j); (detail, j) ] ~traced) in
  let again = Json.parse_exn (Json.to_string entry) in
  Alcotest.(check bool) "perf entry survives printing" true (again = entry);
  let stat name k =
    Result.get_ok
      (Result.bind (Json.member "metrics" entry) (fun ms ->
           Result.bind (Json.member name ms) (fun v -> Result.bind (Json.member k v) Json.to_float)))
  in
  Alcotest.check close_to "end-to-end: one sample per timed run" 2.0 (stat "rate" "n");
  Alcotest.check close_to "failed_frac over every run" 0.5 (stat "failed_frac" "median");
  Alcotest.check close_to "per-layer: the traced run's points" 3.0 (stat "count" "n");
  Alcotest.(check (result unit (list string)))
    "missing metric named" (Error [ "count" ])
    (Result.map ignore (Report.declared m decl.Decl.per_layer))

let load_decl () =
  match Decl.load ~benchmark:"../../BENCHMARK.json" ~declaration:"../declaration.json" with
  | Ok d -> d
  | Error msg -> Alcotest.fail msg

(* Loading validates the two files against each other: every workload
   and every per-layer metric is declared, and should_move names only
   declared metrics and workloads. *)
let test_declaration () =
  let d = load_decl () in
  Alcotest.(check (list string))
    "every declared workload is implemented" d.Decl.workloads
    (List.filter (fun w -> List.mem_assoc w Workloads.all) d.Decl.workloads);
  Alcotest.(check bool) "every end-to-end metric has a bound" true
    (List.for_all (fun m -> m.Decl.bound <> None) d.Decl.end_to_end)

(* ---------------- quick runs ---------------- *)

let out_dir = "_perf_test"

let test_quick_run name () =
  let d = load_decl () in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let o = { Workloads.seed = 1L; seconds = 0.0; quick = true; out_dir } in
  List.iter
    (fun (trace, metrics) ->
      let m = Workloads.run ~digests:[] ~trace ~name o (List.assoc name Workloads.all) in
      Alcotest.(check (list string)) "problems" [] m.Measure.problems;
      Alcotest.(check int) "failed" 0 m.Measure.failed;
      Alcotest.(check (result unit (list string)))
        "every declared metric measured" (Ok ())
        (Result.map ignore (Report.declared m metrics)))
    [ (false, d.Decl.end_to_end); (true, d.Decl.per_layer) ];
  Alcotest.(check bool) "trace file written" true
    (Sys.file_exists (Filename.concat out_dir (name ^ ".trace.json")))

let () =
  Alcotest.run "perfbench"
    [
      ( "harness",
        [
          Alcotest.test_case "quartiles match Python's" `Quick test_quartiles;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "sampling alternates variants" `Quick test_sample_alternates;
        ] );
      ( "compare",
        [
          Alcotest.test_case "verdict rules" `Quick test_verdicts;
          Alcotest.test_case "verdicts from two documents" `Quick test_compare_docs;
        ] );
      ( "documents",
        [
          Alcotest.test_case "result line round-trip" `Quick test_result_round_trip;
          Alcotest.test_case "declaration matches the workloads" `Quick test_declaration;
        ] );
      ( "quick runs",
        List.map
          (fun (name, _) -> Alcotest.test_case name `Quick (test_quick_run name))
          Workloads.all );
    ]
