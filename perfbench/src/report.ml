(* Result documents: the per-run result line, the per-run detail line,
   the aggregated [perf] document, and [compare] over two of those. *)

module Json = Dssoc_json.Json

let ( let* ) = Result.bind

(* A declared metric's value: the median of its samples. *)
let measured m name =
  Option.map (fun xs -> (Harness.median xs, Harness.summarize xs)) (Measure.samples m name)

let summary_json (s : Harness.summary) =
  Json.obj
    [
      ("median", Json.float s.Harness.median);
      ("q1", Json.float s.Harness.q1);
      ("q3", Json.float s.Harness.q3);
      ("n", Json.int s.Harness.n);
    ]

(* The declared metrics of one run, or the names it failed to measure. *)
let declared m (metrics : Decl.metric list) =
  let values = List.map (fun (d : Decl.metric) -> (d, measured m d.Decl.name)) metrics in
  match
    List.filter_map
      (fun ((d : Decl.metric), v) ->
        match v with Some (x, _) when Float.is_finite x -> None | _ -> Some d.Decl.name)
      values
  with
  | [] -> Ok (List.map (fun (d, v) -> let x, s = Option.get v in (d, x, s)) values)
  | missing -> Error missing

let detail_line ~workload ~seed ~trace m =
  Json.to_string ~minify:true
    (Json.obj
       [
         ("perfbench", Json.str "detail");
         ("workload", Json.str workload);
         ("seed", Json.str (Int64.to_string seed));
         ("trace", Json.bool trace);
         ("attempted", Json.int m.Measure.attempted);
         ("failed", Json.int m.Measure.failed);
         ("problems", Json.list (List.rev_map Json.str m.Measure.problems));
         ("digest", match m.Measure.digest with Some d -> Json.str d | None -> Json.Null);
         ( "series",
           Json.obj
             (List.filter_map
                (fun name ->
                  Option.map
                    (fun xs -> (name, summary_json (Harness.summarize xs)))
                    (Measure.samples m name))
                (Measure.names m)) );
       ])

let result_line m values =
  Json.to_string ~minify:true
    (Json.obj
       [
         ("correct", Json.bool (m.Measure.failed = 0));
         ("attempted", Json.int m.Measure.attempted);
         ("failed", Json.int m.Measure.failed);
         ( "metrics",
           Json.obj
             (List.map
                (fun ((d : Decl.metric), v, _) ->
                  (d.Decl.name, Json.obj [ ("value", Json.float v); ("unit", Json.str d.Decl.unit_) ]))
                values) );
       ])

(* ------------------------------------------------------------------ *)
(* The perf document                                                  *)
(* ------------------------------------------------------------------ *)

type run = {
  attempted : int;
  failed : int;
  values : (string * float) list;  (** the result line's metrics *)
  series : (string * Json.t) list;  (** the detail line's series *)
}

let run_of (detail_j, result_j) =
  let field j k conv = Result.bind (Json.member k j) conv in
  let* attempted = field result_j "attempted" Json.to_int in
  let* failed = field result_j "failed" Json.to_int in
  let* metrics = field result_j "metrics" Json.to_obj in
  let* values = Decl.all (fun (k, v) -> Result.map (fun x -> (k, x)) (field v "value" Json.to_float)) metrics in
  let* series = field detail_j "series" Json.to_obj in
  Ok { attempted; failed; values; series }

(* One workload's entry, from the detail and result lines of its timed
   runs and of its traced run.  An end-to-end metric is summarised over
   the timed runs' values, so its quartiles are the run-to-run spread
   [compare] judges by; a per-layer metric keeps the traced run's
   summary over its points. *)
let workload_entry (decl : Decl.t) ~timed ~traced =
  let* timed = Decl.all run_of timed in
  let* traced = run_of traced in
  let runs = timed @ [ traced ] in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 runs in
  let attempted = sum (fun r -> r.attempted) and failed = sum (fun r -> r.failed) in
  let describe name fields =
    Option.map
      (fun (d : Decl.metric) ->
        ( name,
          Json.obj
            (("unit", Json.str d.Decl.unit_)
            :: ("better", Json.str (if d.Decl.higher_better then "higher" else "lower"))
            :: fields) ))
      (Decl.find decl name)
  in
  let across name values =
    let s = Harness.summarize values in
    describe name
      [
        ("median", Json.float s.Harness.median);
        ("q1", Json.float s.Harness.q1);
        ("q3", Json.float s.Harness.q3);
        ("n", Json.int s.Harness.n);
        ("values", Json.list (List.map Json.float values));
      ]
  in
  let end_to_end =
    match timed with
    | [] -> []
    | first :: _ ->
      List.filter_map
        (fun (name, _) -> across name (List.map (fun r -> List.assoc name r.values) timed))
        first.values
  in
  let failed_frac =
    across "failed_frac" (List.map (fun r -> float_of_int r.failed /. float_of_int (max 1 r.attempted)) runs)
  in
  let per_layer =
    List.filter_map
      (fun (name, _) ->
        let stats = Option.value ~default:(Json.obj []) (List.assoc_opt name traced.series) in
        let keep k = Option.to_list (Option.map (fun j -> (k, j)) (Json.member_opt k stats)) in
        describe name (List.concat_map keep [ "median"; "q1"; "q3"; "n" ]))
      traced.values
  in
  Ok
    (Json.obj
       [
         ("correct", Json.bool (failed = 0));
         ("attempted", Json.int attempted);
         ("failed", Json.int failed);
         ("metrics", Json.obj (end_to_end @ Option.to_list failed_frac @ per_layer));
         ( "detail",
           Json.obj
             [
               ("timed", Json.list (List.map (fun r -> Json.obj r.series) timed));
               ("traced", Json.obj traced.series);
             ] );
       ])

(* ------------------------------------------------------------------ *)
(* compare                                                            *)
(* ------------------------------------------------------------------ *)

type verdict = Improved | Within_bound | Regressed | Unresolved | Same | Worse

let verdict_name = function
  | Improved -> "improved"
  | Within_bound -> "within bound"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"
  | Same -> "same"
  | Worse -> "worse"

(* [worsening] is the new median's change against the old one, as a
   share of the old, positive when worse.  A change counts only beyond
   the old run's own interquartile spread; a bound, where the metric
   has one, decides regressions, and an old spread wider than the
   bound leaves the verdict unresolved. *)
let verdict ~bound ~old_spread ~worsening =
  match bound with
  | Some b when old_spread > b -> Unresolved
  | Some b when worsening > b -> Regressed
  | _ when worsening < 0.0 && -.worsening > old_spread -> Improved
  | Some _ -> Within_bound
  | None when worsening > old_spread -> Worse
  | None -> Same

type row = {
  workload : string;
  metric : string;
  old_median : float;
  old_q1 : float;
  old_q3 : float;
  new_median : float;
  new_q1 : float;
  new_q3 : float;
  verdict : verdict;
  should_move : string;  (** per-layer rows: the end-to-end metric this layer metric should move on this workload *)
}

let compare_docs (decl : Decl.t) old_doc new_doc =
  let metrics doc w =
    Option.bind (Json.member_opt "workloads" doc) (Json.member_opt w)
    |> Fun.flip Option.bind (Json.member_opt "metrics")
  in
  let get k j = Option.bind (Json.member_opt k j) (fun v -> Result.to_option (Json.to_float v)) in
  List.concat_map
    (fun w ->
      match (metrics old_doc w, metrics new_doc w) with
      | Some om, Some nm ->
        List.filter_map
          (fun (d : Decl.metric) ->
            match (Json.member_opt d.Decl.name om, Json.member_opt d.Decl.name nm) with
            | Some o, Some n -> (
              match (get "median" o, get "q1" o, get "q3" o, get "median" n, get "q1" n, get "q3" n) with
              | Some ov, Some oq1, Some oq3, Some nv, Some nq1, Some nq3 ->
                let scale = Float.abs ov in
                let rel x = if scale = 0.0 then (if x = 0.0 then 0.0 else Float.infinity) else x /. scale in
                let worsening = rel (if d.Decl.higher_better then ov -. nv else nv -. ov) in
                let old_spread = rel (oq3 -. oq1) in
                Some
                  {
                    workload = w;
                    metric = d.Decl.name;
                    old_median = ov;
                    old_q1 = oq1;
                    old_q3 = oq3;
                    new_median = nv;
                    new_q1 = nq1;
                    new_q3 = nq3;
                    verdict = verdict ~bound:d.Decl.bound ~old_spread ~worsening;
                    should_move = Option.value ~default:"" (Decl.moves decl ~metric:d.Decl.name ~workload:w);
                  }
              | _ -> None)
            | _ -> None)
          (decl.Decl.end_to_end @ decl.Decl.gates @ decl.Decl.per_layer)
      | _ -> [])
    decl.Decl.workloads

let render_rows rows =
  let f = Printf.sprintf "%.6g" in
  Dssoc_stats.Table.render
    ~header:[ "workload"; "metric"; "old median"; "old q1..q3"; "new median"; "new q1..q3"; "verdict"; "should move" ]
    ~rows:
      (List.map
         (fun r ->
           [
             r.workload;
             r.metric;
             f r.old_median;
             f r.old_q1 ^ ".." ^ f r.old_q3;
             f r.new_median;
             f r.new_q1 ^ ".." ^ f r.new_q3;
             verdict_name r.verdict;
             r.should_move;
           ])
         rows)
