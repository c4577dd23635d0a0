(* The record readings as they were defined over a list of records,
   before records became columns: the oracle the columnar readings in
   [Stats] must equal, value for value. *)

module Stats = Dssoc_runtime.Stats
module Analyze = Dssoc_obs.Analyze

let records_csv (r : Stats.report) records =
  let field = Dssoc_stats.Table.csv_field in
  let pes = Array.of_list (List.map (fun (u : Stats.pe_usage) -> u.Stats.pe_label) r.Stats.pe_usage) in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "app,instance,node,pe,ready_ns,dispatched_ns,completed_ns\n";
  List.iter
    (fun (t : Stats.task_record) ->
      let app, node = r.Stats.names.(t.Stats.name) in
      Buffer.add_string buf
        (Printf.sprintf "%s,%d,%s,%s,%d,%d,%d\n" (field app) t.Stats.instance (field node)
           (field pes.(t.Stats.pe_index)) t.Stats.ready_ns t.Stats.dispatched_ns
           t.Stats.completed_ns))
    records;
  Buffer.contents buf

let fields =
  {
    Analyze.f_task = (fun (t : Stats.task_record) -> t.Stats.task);
    f_instance = (fun t -> t.Stats.instance);
    f_pe_index = (fun t -> t.Stats.pe_index);
    f_ready_ns = (fun t -> t.Stats.ready_ns);
    f_dispatched_ns = (fun t -> t.Stats.dispatched_ns);
    f_completed_ns = (fun t -> t.Stats.completed_ns);
    f_dma_ns = (fun t -> t.Stats.dma_ns);
    f_stall_ns = (fun _ -> 0);
  }

let critical_path (r : Stats.report) records =
  Analyze.path fields (Array.of_list records) ~makespan_ns:r.Stats.makespan_ns ()

let service_quantile_us records q =
  match records with
  | [] -> 0.0
  | records ->
    let us = Array.make (List.length records) 0.0 in
    List.iteri
      (fun i (t : Stats.task_record) ->
        us.(i) <- float_of_int (t.Stats.completed_ns - t.Stats.dispatched_ns) /. 1e3)
      records;
    Dssoc_stats.Quantile.quantile us q

let completed_fraction (r : Stats.report) records =
  float_of_int (List.length records) /. float_of_int (max 1 r.Stats.task_count)

(* A path's steps as (record, edge, gap, service, slack), and its sums. *)
let steps record (p : _ Analyze.path) =
  List.map
    (fun (s : _ Analyze.step_of) ->
      ( record s.Analyze.s_task,
        Analyze.edge_name s.Analyze.s_edge,
        s.Analyze.s_gap_ns,
        s.Analyze.s_service_ns,
        s.Analyze.s_slack_ns ))
    p.Analyze.cp_steps

let sums (p : _ Analyze.path) =
  ( p.Analyze.cp_length_ns,
    p.Analyze.cp_gap_ns,
    p.Analyze.cp_service_ns,
    p.Analyze.cp_observe_ns,
    p.Analyze.cp_dma_ns,
    p.Analyze.cp_stall_ns,
    Int64.bits_of_float p.Analyze.cp_dma_frac )

(* The columnar readings of [r] equal the list definitions over its
   records. *)
let check label (r : Stats.report) =
  let records = Stats.record_list r in
  let fail what = Alcotest.failf "%s: columnar %s differs from the list definition" label what in
  if Stats.record_count r <> List.length records then fail "record count";
  if not (String.equal (Stats.records_csv r) (records_csv r records)) then fail "records_csv";
  let cp = Stats.critical_path r and lp = critical_path r records in
  if sums cp <> sums lp then fail "critical-path sums";
  if steps (Stats.record r) cp <> steps Fun.id lp then fail "critical-path steps";
  List.iter
    (fun q ->
      if
        Int64.bits_of_float (Stats.service_quantile_us r q)
        <> Int64.bits_of_float (service_quantile_us records q)
      then fail (Printf.sprintf "service quantile %g" q))
    [ 0.0; 0.5; 0.95; 0.99; 1.0 ];
  if
    Int64.bits_of_float (Stats.completed_fraction r)
    <> Int64.bits_of_float (completed_fraction r records)
  then fail "completed fraction"
