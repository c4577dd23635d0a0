module Vec = Dssoc_util.Vec
module Quantile = Dssoc_stats.Quantile
module Json = Dssoc_json.Json

(* Engine-agnostic post-run analytics over a recorded event log.  The
   input is the realized schedule (ready/dispatch/complete triples plus
   DMA phases and fabric admissions), not the application DAG: the
   analysis reconstructs what *bound* the run — dependency chains,
   per-PE serialisation, fabric stalls — purely from what the engines
   emitted, so it applies identically to virtual, compiled and native
   logs (and to logs reloaded from disk via [Obs.event_of_json]). *)

type task_exec = Obs.task_exec = {
  x_task : int;
  x_instance : int;
  x_app : string;
  x_node : string;
  x_pe : string;
  x_pe_index : int;
  x_ready_ns : int;
  x_dispatched_ns : int;
  x_completed_ns : int;
  x_dma_ns : int;
  x_stall_ns : int;
}

module Int_tbl = Hashtbl.Make (Int)

type t = {
  a_tasks : task_exec array;  (* completion order *)
  a_makespan_ns : int;
  a_inject_ns : (int, int) Hashtbl.t;  (* instance -> first injection time *)
}

(* First position [p] in [0, n) with [f p >= v] ([strict]: [f p > v]),
   for [f] non-decreasing; [n] if there is none. *)
let search ?(strict = false) n (f : int -> int) v =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let x = f mid in
    if x < v || (strict && x = v) then lo := mid + 1 else hi := mid
  done;
  !lo

(* Attribute each fabric stall to the task occupying that PE when the
   stream was admitted (its DMA phase is what queued): per PE, the
   admission times sorted with prefix sums of their stalls, so a
   task's share is two binary searches. *)
let attribute_stalls stalls arr =
  if stalls = [] then arr
  else begin
    let by_pe = Int_tbl.create 8 in
    List.iter
      (fun (t, pe_index, stall_ns) ->
        let l = Option.value ~default:[] (Int_tbl.find_opt by_pe pe_index) in
        Int_tbl.replace by_pe pe_index ((t, stall_ns) :: l))
      stalls;
    let index = Int_tbl.create 8 in
    Int_tbl.iter
      (fun pe_index l ->
        let a = Array.of_list l in
        Array.sort (fun (t1, _) (t2, _) -> Int.compare t1 t2) a;
        let sums = Array.make (Array.length a + 1) 0 in
        Array.iteri (fun j (_, stall_ns) -> sums.(j + 1) <- sums.(j) + stall_ns) a;
        Int_tbl.replace index pe_index (Array.map fst a, sums))
      by_pe;
    Array.map
      (fun x ->
        match Int_tbl.find_opt index x.x_pe_index with
        | None -> x
        | Some (times, sums) ->
            let n = Array.length times in
            let lo = search n (Array.get times) x.x_dispatched_ns in
            let hi = search ~strict:true n (Array.get times) x.x_completed_ns in
            if hi <= lo then x else { x with x_stall_ns = sums.(hi) - sums.(lo) })
      arr
  end

(* A schedule sink already holds the fold of its log; any other sink's
   retained events are replayed into one, so live and reloaded logs
   share that single fold.  The makespan is the latest timestamp: the
   engine reports the WM-observed completion of the last instance,
   which trails the last task completion by the final sweep's overhead
   charge, and the last event in the log — the WM tick of that sweep —
   carries exactly that time. *)
let rec of_sink sink =
  match Obs.Sink.recording sink with
  | None -> of_events (Obs.Sink.events sink)
  | Some r ->
      {
        a_tasks = attribute_stalls r.Obs.rc_stalls r.Obs.rc_tasks;
        a_makespan_ns = r.Obs.rc_latest_ns;
        a_inject_ns = r.Obs.rc_injected;
      }

and of_events events =
  let sink = Obs.Sink.schedule () in
  List.iter (fun { Obs.t_ns; body } -> Obs.Sink.emit sink t_ns body) events;
  of_sink sink

let tasks t = Array.to_list t.a_tasks
let makespan_ns t = t.a_makespan_ns

(* ------------------------------------------------------------------ *)
(* Critical path                                                       *)
(* ------------------------------------------------------------------ *)

type edge = Injection | Dependency | Resource

let edge_name = function
  | Injection -> "injection"
  | Dependency -> "dependency"
  | Resource -> "resource"

type step = {
  s_task : task_exec;
  s_edge : edge;
  s_gap_ns : int;  (** predecessor completion (or t=0) to dispatch *)
  s_service_ns : int;
  s_slack_ns : int;  (** margin before the next-latest constraint binds *)
}

type critical_path = {
  cp_steps : step list;
  cp_length_ns : int;
  cp_gap_ns : int;
  cp_service_ns : int;
  cp_observe_ns : int;
  cp_dma_ns : int;
  cp_stall_ns : int;
  cp_dma_frac : float;
}

let empty_path =
  {
    cp_steps = [];
    cp_length_ns = 0;
    cp_gap_ns = 0;
    cp_service_ns = 0;
    cp_observe_ns = 0;
    cp_dma_ns = 0;
    cp_stall_ns = 0;
    cp_dma_frac = 0.0;
  }

(* Walk the realized schedule backwards from the last completion.  At
   each task the binding constraint on its start is either
   - a {e resource} edge: it waited for its PE (dispatch after ready),
     bound by the latest same-PE completion inside [ready, dispatched];
   - a {e dependency} edge: it became ready the instant a same-instance
     predecessor completed; or
   - {e injection}: nothing earlier constrains it (chain start).
   Each step's [dispatch] is at or after its predecessor's completion,
   so gaps and services partition [0, last completion]; the terminal
   observation segment (the final WM sweep's overhead, up to the
   reported makespan) is charged separately, making the path length
   equal the run's makespan by construction.

   Ties: the latest completion binds, and among equal completions the
   lowest task id (then the earliest log position).  Lookups are binary
   searches in the task's instance or PE group, sorted by (completion,
   task id, log position) — exactly those tie-breaks — so each backward
   step does bounded work however long the log is. *)
let critical_path t =
  let n = Array.length t.a_tasks in
  if n = 0 then empty_path
  else begin
    let tsk i = t.a_tasks.(i) in
    let c k = t.a_tasks.(k).x_completed_ns in
    let best = ref 0 in
    Array.iteri
      (fun i x ->
        let b = tsk !best in
        if
          x.x_completed_ns > b.x_completed_ns
          || (x.x_completed_ns = b.x_completed_ns && x.x_task < b.x_task)
        then best := i)
      t.a_tasks;
    let order a b =
      let xa = tsk a and xb = tsk b in
      if xa.x_completed_ns <> xb.x_completed_ns then compare xa.x_completed_ns xb.x_completed_ns
      else compare xa.x_task xb.x_task
    in
    (* [index key i]: the group of tasks sharing task [i]'s [key], sorted
       by [order] (stably, so log position breaks the remaining ties).
       The tasks are bucketed by [key] in one pass the first time a
       group is needed, and each group is sorted on first use. *)
    let index (key : task_exec -> int) =
      let buckets =
        lazy
          (let tbl = Int_tbl.create 64 in
           for k = n - 1 downto 0 do
             let g = key (tsk k) in
             match Int_tbl.find_opt tbl g with
             | Some ks -> ks := k :: !ks
             | None -> Int_tbl.add tbl g (ref [ k ])
           done;
           tbl)
      in
      let groups = Int_tbl.create 16 in
      fun i ->
        let g = key (tsk i) in
        match Int_tbl.find_opt groups g with
        | Some group -> group
        | None ->
            let group = Array.of_list !(Int_tbl.find (Lazy.force buckets) g) in
            (* Engine logs list each PE's completions in order, so PE
               groups usually arrive sorted. *)
            let in_order = ref true in
            for p = 1 to Array.length group - 1 do
              if order group.(p - 1) group.(p) > 0 then in_order := false
            done;
            if not !in_order then Array.stable_sort order group;
            Int_tbl.add groups g group;
            group
    in
    let by_instance = index (fun x -> x.x_instance) and by_pe = index (fun x -> x.x_pe_index) in
    (* First position in [g] whose completion is >= [v] ([strict]: > [v]). *)
    let search ?strict g v = search ?strict (Array.length g) (fun p -> c g.(p)) v in
    (* The task at position [p] of [g], or -1 off either end. *)
    let at g p = if p >= 0 && p < Array.length g then g.(p) else -1 in
    (* The last position at or before [p] not holding task [i]. *)
    let before g p i = if p >= 0 && g.(p) = i then p - 1 else p in
    let visited = Array.make n false in
    (* (index, edge, predecessor index option), forward order: consing
       while walking backwards reverses the walk. *)
    let chain = ref [] in
    let rec back i =
      visited.(i) <- true;
      let x = tsk i in
      let res =
        if x.x_dispatched_ns <= x.x_ready_ns then -1
        else
          let g = by_pe i in
          let hi = at g (before g (search ~strict:true g x.x_dispatched_ns - 1) i) in
          if hi < 0 || c hi < x.x_ready_ns then -1
          else
            let lo = search g (c hi) in
            if g.(lo) = i then g.(lo + 1) else g.(lo)
      in
      let dep () =
        let g = by_instance i in
        let p = search g x.x_ready_ns in
        let k = if at g p = i then at g (p + 1) else at g p in
        if k >= 0 && c k = x.x_ready_ns then k else -1
      in
      let pick =
        if res >= 0 then Some (res, Resource)
        else
          let d = dep () in
          if d >= 0 then Some (d, Dependency) else None
      in
      match pick with
      | Some (p, edge) when not visited.(p) ->
          chain := (i, edge, Some p) :: !chain;
          back p
      | _ -> chain := (i, Injection, None) :: !chain
    in
    back !best;
    let inject_ns inst = Option.value ~default:0 (Hashtbl.find_opt t.a_inject_ns inst) in
    let slack_of i edge pred =
      let x = tsk i in
      match (edge, pred) with
      | Injection, _ -> 0
      | Dependency, _ ->
          (* How much earlier the binding predecessor could have
             finished before the next-latest same-instance completion
             (or the injection itself) becomes the binding constraint. *)
          let g = by_instance i in
          let k = at g (before g (search g x.x_ready_ns - 1) i) in
          let alt = inject_ns x.x_instance in
          x.x_ready_ns - if k >= 0 then max alt (c k) else alt
      | Resource, Some pr ->
          (* [pr] itself completes at [pc], so the search skips it. *)
          let pc = c pr in
          let g = by_pe i in
          let k = at g (before g (search g pc - 1) i) in
          pc - if k >= 0 && c k >= x.x_ready_ns then c k else x.x_ready_ns
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
    let observe = max 0 (t.a_makespan_ns - (tsk !best).x_completed_ns) in
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

(* ------------------------------------------------------------------ *)
(* Utilization / occupancy                                             *)
(* ------------------------------------------------------------------ *)

(* PE class = label with the trailing instance digits stripped
   ("cpu0" -> "cpu", "fft2" -> "fft"); mirrors [Stats.pe_kind]. *)
let pe_class label =
  let n = String.length label in
  let rec stem i = if i > 0 && label.[i - 1] >= '0' && label.[i - 1] <= '9' then stem (i - 1) else i in
  let k = stem n in
  if k = 0 then label else String.sub label 0 k

(* Busy (service) time per observed PE, as a fraction of makespan.
   Only PEs that completed at least one task appear in the log, so an
   idle PE simply does not show up (its utilization is 0). *)
let utilization t =
  if t.a_makespan_ns <= 0 then []
  else begin
    let tbl = Hashtbl.create 8 in
    Array.iter
      (fun x ->
        let busy = Option.value ~default:0 (Hashtbl.find_opt tbl (x.x_pe_index, x.x_pe)) in
        Hashtbl.replace tbl (x.x_pe_index, x.x_pe)
          (busy + (x.x_completed_ns - x.x_dispatched_ns)))
      t.a_tasks;
    Hashtbl.fold (fun (idx, pe) busy acc -> (idx, pe, busy) :: acc) tbl []
    |> List.sort compare
    |> List.map (fun (_, pe, busy) ->
           (pe, float_of_int busy /. float_of_int t.a_makespan_ns))
  end

let utilization_by_class t =
  let tbl = Hashtbl.create 4 in
  let order = ref [] in
  List.iter
    (fun (pe, u) ->
      let c = pe_class pe in
      match Hashtbl.find_opt tbl c with
      | Some (sum, n) -> Hashtbl.replace tbl c (sum +. u, n + 1)
      | None ->
          order := c :: !order;
          Hashtbl.replace tbl c (u, 1))
    (utilization t);
  List.rev_map
    (fun c ->
      let sum, n = Hashtbl.find tbl c in
      (c, sum /. float_of_int n))
    !order

(* Step series of concurrently running tasks per PE class: +1 at each
   dispatch, -1 at each completion, collapsed per timestamp. *)
let occupancy_by_class t =
  let tbl = Hashtbl.create 4 in
  let order = ref [] in
  let push c delta =
    match Hashtbl.find_opt tbl c with
    | Some v -> Vec.push v delta
    | None ->
        let v = Vec.create () in
        Vec.push v delta;
        order := c :: !order;
        Hashtbl.replace tbl c v
  in
  Array.iter
    (fun x ->
      let c = pe_class x.x_pe in
      push c (x.x_dispatched_ns, 1);
      push c (x.x_completed_ns, -1))
    t.a_tasks;
  List.rev_map
    (fun c ->
      let deltas = List.sort compare (Vec.to_list (Hashtbl.find tbl c)) in
      let series = ref [] and level = ref 0 in
      List.iter
        (fun (tm, d) ->
          level := !level + d;
          match !series with
          | (t0, _) :: rest when t0 = tm -> series := (tm, !level) :: rest
          | _ -> series := (tm, !level) :: !series)
        deltas;
      (c, List.rev !series))
    !order

(* ------------------------------------------------------------------ *)
(* Queueing-delay breakdown                                            *)
(* ------------------------------------------------------------------ *)

type dist = {
  d_n : int;
  d_mean_us : float;
  d_p50_us : float;
  d_p95_us : float;
  d_max_us : float;
}

type queueing = { q_wait : dist; q_service : dist; q_stall : dist }

let dist_of_ns xs =
  let n = Array.length xs in
  if n = 0 then { d_n = 0; d_mean_us = 0.0; d_p50_us = 0.0; d_p95_us = 0.0; d_max_us = 0.0 }
  else begin
    let us = Array.map (fun v -> float_of_int v /. 1e3) xs in
    {
      d_n = n;
      d_mean_us = Quantile.mean us;
      d_p50_us = Quantile.median us;
      d_p95_us = Quantile.quantile us 0.95;
      d_max_us = Quantile.max us;
    }
  end

let queueing t =
  let wait = Array.map (fun x -> x.x_dispatched_ns - x.x_ready_ns) t.a_tasks in
  let service = Array.map (fun x -> x.x_completed_ns - x.x_dispatched_ns) t.a_tasks in
  let stall = Array.map (fun x -> x.x_stall_ns) t.a_tasks in
  { q_wait = dist_of_ns wait; q_service = dist_of_ns service; q_stall = dist_of_ns stall }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let us ns = float_of_int ns /. 1e3

let pp fmt t =
  let cp = critical_path t in
  Format.fprintf fmt "== analysis ==@.";
  Format.fprintf fmt "  tasks %d  makespan %.1f us@." (Array.length t.a_tasks)
    (us t.a_makespan_ns);
  Format.fprintf fmt
    "  critical path: %d steps, %.1f us = wait %.1f us + service %.1f us + observe %.1f us \
     (dma %.1f%%, fabric stall %.1f us)@."
    (List.length cp.cp_steps) (us cp.cp_length_ns) (us cp.cp_gap_ns)
    (us cp.cp_service_ns) (us cp.cp_observe_ns)
    (cp.cp_dma_frac *. 100.0)
    (us cp.cp_stall_ns);
  List.iteri
    (fun i s ->
      Format.fprintf fmt
        "    %2d  %-10s %-18s %-12s %-6s gap %8.1f  dur %8.1f  slack %8.1f us@." i
        (edge_name s.s_edge)
        (Printf.sprintf "%s/%d" s.s_task.x_app s.s_task.x_instance)
        s.s_task.x_node s.s_task.x_pe (us s.s_gap_ns) (us s.s_service_ns)
        (us s.s_slack_ns))
    cp.cp_steps;
  (match utilization_by_class t with
  | [] -> ()
  | classes ->
      Format.fprintf fmt "  utilization:";
      List.iter (fun (c, u) -> Format.fprintf fmt " %s %.1f%%" c (u *. 100.0)) classes;
      Format.fprintf fmt "@.");
  let q = queueing t in
  let line name d =
    Format.fprintf fmt "    %-8s n %d  mean %8.1f  p50 %8.1f  p95 %8.1f  max %8.1f us@."
      name d.d_n d.d_mean_us d.d_p50_us d.d_p95_us d.d_max_us
  in
  Format.fprintf fmt "  queueing breakdown:@.";
  line "wait" q.q_wait;
  line "service" q.q_service;
  line "stall" q.q_stall

let dist_json d =
  Json.obj
    [
      ("n", Json.int d.d_n);
      ("mean_us", Json.float d.d_mean_us);
      ("p50_us", Json.float d.d_p50_us);
      ("p95_us", Json.float d.d_p95_us);
      ("max_us", Json.float d.d_max_us);
    ]

let to_json t =
  let cp = critical_path t in
  let q = queueing t in
  Json.obj
    [
      ("tasks", Json.int (Array.length t.a_tasks));
      ("makespan_ns", Json.int t.a_makespan_ns);
      ( "critical_path",
        Json.obj
          [
            ("length_ns", Json.int cp.cp_length_ns);
            ("gap_ns", Json.int cp.cp_gap_ns);
            ("service_ns", Json.int cp.cp_service_ns);
            ("observe_ns", Json.int cp.cp_observe_ns);
            ("dma_ns", Json.int cp.cp_dma_ns);
            ("stall_ns", Json.int cp.cp_stall_ns);
            ("dma_frac", Json.float cp.cp_dma_frac);
            ( "steps",
              Json.list
                (List.map
                   (fun s ->
                     Json.obj
                       [
                         ("task", Json.int s.s_task.x_task);
                         ("instance", Json.int s.s_task.x_instance);
                         ("app", Json.str s.s_task.x_app);
                         ("node", Json.str s.s_task.x_node);
                         ("pe", Json.str s.s_task.x_pe);
                         ("edge", Json.str (edge_name s.s_edge));
                         ("dispatched_ns", Json.int s.s_task.x_dispatched_ns);
                         ("completed_ns", Json.int s.s_task.x_completed_ns);
                         ("gap_ns", Json.int s.s_gap_ns);
                         ("service_ns", Json.int s.s_service_ns);
                         ("slack_ns", Json.int s.s_slack_ns);
                       ])
                   cp.cp_steps) );
          ] );
      ( "utilization",
        Json.obj (List.map (fun (c, u) -> (c, Json.float u)) (utilization_by_class t)) );
      ( "occupancy",
        Json.obj
          (List.map
             (fun (c, series) ->
               ( c,
                 Json.list
                   (List.map
                      (fun (tm, lvl) -> Json.list [ Json.int tm; Json.int lvl ])
                      series) ))
             (occupancy_by_class t)) );
      ( "queueing",
        Json.obj
          [
            ("wait", dist_json q.q_wait);
            ("service", dist_json q.q_service);
            ("stall", dist_json q.q_stall);
          ] );
    ]
