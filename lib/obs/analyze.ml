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

type task_exec = {
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

(* The fold keeps, per task id, a pending (ready, dispatched, DMA)
   triple from the task's first event to its completion.  Triples live
   in one flat array indexed by task id while ids stay within a small
   multiple of the events seen — the engines number tasks densely from
   0 — and in [far] otherwise, so a reloaded log with hostile ids
   (negative, or ~2^40) costs memory in proportion to its length, never
   to an id's value.  The flat triples are for speed: folding a
   29k-task fig10 log with every pending task in a hash table took
   twice as long, and allocated a record and a bucket per task. *)
type pending = {
  mutable dense : int array;  (* 3 ints per dense task id; 0 = none *)
  far : (int, int array) Hashtbl.t;  (* pending triples of other ids *)
  mutable seen : int;  (* events folded so far *)
}

(* Offset of [task]'s triple in [p.dense], growing the table to cover
   it while its id stays within four times the events seen (plus
   slack); -1 if the triple belongs in [far].  The table only grows
   while [far] is empty, so every id held in [far] stays outside it and
   no triple is ever split between the two. *)
let dense p task =
  let len = Array.length p.dense / 3 in
  if task >= 0 && task < len then 3 * task
  else if task >= len && task < 4 * (p.seen + 1024) && Hashtbl.length p.far = 0 then begin
    let a = Array.make (3 * max (task + 1) (2 * len)) 0 in
    Array.blit p.dense 0 a 0 (3 * len);
    p.dense <- a;
    3 * task
  end
  else -1

let far p task =
  match Hashtbl.find_opt p.far task with
  | Some a -> a
  | None ->
      let a = Array.make 3 0 in
      Hashtbl.replace p.far task a;
      a

(* Field [k] of [task]'s pending triple: 0 ready, 1 dispatched, 2 DMA. *)
let pending p task k =
  let i = dense p task in
  if i >= 0 then p.dense.(i + k) else (far p task).(k)

let set_pending p task k v =
  let i = dense p task in
  if i >= 0 then p.dense.(i + k) <- v else (far p task).(k) <- v

(* A completion finalizes the task's triple and forgets it.  The
   makespan is the latest timestamp: the engine reports the
   WM-observed completion of the last instance, which trails the last
   task completion by the final sweep's overhead charge, and the last
   event in the log — the WM tick of that sweep — carries exactly that
   time. *)
let of_events events =
  let p = { dense = [||]; far = Hashtbl.create 8; seen = 0 } in
  let finished = Vec.create () and injected = Hashtbl.create 64 in
  let stalls = ref [] and latest = ref 0 in
  List.iter
    (fun { Obs.t_ns; body } ->
      p.seen <- p.seen + 1;
      if t_ns > !latest then latest := t_ns;
      match body with
      | Obs.Task_ready { task; _ } -> set_pending p task 0 t_ns
      | Obs.Task_dispatched { task; _ } -> set_pending p task 1 t_ns
      | Obs.Phase { task; phase = Obs.Dma_in | Obs.Dma_out; dur_ns; _ } ->
          set_pending p task 2 (pending p task 2 + dur_ns)
      | Obs.Task_completed { task; instance; app; node; pe; pe_index; _ } ->
          let i = dense p task in
          let a = if i >= 0 then p.dense else far p task and o = max i 0 in
          Vec.push finished
            {
              x_task = task;
              x_instance = instance;
              x_app = app;
              x_node = node;
              x_pe = pe;
              x_pe_index = pe_index;
              x_ready_ns = a.(o);
              x_dispatched_ns = a.(o + 1);
              x_completed_ns = t_ns;
              x_dma_ns = a.(o + 2);
              x_stall_ns = 0;
            };
          if i >= 0 then Array.fill p.dense i 3 0 else Hashtbl.remove p.far task
      | Obs.Instance_injected { instance; _ } ->
          if not (Hashtbl.mem injected instance) then Hashtbl.replace injected instance t_ns
      | Obs.Stream_admitted { pe_index; stall_ns; _ } when stall_ns > 0 ->
          stalls := (t_ns, pe_index, stall_ns) :: !stalls
      | _ -> ())
    events;
  {
    a_tasks = attribute_stalls !stalls (Vec.to_array finished);
    a_makespan_ns = !latest;
    a_inject_ns = injected;
  }

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

type 'r fields = {
  f_task : 'r -> int;
  f_instance : 'r -> int;
  f_pe_index : 'r -> int;
  f_ready_ns : 'r -> int;
  f_dispatched_ns : 'r -> int;
  f_completed_ns : 'r -> int;
  f_dma_ns : 'r -> int;
  f_stall_ns : 'r -> int;
}

type 'r step_of = {
  s_task : 'r;
  s_edge : edge;
  s_gap_ns : int;  (** predecessor completion (or t=0) to dispatch *)
  s_service_ns : int;
  s_slack_ns : int;  (** margin before the next-latest constraint binds *)
}

type step = task_exec step_of

type 'r path = {
  cp_steps : 'r step_of list;
  cp_length_ns : int;
  cp_gap_ns : int;
  cp_service_ns : int;
  cp_observe_ns : int;
  cp_dma_ns : int;
  cp_stall_ns : int;
  cp_dma_frac : float;
}

type critical_path = task_exec path

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
   lowest task id (then the earliest position in [a]).  Lookups are
   binary searches in the task's instance or PE group, sorted by
   (completion, task id, position) — exactly those tie-breaks — so each
   backward step does bounded work however long the schedule is. *)
let walk (f : 'r fields) (a : int -> 'r) n ~makespan_ns ~inject_ns =
  if n = 0 then empty_path
  else begin
    let c k = f.f_completed_ns (a k) and id k = f.f_task (a k) in
    let best = ref 0 in
    for i = 1 to n - 1 do
      if c i > c !best || (c i = c !best && id i < id !best) then best := i
    done;
    let order i j = if c i <> c j then compare (c i) (c j) else compare (id i) (id j) in
    (* [index key i]: the group of tasks sharing task [i]'s [key], sorted
       by [order] (stably, so position breaks the remaining ties).  The
       tasks are bucketed by [key] in one pass the first time a group is
       needed, and each group is sorted on first use. *)
    let index (key : 'r -> int) =
      let buckets =
        lazy
          (let tbl = Int_tbl.create 64 in
           for k = n - 1 downto 0 do
             let g = key (a k) in
             match Int_tbl.find_opt tbl g with
             | Some ks -> ks := k :: !ks
             | None -> Int_tbl.add tbl g (ref [ k ])
           done;
           tbl)
      in
      let groups = Int_tbl.create 16 in
      fun i ->
        let g = key (a i) in
        match Int_tbl.find_opt groups g with
        | Some group -> group
        | None ->
            let group = Array.of_list !(Int_tbl.find (Lazy.force buckets) g) in
            (* Engines list each PE's completions in order, so PE groups
               usually arrive sorted. *)
            let in_order = ref true in
            for p = 1 to Array.length group - 1 do
              if order group.(p - 1) group.(p) > 0 then in_order := false
            done;
            if not !in_order then Array.stable_sort order group;
            Int_tbl.add groups g group;
            group
    in
    let by_instance = index f.f_instance and by_pe = index f.f_pe_index in
    (* First position in [g] whose completion is >= [v] ([strict]: > [v]). *)
    let search ?strict g v = search ?strict (Array.length g) (fun p -> c g.(p)) v in
    (* The task at position [p] of [g], or -1 off either end. *)
    let at g p = if p >= 0 && p < Array.length g then g.(p) else -1 in
    (* The last position at or before [p] not holding task [i]. *)
    let before g p i = if p >= 0 && g.(p) = i then p - 1 else p in
    let ready i = f.f_ready_ns (a i) and dispatched i = f.f_dispatched_ns (a i) in
    let visited = Array.make n false in
    (* (index, edge, predecessor index option), forward order: consing
       while walking backwards reverses the walk. *)
    let chain = ref [] in
    let rec back i =
      visited.(i) <- true;
      let res =
        if dispatched i <= ready i then -1
        else
          let g = by_pe i in
          let hi = at g (before g (search ~strict:true g (dispatched i) - 1) i) in
          if hi < 0 || c hi < ready i then -1
          else
            let lo = search g (c hi) in
            if g.(lo) = i then g.(lo + 1) else g.(lo)
      in
      let dep () =
        let g = by_instance i in
        let p = search g (ready i) in
        let k = if at g p = i then at g (p + 1) else at g p in
        if k >= 0 && c k = ready i then k else -1
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
    let slack_of i edge pred =
      match (edge, pred) with
      | Injection, _ -> 0
      | Dependency, _ ->
          (* How much earlier the binding predecessor could have
             finished before the next-latest same-instance completion
             (or the injection itself) becomes the binding constraint. *)
          let g = by_instance i in
          let k = at g (before g (search g (ready i) - 1) i) in
          let alt = inject_ns (f.f_instance (a i)) in
          ready i - if k >= 0 then max alt (c k) else alt
      | Resource, Some pr ->
          (* [pr] itself completes at [pc], so the search skips it. *)
          let pc = c pr in
          let g = by_pe i in
          let k = at g (before g (search g pc - 1) i) in
          pc - if k >= 0 && c k >= ready i then c k else ready i
      | Resource, None -> 0
    in
    let prev_end = ref 0 in
    let steps =
      List.map
        (fun (i, edge, pred) ->
          let gap = max 0 (dispatched i - !prev_end) in
          prev_end := c i;
          {
            s_task = a i;
            s_edge = edge;
            s_gap_ns = gap;
            s_service_ns = c i - dispatched i;
            s_slack_ns = slack_of i edge pred;
          })
        !chain
    in
    let sum g = List.fold_left (fun acc s -> acc + g s) 0 steps in
    let gap = sum (fun s -> s.s_gap_ns) and service = sum (fun s -> s.s_service_ns) in
    let dma = sum (fun s -> f.f_dma_ns s.s_task) and stall = sum (fun s -> f.f_stall_ns s.s_task) in
    let observe = max 0 (makespan_ns - c !best) in
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

let path f a ~makespan_ns ?(inject_ns = fun _ -> 0) () =
  walk f (Array.get a) (Array.length a) ~makespan_ns ~inject_ns

let path_rows f n ~makespan_ns ?(inject_ns = fun _ -> 0) () =
  walk f Fun.id n ~makespan_ns ~inject_ns

let exec_fields =
  {
    f_task = (fun x -> x.x_task);
    f_instance = (fun x -> x.x_instance);
    f_pe_index = (fun x -> x.x_pe_index);
    f_ready_ns = (fun x -> x.x_ready_ns);
    f_dispatched_ns = (fun x -> x.x_dispatched_ns);
    f_completed_ns = (fun x -> x.x_completed_ns);
    f_dma_ns = (fun x -> x.x_dma_ns);
    f_stall_ns = (fun x -> x.x_stall_ns);
  }

let critical_path t =
  path exec_fields t.a_tasks ~makespan_ns:t.a_makespan_ns
    ~inject_ns:(fun inst -> Option.value ~default:0 (Hashtbl.find_opt t.a_inject_ns inst))
    ()

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
