module Host = Dssoc_soc.Host
module Config = Dssoc_soc.Config
module Fabric = Dssoc_soc.Fabric
module Obs = Dssoc_obs.Obs
module Core = Engine_core

(* Event kinds; [a]/[b] are the kind's two int payloads. *)
let ev_start = 0 (* a = thread *)
let ev_resume = 1 (* a = thread *)
let ev_server = 2 (* a = server, b = its version when armed *)
let ev_deadline = 3 (* a = thread, b = its wait generation when armed *)

(* One heap entry is [stride] consecutive ints: time, seq, kind, a, b. *)
let stride = 5

type t = {
  now : int ref;
  mutable heap : int array;
  mutable len : int;
  mutable seq : int;
  (* per thread *)
  gen : int array;
  resumed : bool array;
  pending : bool array;
  waiting : bool array;
  thread_core : int array;
  (* Servers: the host cores, then (bus only) the fabric link.  A
     server runs its [njobs.(s)] jobs processor-sharing style; [rem]
     is each job's full-rate work left, [owner] its thread. *)
  rate1 : float array;  (** contended efficiency: [q/(q+s)] per core, [1.0] for the link *)
  last : int array;  (** time of the last progress update *)
  version : int array;  (** invalidates stale completion events *)
  njobs : int array;
  rem : float array array;
  owner : int array array;
  finished : int array;  (** scratch: threads done in one event *)
  link : int;  (** server index of the fabric link; [-1] under [Ideal] *)
  fifo : int;
  queue : int Queue.t;  (** stalled streams' threads, arrival order *)
  q_t0 : int array;  (** per thread: enqueue time, demand, bytes *)
  q_dem : int array;
  q_bytes : int array;
  counters : Core.fabric_counters;
  obs : Obs.t;
  traced : bool;
  stall_hist : Obs.Metrics.histogram option;
  occupancy : Obs.Metrics.gauge option;
  depth_gauge : Obs.Metrics.gauge option;
}

let create ?(obs = Obs.disabled) ~clock0 (config : Config.t) =
  let n_pes = List.length config.Config.placements in
  let n_thr = n_pes + 1 in
  let cores = ref [ config.Config.host.Host.overlay ] in
  let core_index (c : Host.core) =
    let rec go i = function
      | [] ->
        cores := !cores @ [ c ];
        i
      | (x : Host.core) :: tl -> if x.Host.core_id = c.Host.core_id then i else go (i + 1) tl
    in
    go 0 !cores
  in
  let thread_core = Array.make n_thr 0 in
  List.iteri
    (fun i (p : Config.placement) -> thread_core.(i) <- core_index p.Config.host_core)
    config.Config.placements;
  (* Round-robin efficiency of a contended core; the arbitrated link
     has no context-switch discount. *)
  let rate1 =
    List.map
      (fun (c : Host.core) ->
        let q = float_of_int c.Host.quantum_ns in
        q /. (q +. float_of_int c.Host.ctx_switch_ns))
      !cores
  in
  let bus = match config.Config.fabric with Fabric.Bus b -> Some b | Fabric.Ideal -> None in
  let rate1 = Array.of_list (if Option.is_some bus then rate1 @ [ 1.0 ] else rate1) in
  let n_srv = Array.length rate1 in
  let metrics = Obs.metrics obs in
  let bus_metric register =
    match (bus, metrics) with Some _, Some m -> Some (register m) | _ -> None
  in
  let stall_hist = bus_metric (fun m -> Obs.Metrics.histogram m "fabric_stall_ns") in
  let occupancy = bus_metric (fun m -> Obs.Metrics.gauge m "fabric_occupancy") in
  let depth_gauge = Option.map (fun m -> Obs.Metrics.gauge m "event_heap_depth") metrics in
  {
    now = ref clock0;
    heap = Array.make (1024 * stride) 0;
    len = 0;
    seq = 0;
    gen = Array.make n_thr 0;
    resumed = Array.make n_thr true;
    pending = Array.make n_thr false;
    waiting = Array.make n_thr false;
    thread_core;
    rate1;
    last = Array.make n_srv 0;
    version = Array.make n_srv 0;
    njobs = Array.make n_srv 0;
    rem = Array.init n_srv (fun _ -> Array.make n_thr 0.0);
    owner = Array.init n_srv (fun _ -> Array.make n_thr 0);
    finished = Array.make n_thr 0;
    link = (if Option.is_some bus then n_srv - 1 else -1);
    fifo = (match bus with Some b -> b.Fabric.fifo_depth | None -> max_int);
    queue = Queue.create ();
    q_t0 = Array.make n_thr 0;
    q_dem = Array.make n_thr 0;
    q_bytes = Array.make n_thr 0;
    counters = Core.make_fabric_counters ();
    obs;
    traced = Obs.enabled obs;
    stall_hist;
    occupancy;
    depth_gauge;
  }

let clock d = d.now
let counters d = d.counters
let depth d = d.len

(* ---- the event heap, ordered by (time, seq) ---- *)

(* Entry [i] precedes the (time, seq) key [t, q]. *)
let before (h : int array) i t q =
  let ti = h.(i * stride) in
  ti < t || (ti = t && h.((i * stride) + 1) < q)

let move (h : int array) ~src ~dst =
  let s = src * stride and o = dst * stride in
  h.(o) <- h.(s);
  h.(o + 1) <- h.(s + 1);
  h.(o + 2) <- h.(s + 2);
  h.(o + 3) <- h.(s + 3);
  h.(o + 4) <- h.(s + 4)

let push d t kind a b =
  if (d.len + 1) * stride > Array.length d.heap then begin
    let bigger = Array.make (2 * Array.length d.heap) 0 in
    Array.blit d.heap 0 bigger 0 (d.len * stride);
    d.heap <- bigger
  end;
  let t = if t < !(d.now) then !(d.now) else t in
  let h = d.heap and i = ref d.len in
  (* The newest entry has the largest seq, so it only passes parents
     with a strictly later time. *)
  while !i > 0 && h.((!i - 1) / 2 * stride) > t do
    move h ~src:((!i - 1) / 2) ~dst:!i;
    i := (!i - 1) / 2
  done;
  let o = !i * stride in
  h.(o) <- t;
  h.(o + 1) <- d.seq;
  h.(o + 2) <- kind;
  h.(o + 3) <- a;
  h.(o + 4) <- b;
  d.seq <- d.seq + 1;
  d.len <- d.len + 1

(* Drop the root: the last entry sifts down from the root's slot. *)
let pop_root d =
  let h = d.heap in
  d.len <- d.len - 1;
  let last = d.len in
  if last > 0 then begin
    let t = h.(last * stride) and q = h.((last * stride) + 1) in
    let i = ref 0 and continue_ = ref true in
    while !continue_ do
      let l = (2 * !i) + 1 in
      let c =
        if l + 1 < last && before h (l + 1) h.(l * stride) h.((l * stride) + 1) then l + 1
        else l
      in
      if c < last && before h c t q then begin
        move h ~src:c ~dst:!i;
        i := c
      end
      else continue_ := false
    done;
    move h ~src:last ~dst:!i
  end

(* ---- thread wait state ---- *)

let suspend d th =
  d.resumed.(th) <- false;
  d.gen.(th) <- d.gen.(th) + 1

let resume d th =
  if not d.resumed.(th) then begin
    d.resumed.(th) <- true;
    push d !(d.now) ev_resume th 0
  end

let start d th = push d !(d.now) ev_start th 0

let signal d th =
  if d.waiting.(th) then begin
    d.waiting.(th) <- false;
    resume d th
  end
  else d.pending.(th) <- true

let await d th =
  if d.pending.(th) then begin
    d.pending.(th) <- false;
    false
  end
  else begin
    d.waiting.(th) <- true;
    suspend d th;
    true
  end

let await_until d th t =
  await d th
  && begin
    push d t ev_deadline th d.gen.(th);
    true
  end

let sleep d th ns =
  ns > 0
  && begin
    suspend d th;
    push d (!(d.now) + ns) ev_deadline th d.gen.(th);
    true
  end

(* ---- processor-shared servers ---- *)

let rate d s k = if k <= 1 then 1.0 else d.rate1.(s) /. float_of_int k

let advance d s =
  let elapsed = !(d.now) - d.last.(s) in
  if elapsed > 0 then begin
    let k = d.njobs.(s) in
    if k > 0 then begin
      let progress = float_of_int elapsed *. rate d s k and rem = d.rem.(s) in
      for j = 0 to k - 1 do
        rem.(j) <- rem.(j) -. progress
      done
    end;
    d.last.(s) <- !(d.now)
  end

(* Re-arm the server's one completion event for its earliest job. *)
let rearm d s =
  d.version.(s) <- d.version.(s) + 1;
  let k = d.njobs.(s) in
  if k > 0 then begin
    let rem = d.rem.(s) and mn = ref Float.infinity in
    for j = 0 to k - 1 do
      mn := Float.min !mn rem.(j)
    done;
    let dt = int_of_float (Float.ceil (Float.max 0.0 !mn /. rate d s k)) in
    push d (!(d.now) + dt) ev_server s d.version.(s)
  end

let enlist d s th ns =
  let k = d.njobs.(s) in
  d.rem.(s).(k) <- float_of_int ns;
  d.owner.(s).(k) <- th;
  d.njobs.(s) <- k + 1

let work d th ns =
  ns > 0
  && begin
    suspend d th;
    let s = d.thread_core.(th) in
    advance d s;
    enlist d s th ns;
    rearm d s;
    true
  end

(* ---- the fabric link ledger ---- *)

let admit d th ns ~bytes ~stall_ns =
  enlist d d.link th ns;
  let c = d.counters and k = d.njobs.(d.link) in
  c.Core.fc_stall_ns <- c.Core.fc_stall_ns + stall_ns;
  if k > c.Core.fc_max_inflight then c.Core.fc_max_inflight <- k;
  (match d.stall_hist with
  | Some h when stall_ns > 0 -> Obs.Metrics.observe h (float_of_int stall_ns)
  | _ -> ());
  if d.traced then
    Obs.on_stream_admitted d.obs ~now:!(d.now) ~pe_index:th ~bytes ~stall_ns ~inflight:k

let set_occupancy d =
  match d.occupancy with
  | Some g -> Obs.Metrics.set g ~t_ns:!(d.now) d.njobs.(d.link)
  | None -> ()

let stream d th ~bytes ns =
  ns > 0
  && begin
    suspend d th;
    let c = d.counters in
    c.Core.fc_streams <- c.Core.fc_streams + 1;
    if d.njobs.(d.link) < d.fifo then begin
      advance d d.link;
      admit d th ns ~bytes ~stall_ns:0;
      set_occupancy d;
      rearm d d.link
    end
    else begin
      c.Core.fc_stalls <- c.Core.fc_stalls + 1;
      if d.traced then
        Obs.on_stream_stalled d.obs ~now:!(d.now) ~pe_index:th ~bytes
          ~queued:(Queue.length d.queue + 1);
      d.q_t0.(th) <- !(d.now);
      d.q_dem.(th) <- ns;
      d.q_bytes.(th) <- bytes;
      Queue.add th d.queue
    end;
    true
  end

(* A server's armed completion: retire finished jobs (arrival order
   kept), let freed link slots admit stalled streams inline — one
   re-arm covers the whole batch — then wake the finished threads. *)
let server_event d s v =
  if v = d.version.(s) then begin
    advance d s;
    let rem = d.rem.(s) and owner = d.owner.(s) in
    let nf = ref 0 and w = ref 0 in
    for j = 0 to d.njobs.(s) - 1 do
      if rem.(j) <= 1e-6 then begin
        d.finished.(!nf) <- owner.(j);
        incr nf
      end
      else begin
        rem.(!w) <- rem.(j);
        owner.(!w) <- owner.(j);
        incr w
      end
    done;
    d.njobs.(s) <- !w;
    if s = d.link then begin
      while (not (Queue.is_empty d.queue)) && d.njobs.(s) < d.fifo do
        let th = Queue.pop d.queue in
        admit d th d.q_dem.(th) ~bytes:d.q_bytes.(th) ~stall_ns:(!(d.now) - d.q_t0.(th))
      done;
      set_occupancy d
    end;
    rearm d s;
    for j = 0 to !nf - 1 do
      resume d d.finished.(j)
    done
  end

let sample_depth d =
  match d.depth_gauge with
  | Some g -> Obs.Metrics.set g ~t_ns:!(d.now) d.len
  | None -> ()

let run d ~on_start ~on_resume =
  while d.len > 0 do
    let h = d.heap in
    let t = h.(0) and kind = h.(2) and a = h.(3) and b = h.(4) in
    pop_root d;
    if t > !(d.now) then d.now := t;
    if kind = ev_resume then on_resume a
    else if kind = ev_server then server_event d a b
    else if kind = ev_deadline then begin
      if b = d.gen.(a) && not d.resumed.(a) then begin
        d.waiting.(a) <- false;
        resume d a
      end
    end
    else on_start a
  done
