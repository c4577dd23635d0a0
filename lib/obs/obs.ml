module Vec = Dssoc_util.Vec
module Quantile = Dssoc_stats.Quantile
module Json = Dssoc_json.Json

type phase = Dma_in | Device_compute | Dma_out

let phase_name = function
  | Dma_in -> "dma_in"
  | Device_compute -> "compute"
  | Dma_out -> "dma_out"

type body =
  | Instance_injected of { instance : int; app : string }
  | Task_ready of { task : int; instance : int; app : string; node : string }
  | Task_dispatched of {
      task : int;
      instance : int;
      app : string;
      node : string;
      pe : string;
      pe_index : int;
      wait_ns : int;
    }
  | Task_completed of {
      task : int;
      instance : int;
      app : string;
      node : string;
      pe : string;
      pe_index : int;
      service_ns : int;
    }
  | Sched_invoked of {
      ready : int;
      examined : int;
      ops : int;
      cost_ns : int;
      assigned : int;
    }
  | Reservation_enqueued of { pe_index : int; depth : int }
  | Reservation_popped of { pe_index : int; depth : int }
  | Phase of {
      task : int;
      pe_index : int;
      phase : phase;
      start_ns : int;
      dur_ns : int;
    }
  | Wm_tick of { completions : int; injected : int }
  | Fault_injected of {
      task : int;
      pe : string;
      pe_index : int;
      fault : string;
      attempt : int;
    }
  | Task_failed of {
      task : int;
      instance : int;
      app : string;
      node : string;
      pe : string;
      pe_index : int;
      fault : string;
      attempt : int;
    }
  | Task_retried of {
      task : int;
      instance : int;
      app : string;
      node : string;
      attempt : int;
      backoff_ns : int;
    }
  | Pe_quarantined of { pe : string; pe_index : int; until_ns : int; permanent : bool }
  | Pe_recovered of { pe : string; pe_index : int }
  | Stream_stalled of { pe_index : int; bytes : int; queued : int }
  | Stream_admitted of { pe_index : int; bytes : int; stall_ns : int; inflight : int }
  | Tenant_admitted of { tenant : string; instance : int; queue_depth : int }
  | Tenant_shed of { tenant : string; instance : int; queue_depth : int }
  | Instance_timed_out of { tenant : string; instance : int; age_ns : int }
  | Checkpoint_written of { path : string; instances_done : int }

type event = { t_ns : int; body : body }

module Sink = struct
  (* The event log stores events decomposed into flat arrays — a packed
     timestamp+tag word, up to five int fields, up to four string
     fields per slot — instead of retaining the body records passed to
     [emit].  The records themselves are transient (they die in the
     minor heap); a log of live records would promote every recorded
     body to the major heap, and that promotion traffic, not the
     stores, dominated traced-run cost.  [events] re-materializes
     records lazily on the cold path.

     The log is append-only and grows in blocks of [block_slots]
     slots; it never wraps and never drops an event.  The writers fill
     the current block through the recorder's mutable array fields, so
     a write costs a "block full" test and the stores.

     The engines' task events carry no strings: a run registers its
     (app, node) names once ({!name_nodes}) and each event stores the
     name's number in its fifth int field, from which [decode] reads
     the app, the node and (through the PE index) the PE: a string
     stored into a block pays a write barrier, and the hooks paid three
     per task event.  Task events handed to [emit] keep their strings
     in the string fields, with number [-1]. *)

  let istride = 5
  let sstride = 4
  let block_slots = 4096

  type block = { b_meta : int array; b_ints : int array; b_strs : string array }

  (* One registered (app, node) with the PE labels of its run. *)
  type name = { n_app : string; n_node : string; n_pes : string array }

  let new_block () =
    {
      b_meta = Array.make block_slots 0;
      b_ints = Array.make (block_slots * istride) 0;
      b_strs = Array.make (block_slots * sstride) "";
    }

  type recorder = {
    blocks : block Vec.t;  (* every block allocated, in log order *)
    mutable cur : int;  (* index of the block being written *)
    mutable meta : int array;  (* block [cur]: (t_ns lsl 5) lor tag *)
    mutable ints : int array;  (* block [cur]: [istride] int fields per slot *)
    mutable strs : string array;  (* block [cur]: [sstride] string fields per slot *)
    mutable head : int;  (* next write slot in block [cur] *)
    names : name Vec.t;  (* registered names, by number *)
    mutable bases : int array;  (* each class's first name number *)
    lock : Mutex.t;
    mutable concurrent : bool;  (* emitters on several domains? *)
  }

  type t = Null | Ring of recorder

  let null = Null

  (* Makes block [i] the one being written, from its first slot. *)
  let enter r i =
    let b = Vec.get r.blocks i in
    r.cur <- i;
    r.meta <- b.b_meta;
    r.ints <- b.b_ints;
    r.strs <- b.b_strs;
    r.head <- 0

  let ring ?(capacity = block_slots) () =
    if capacity <= 0 then invalid_arg "Obs.Sink.ring: capacity must be positive";
    let blocks = Vec.create () in
    for _ = 1 to (capacity + block_slots - 1) / block_slots do
      Vec.push blocks (new_block ())
    done;
    let r =
      { blocks; cur = 0; meta = [||]; ints = [||]; strs = [||]; head = 0;
        names = Vec.create (); bases = [||]; lock = Mutex.create (); concurrent = false }
    in
    enter r 0;
    Ring r

  let is_null = function Null -> true | Ring _ -> false

  (* The deterministic engine emits from one thread, so the log skips
     its mutex unless the native engine has declared concurrent
     emitters via [synchronize] — handler domains there emit
     phase/reservation events concurrently with the WM, and a block is
     then grown under the mutex like any other write. *)
  let synchronize = function
    | Null -> ()
    | Ring r -> r.concurrent <- true

  (* Registers a run's names: [nodes.(c)] is class [c]'s app and node
     names, and node [j] of class [c] becomes name [bases.(c) + j].
     Names accumulate until [clear], so a log spanning runs decodes
     each run's events with its own names. *)
  let name_nodes t ~pe_labels nodes =
    match t with
    | Null -> ()
    | Ring r ->
        let next = ref (Vec.length r.names) in
        r.bases <-
          Array.map
            (fun (app, node_names) ->
              let base = !next in
              Array.iter
                (fun node -> Vec.push r.names { n_app = app; n_node = node; n_pes = pe_labels })
                node_names;
              next := base + Array.length node_names;
              base)
            nodes

  let phase_tag = function Dma_in -> 0 | Device_compute -> 1 | Dma_out -> 2
  let phase_of_tag = function 0 -> Dma_in | 1 -> Device_compute | _ -> Dma_out

  (* Moves on to the next block, allocating it unless a cleared log
     kept it from an earlier run. *)
  let next_block r =
    if r.cur + 1 = Vec.length r.blocks then Vec.push r.blocks (new_block ());
    enter r (r.cur + 1)

  (* Claims the next slot and stores the packed timestamp+tag word;
     the caller fills the slot's field arrays.  20 constructors fit the
     5 tag bits, and emulated/monotonic timestamps stay far below the
     remaining 57 bits. *)
  let slot r t_ns tag =
    if r.head = block_slots then next_block r;
    let h = r.head in
    r.meta.(h) <- (t_ns lsl 5) lor tag;
    r.head <- h + 1;
    h

  (* Body-free writers for the hot events: their hooks store the fields
     directly, so a traced run allocates no record per such event.
     Unused trailing fields are written as 0 / "" and never read. *)
  let put_ints t t_ns tag a b c d e =
    match t with
    | Null -> ()
    | Ring r ->
        if r.concurrent then Mutex.lock r.lock;
        let i = slot r t_ns tag * istride in
        r.ints.(i) <- a;
        r.ints.(i + 1) <- b;
        r.ints.(i + 2) <- c;
        r.ints.(i + 3) <- d;
        r.ints.(i + 4) <- e;
        if r.concurrent then Mutex.unlock r.lock

  let put_task t t_ns tag task instance c d app node pe =
    match t with
    | Null -> ()
    | Ring r ->
        if r.concurrent then Mutex.lock r.lock;
        let h = slot r t_ns tag in
        let i = h * istride in
        r.ints.(i) <- task;
        r.ints.(i + 1) <- instance;
        r.ints.(i + 2) <- c;
        r.ints.(i + 3) <- d;
        r.ints.(i + 4) <- -1;
        let j = h * sstride in
        r.strs.(j) <- app;
        r.strs.(j + 1) <- node;
        r.strs.(j + 2) <- pe;
        if r.concurrent then Mutex.unlock r.lock

  (* [put_task] for the engines' hooks: node [node] of class [cls], by
     its registered name; [c] is the PE index of a dispatch or a
     completion. *)
  let put_node t t_ns tag task instance c d cls node =
    match t with
    | Null -> ()
    | Ring r ->
        if r.concurrent then Mutex.lock r.lock;
        let i = slot r t_ns tag * istride in
        r.ints.(i) <- task;
        r.ints.(i + 1) <- instance;
        r.ints.(i + 2) <- c;
        r.ints.(i + 3) <- d;
        r.ints.(i + 4) <- r.bases.(cls) + node;
        if r.concurrent then Mutex.unlock r.lock

  (* Each case writes the fields its constructor carries at the offsets
     [decode] reads for its tag, so slots never need clearing between
     occupants. *)
  let emit t t_ns body =
    match (t, body) with
    | _, Task_ready { task; instance; app; node } ->
        put_task t t_ns 1 task instance 0 0 app node ""
    | _, Task_dispatched { task; instance; app; node; pe; pe_index; wait_ns } ->
        put_task t t_ns 2 task instance pe_index wait_ns app node pe
    | _, Task_completed { task; instance; app; node; pe; pe_index; service_ns } ->
        put_task t t_ns 3 task instance pe_index service_ns app node pe
    | _, Sched_invoked { ready; examined; ops; cost_ns; assigned } ->
        put_ints t t_ns 4 ready examined ops cost_ns assigned
    | _, Phase { task; pe_index; phase; start_ns; dur_ns } ->
        put_ints t t_ns 7 task pe_index (phase_tag phase) start_ns dur_ns
    | _, Wm_tick { completions; injected } -> put_ints t t_ns 8 completions injected 0 0 0
    | Null, _ -> ()
    | Ring r, _ ->
        if r.concurrent then Mutex.lock r.lock;
        (match body with
        | Instance_injected { instance; app } ->
            let h = slot r t_ns 0 in
            r.ints.(h * istride) <- instance;
            r.strs.(h * sstride) <- app
        | Reservation_enqueued { pe_index; depth } ->
            let i = slot r t_ns 5 * istride in
            r.ints.(i) <- pe_index;
            r.ints.(i + 1) <- depth
        | Reservation_popped { pe_index; depth } ->
            let i = slot r t_ns 6 * istride in
            r.ints.(i) <- pe_index;
            r.ints.(i + 1) <- depth
        | Fault_injected { task; pe; pe_index; fault; attempt } ->
            let h = slot r t_ns 9 in
            let i = h * istride in
            r.ints.(i) <- task;
            r.ints.(i + 1) <- pe_index;
            r.ints.(i + 2) <- attempt;
            let j = h * sstride in
            r.strs.(j) <- pe;
            r.strs.(j + 1) <- fault
        | Task_failed { task; instance; app; node; pe; pe_index; fault; attempt } ->
            let h = slot r t_ns 10 in
            let i = h * istride in
            r.ints.(i) <- task;
            r.ints.(i + 1) <- instance;
            r.ints.(i + 2) <- pe_index;
            r.ints.(i + 3) <- attempt;
            let j = h * sstride in
            r.strs.(j) <- app;
            r.strs.(j + 1) <- node;
            r.strs.(j + 2) <- pe;
            r.strs.(j + 3) <- fault
        | Task_retried { task; instance; app; node; attempt; backoff_ns } ->
            let h = slot r t_ns 11 in
            let i = h * istride in
            r.ints.(i) <- task;
            r.ints.(i + 1) <- instance;
            r.ints.(i + 2) <- attempt;
            r.ints.(i + 3) <- backoff_ns;
            let j = h * sstride in
            r.strs.(j) <- app;
            r.strs.(j + 1) <- node
        | Pe_quarantined { pe; pe_index; until_ns; permanent } ->
            let h = slot r t_ns 12 in
            let i = h * istride in
            r.ints.(i) <- pe_index;
            r.ints.(i + 1) <- until_ns;
            r.ints.(i + 2) <- (if permanent then 1 else 0);
            r.strs.(h * sstride) <- pe
        | Pe_recovered { pe; pe_index } ->
            let h = slot r t_ns 13 in
            r.ints.(h * istride) <- pe_index;
            r.strs.(h * sstride) <- pe
        | Stream_stalled { pe_index; bytes; queued } ->
            let i = slot r t_ns 14 * istride in
            r.ints.(i) <- pe_index;
            r.ints.(i + 1) <- bytes;
            r.ints.(i + 2) <- queued
        | Stream_admitted { pe_index; bytes; stall_ns; inflight } ->
            let i = slot r t_ns 15 * istride in
            r.ints.(i) <- pe_index;
            r.ints.(i + 1) <- bytes;
            r.ints.(i + 2) <- stall_ns;
            r.ints.(i + 3) <- inflight
        | Tenant_admitted { tenant; instance; queue_depth } ->
            let h = slot r t_ns 16 in
            let i = h * istride in
            r.ints.(i) <- instance;
            r.ints.(i + 1) <- queue_depth;
            r.strs.(h * sstride) <- tenant
        | Tenant_shed { tenant; instance; queue_depth } ->
            let h = slot r t_ns 17 in
            let i = h * istride in
            r.ints.(i) <- instance;
            r.ints.(i + 1) <- queue_depth;
            r.strs.(h * sstride) <- tenant
        | Instance_timed_out { tenant; instance; age_ns } ->
            let h = slot r t_ns 18 in
            let i = h * istride in
            r.ints.(i) <- instance;
            r.ints.(i + 1) <- age_ns;
            r.strs.(h * sstride) <- tenant
        | Checkpoint_written { path; instances_done } ->
            let h = slot r t_ns 19 in
            r.ints.(h * istride) <- instances_done;
            r.strs.(h * sstride) <- path
        | Task_ready _ | Task_dispatched _ | Task_completed _ | Sched_invoked _ | Phase _
        | Wm_tick _ -> ());
        if r.concurrent then Mutex.unlock r.lock

  let total = function
    | Null -> 0
    | Ring r -> (r.cur * block_slots) + r.head

  let clear = function
    | Null -> ()
    | Ring r ->
        enter r 0;
        Vec.clear r.names

  let decode names blk h =
    let t_ns = blk.b_meta.(h) asr 5 in
    let i = h * istride in
    let a = blk.b_ints.(i)
    and b = blk.b_ints.(i + 1)
    and c = blk.b_ints.(i + 2)
    and d = blk.b_ints.(i + 3)
    and e = blk.b_ints.(i + 4) in
    let j = h * sstride in
    let s1 = blk.b_strs.(j)
    and s2 = blk.b_strs.(j + 1)
    and s3 = blk.b_strs.(j + 2)
    and s4 = blk.b_strs.(j + 3) in
    let tag = blk.b_meta.(h) land 31 in
    (* A task event by registered name (see [put_node]). *)
    let s1, s2, s3 =
      if tag >= 1 && tag <= 3 && e >= 0 then
        let n = Vec.get names e in
        (n.n_app, n.n_node, if tag = 1 then "" else n.n_pes.(c))
      else (s1, s2, s3)
    in
    let body =
      match tag with
      | 0 -> Instance_injected { instance = a; app = s1 }
      | 1 -> Task_ready { task = a; instance = b; app = s1; node = s2 }
      | 2 ->
          Task_dispatched
            { task = a; instance = b; app = s1; node = s2; pe = s3; pe_index = c; wait_ns = d }
      | 3 ->
          Task_completed
            {
              task = a;
              instance = b;
              app = s1;
              node = s2;
              pe = s3;
              pe_index = c;
              service_ns = d;
            }
      | 4 -> Sched_invoked { ready = a; examined = b; ops = c; cost_ns = d; assigned = e }
      | 5 -> Reservation_enqueued { pe_index = a; depth = b }
      | 6 -> Reservation_popped { pe_index = a; depth = b }
      | 7 ->
          Phase { task = a; pe_index = b; phase = phase_of_tag c; start_ns = d; dur_ns = e }
      | 8 -> Wm_tick { completions = a; injected = b }
      | 9 -> Fault_injected { task = a; pe = s1; pe_index = b; fault = s2; attempt = c }
      | 10 ->
          Task_failed
            {
              task = a;
              instance = b;
              app = s1;
              node = s2;
              pe = s3;
              pe_index = c;
              fault = s4;
              attempt = d;
            }
      | 11 ->
          Task_retried
            { task = a; instance = b; app = s1; node = s2; attempt = c; backoff_ns = d }
      | 12 ->
          Pe_quarantined { pe = s1; pe_index = a; until_ns = b; permanent = c = 1 }
      | 13 -> Pe_recovered { pe = s1; pe_index = a }
      | 14 -> Stream_stalled { pe_index = a; bytes = b; queued = c }
      | 15 -> Stream_admitted { pe_index = a; bytes = b; stall_ns = c; inflight = d }
      | 16 -> Tenant_admitted { tenant = s1; instance = a; queue_depth = b }
      | 17 -> Tenant_shed { tenant = s1; instance = a; queue_depth = b }
      | 18 -> Instance_timed_out { tenant = s1; instance = a; age_ns = b }
      | _ -> Checkpoint_written { path = s1; instances_done = a }
    in
    { t_ns; body }

  let iter f = function
    | Null -> ()
    | Ring r as t ->
        for k = 0 to total t - 1 do
          f (decode r.names (Vec.get r.blocks (k / block_slots)) (k mod block_slots))
        done

  let events t =
    let acc = ref [] in
    iter (fun e -> acc := e :: !acc) t;
    List.rev !acc
end

module Metrics = struct
  type counter = { c_name : string; mutable c_count : int }

  (* Gauges and histograms store their samples in raw resizable arrays
     rather than [Vec]s: updates run once or more per traced event, and
     the specialized representations spare, per sample, a tuple or
     boxed-float allocation plus a cross-module polymorphic call.  The
     interleaved (t, v) gauge layout keeps a sample one cache line. *)
  type gauge = {
    g_name : string;
    mutable g_value : int;
    mutable g_max : int;
    mutable g_last_t : int;  (* timestamp of the newest sample *)
    mutable g_buf : int array;  (* interleaved t, v pairs *)
    mutable g_len : int;  (* ints used in [g_buf] *)
  }

  type histogram = {
    h_name : string;
    mutable h_data : float array;
    mutable h_len : int;
  }
  type item = Counter of counter | Gauge of gauge | Histogram of histogram

  (* Registration order is preserved so [pp] and exporters are
     deterministic. *)
  type t = { items : item Vec.t }

  let create () = { items = Vec.create () }

  let item_name = function
    | Counter c -> c.c_name
    | Gauge g -> g.g_name
    | Histogram h -> h.h_name

  let find t name =
    Vec.fold (fun acc it -> if item_name it = name then Some it else acc) None t.items

  let counter t name =
    match find t name with
    | Some (Counter c) -> c
    | Some _ -> invalid_arg ("Obs.Metrics.counter: " ^ name ^ " registered with another kind")
    | None ->
        let c = { c_name = name; c_count = 0 } in
        Vec.push t.items (Counter c);
        c

  let gauge t name =
    match find t name with
    | Some (Gauge g) -> g
    | Some _ -> invalid_arg ("Obs.Metrics.gauge: " ^ name ^ " registered with another kind")
    | None ->
        let g =
          {
            g_name = name;
            g_value = 0;
            g_max = 0;
            g_last_t = min_int;
            g_buf = [||];
            g_len = 0;
          }
        in
        Vec.push t.items (Gauge g);
        g

  let histogram t name =
    match find t name with
    | Some (Histogram h) -> h
    | Some _ ->
        invalid_arg ("Obs.Metrics.histogram: " ^ name ^ " registered with another kind")
    | None ->
        let h = { h_name = name; h_data = [||]; h_len = 0 } in
        Vec.push t.items (Histogram h);
        h

  let find_gauge t name =
    match find t name with Some (Gauge g) -> Some g | _ -> None

  let find_counter t name =
    match find t name with Some (Counter c) -> Some c | _ -> None

  let find_histogram t name =
    match find t name with Some (Histogram h) -> Some h | _ -> None

  let incr ?(by = 1) c = c.c_count <- c.c_count + by
  let counter_value c = c.c_count

  let set g ~t_ns v =
    if v > g.g_max then g.g_max <- v;
    g.g_value <- v;
    (* Several updates at one backend timestamp collapse to the last, so
       the series is a step function keyed by strictly increasing time. *)
    if t_ns = g.g_last_t then g.g_buf.(g.g_len - 1) <- v
    else begin
      let len = g.g_len in
      if len + 2 > Array.length g.g_buf then begin
        let nb = Array.make (max 16 (2 * len)) 0 in
        Array.blit g.g_buf 0 nb 0 len;
        g.g_buf <- nb
      end;
      g.g_buf.(len) <- t_ns;
      g.g_buf.(len + 1) <- v;
      g.g_len <- len + 2;
      g.g_last_t <- t_ns
    end

  let gauge_value g = g.g_value
  let gauge_max g = g.g_max

  let gauge_samples g = g.g_len / 2

  let gauge_series g =
    List.init (gauge_samples g) (fun i -> (g.g_buf.(2 * i), g.g_buf.((2 * i) + 1)))

  let gauge_name g = g.g_name

  let observe h v =
    let len = h.h_len in
    if len = Array.length h.h_data then begin
      let nd = Array.make (max 16 (2 * len)) 0.0 in
      Array.blit h.h_data 0 nd 0 len;
      h.h_data <- nd
    end;
    h.h_data.(len) <- v;
    h.h_len <- len + 1

  (* [observe h (float_of_int ns /. 1e3)], converted here: a float
     argument would be boxed at every call site. *)
  let observe_us h ns =
    if h.h_len = Array.length h.h_data then observe h 0.0 else h.h_len <- h.h_len + 1;
    h.h_data.(h.h_len - 1) <- float_of_int ns /. 1e3

  let histogram_count h = h.h_len
  let histogram_samples h = Array.sub h.h_data 0 h.h_len

  let histogram_mean h =
    if h.h_len = 0 then None else Some (Quantile.mean (histogram_samples h))

  let histogram_quantile h q =
    if h.h_len = 0 then None else Some (Quantile.quantile (histogram_samples h) q)

  let gauges t =
    List.filter_map (function Gauge g -> Some g | _ -> None) (Vec.to_list t.items)

  let reset t =
    Vec.iter
      (function
        | Counter c -> c.c_count <- 0
        | Gauge g ->
            g.g_value <- 0;
            g.g_max <- 0;
            g.g_last_t <- min_int;
            g.g_len <- 0
        | Histogram h -> h.h_len <- 0)
      t.items

  let pp fmt t =
    Format.fprintf fmt "== metrics ==@.";
    Vec.iter
      (fun item ->
        match item with
        | Counter c -> Format.fprintf fmt "  counter  %-26s %d@." c.c_name c.c_count
        | Gauge g ->
            Format.fprintf fmt "  gauge    %-26s last %d  max %d  (%d samples)@."
              g.g_name g.g_value g.g_max (gauge_samples g)
        | Histogram h ->
            if h.h_len = 0 then
              Format.fprintf fmt "  hist     %-26s (empty)@." h.h_name
            else
              let xs = histogram_samples h in
              Format.fprintf fmt
                "  hist     %-26s n %d  mean %.3f  p50 %.3f  p95 %.3f  max %.3f@."
                h.h_name (Array.length xs) (Quantile.mean xs) (Quantile.median xs)
                (Quantile.quantile xs 0.95) (Quantile.max xs))
      t.items
end

module Flush = struct
  (* Periodic snapshots of a metrics registry, appended as JSONL.  The
     cadence runs on the emulated clock (driven from the WM tick), so
     the snapshot stream is deterministic for a given seed.

     Durability: each snapshot rewrites the whole stream (any content
     the file held when the flusher opened, plus every line of this
     session) to [path ^ ".tmp"] and atomically renames it over
     [path].  A reader therefore always sees a prefix of complete
     lines; a killed process can never leave a torn final snapshot. *)
  type flusher = {
    f_metrics : Metrics.t;
    f_period_ns : int;
    f_path : string;
    f_acc : Buffer.t;  (* prior file content + all session snapshots *)
    f_buf : Buffer.t;  (* reused per snapshot; never grows a log string *)
    mutable f_next_ns : int;
    mutable f_last_ns : int;  (* latest tick time seen *)
    mutable f_last_snap_ns : int;  (* -1 until the first snapshot *)
    mutable f_snapshots : int;
    mutable f_closed : bool;
  }

  let snapshot_json m ~t_ns =
    let counters = ref [] and gauges = ref [] and hists = ref [] in
    Vec.iter
      (fun item ->
        match item with
        | Metrics.Counter c ->
            counters := (c.Metrics.c_name, Json.int c.Metrics.c_count) :: !counters
        | Metrics.Gauge g ->
            gauges :=
              ( g.Metrics.g_name,
                Json.obj
                  [ ("last", Json.int g.Metrics.g_value); ("max", Json.int g.Metrics.g_max) ]
              )
              :: !gauges
        | Metrics.Histogram h ->
            let xs = Metrics.histogram_samples h in
            let fields =
              if Array.length xs = 0 then [ ("n", Json.int 0) ]
              else
                [
                  ("n", Json.int (Array.length xs));
                  ("mean", Json.float (Quantile.mean xs));
                  ("p50", Json.float (Quantile.median xs));
                  ("p95", Json.float (Quantile.quantile xs 0.95));
                  ("max", Json.float (Quantile.max xs));
                ]
            in
            hists := (h.Metrics.h_name, Json.obj fields) :: !hists)
      m.Metrics.items;
    Json.obj
      [
        ("t_ns", Json.int t_ns);
        ("counters", Json.obj (List.rev !counters));
        ("gauges", Json.obj (List.rev !gauges));
        ("hists", Json.obj (List.rev !hists));
      ]

  let every ~period_ms ~path metrics =
    if period_ms <= 0 then invalid_arg "Obs.Flush.every: period_ms must be positive";
    let acc = Buffer.create 4096 in
    if Sys.file_exists path then
      In_channel.with_open_bin path (fun ic -> Buffer.add_string acc (In_channel.input_all ic))
    else Out_channel.with_open_bin path ignore (* match the old create-on-open behaviour *);
    {
      f_metrics = metrics;
      f_period_ns = period_ms * 1_000_000;
      f_path = path;
      f_acc = acc;
      f_buf = Buffer.create 1024;
      f_next_ns = 0;
      f_last_ns = 0;
      f_last_snap_ns = -1;
      f_snapshots = 0;
      f_closed = false;
    }

  let snapshot t ~now =
    Buffer.clear t.f_buf;
    Buffer.add_string t.f_buf
      (Json.to_string ~minify:true (snapshot_json t.f_metrics ~t_ns:now));
    Buffer.add_char t.f_buf '\n';
    Buffer.add_buffer t.f_acc t.f_buf;
    let tmp = t.f_path ^ ".tmp" in
    Out_channel.with_open_bin tmp (fun oc -> Buffer.output_buffer oc t.f_acc);
    Sys.rename tmp t.f_path;
    t.f_snapshots <- t.f_snapshots + 1;
    t.f_last_snap_ns <- now;
    t.f_next_ns <- now + t.f_period_ns

  let tick t ~now =
    if not t.f_closed then begin
      if now > t.f_last_ns then t.f_last_ns <- now;
      if now >= t.f_next_ns then snapshot t ~now
    end

  let snapshots t = t.f_snapshots
  let path t = t.f_path

  let close t =
    if not t.f_closed then begin
      (* Final snapshot at the last tick time: short runs and the tail
         between two periods are represented in the stream. *)
      if t.f_last_ns > t.f_last_snap_ns then snapshot t ~now:t.f_last_ns;
      t.f_closed <- true
    end
end

(* Handles the engine hot path uses so emitting a metric is a field
   access, never a registry lookup. *)
type engine_metrics = {
  m_ready : Metrics.gauge;
  m_inflight : Metrics.gauge;
  m_pe_depth : Metrics.gauge array;
  m_wait : Metrics.histogram;
  m_service : Metrics.histogram;
  m_sched_cost : Metrics.histogram;
  c_injected : Metrics.counter;
  c_dispatched : Metrics.counter;
  c_completed : Metrics.counter;
  c_sched : Metrics.counter;
  c_faults : Metrics.counter;
  c_retries : Metrics.counter;
  c_quarantines : Metrics.counter;
}

type t = {
  sink : Sink.t;
  metrics : Metrics.t option;
  active : bool;
  mutable eng : engine_metrics option;
  mutable flush : Flush.flusher option;
}

let disabled = { sink = Sink.Null; metrics = None; active = false; eng = None; flush = None }

let make ?(sink = Sink.null) ?metrics () =
  {
    sink;
    metrics;
    active = (not (Sink.is_null sink)) || Option.is_some metrics;
    eng = None;
    flush = None;
  }

let set_flush t f = t.flush <- Some f

(* A reset bundle records the next run exactly as a freshly made one:
   instruments stay registered (so cached handles and registration
   order survive) but hold no samples, and the sink keeps every block
   it has grown, so a caller replaying many runs through one log
   allocates blocks only on its first run. *)
let reset t =
  Sink.clear t.sink;
  (match t.metrics with Some m -> Metrics.reset m | None -> ());
  t.flush <- None

let enabled t = t.active
let sink t = t.sink
let metrics t = t.metrics

let attach t ~pe_labels ~nodes =
  Sink.name_nodes t.sink ~pe_labels nodes;
  match t.metrics with
  | None -> ()
  | Some m ->
      (* Explicit lets pin registration (and therefore display/export)
         order, which record-field evaluation order would not. *)
      let c_injected = Metrics.counter m "instances_injected" in
      let c_dispatched = Metrics.counter m "tasks_dispatched" in
      let c_completed = Metrics.counter m "tasks_completed" in
      let c_sched = Metrics.counter m "sched_invocations" in
      let m_ready = Metrics.gauge m "ready_queue_depth" in
      let m_inflight = Metrics.gauge m "in_flight_tasks" in
      let m_pe_depth =
        Array.map (fun l -> Metrics.gauge m ("pe_queue_depth/" ^ l)) pe_labels
      in
      let m_wait = Metrics.histogram m "task_wait_us" in
      let m_service = Metrics.histogram m "task_service_us" in
      let m_sched_cost = Metrics.histogram m "sched_cost_us" in
      (* Resilience counters register after the pre-existing handles so
         their display/export order is stable. *)
      let c_faults = Metrics.counter m "faults_injected" in
      let c_retries = Metrics.counter m "task_retries" in
      let c_quarantines = Metrics.counter m "pe_quarantines" in
      t.eng <-
        Some
          {
            m_ready;
            m_inflight;
            m_pe_depth;
            m_wait;
            m_service;
            m_sched_cost;
            c_injected;
            c_dispatched;
            c_completed;
            c_sched;
            c_faults;
            c_retries;
            c_quarantines;
          }

let on_instance_injected t ~now ~instance ~app =
  (match t.eng with Some e -> Metrics.incr e.c_injected | None -> ());
  Sink.emit t.sink now (Instance_injected { instance; app })

let on_task_ready t ~now ~task ~instance ~cls ~node ~ready_depth =
  (match t.eng with
  | Some e -> Metrics.set e.m_ready ~t_ns:now ready_depth
  | None -> ());
  Sink.put_node t.sink now 1 task instance 0 0 cls node

let on_task_dispatched t ~now ~task ~instance ~cls ~node ~pe_index ~wait_ns
    ~ready_depth ~pe_depth ~inflight =
  (match t.eng with
  | Some e ->
      Metrics.incr e.c_dispatched;
      Metrics.set e.m_ready ~t_ns:now ready_depth;
      Metrics.set e.m_inflight ~t_ns:now inflight;
      if pe_index >= 0 && pe_index < Array.length e.m_pe_depth then
        Metrics.set e.m_pe_depth.(pe_index) ~t_ns:now pe_depth;
      Metrics.observe_us e.m_wait wait_ns
  | None -> ());
  Sink.put_node t.sink now 2 task instance pe_index wait_ns cls node

let on_task_completed t ~now ~task ~instance ~cls ~node ~pe_index ~service_ns
    ~pe_depth ~inflight =
  (match t.eng with
  | Some e ->
      Metrics.incr e.c_completed;
      Metrics.set e.m_inflight ~t_ns:now inflight;
      if pe_index >= 0 && pe_index < Array.length e.m_pe_depth then
        Metrics.set e.m_pe_depth.(pe_index) ~t_ns:now pe_depth;
      Metrics.observe_us e.m_service service_ns
  | None -> ());
  Sink.put_node t.sink now 3 task instance pe_index service_ns cls node

let on_sched t ~now ~ready ~examined ~ops ~cost_ns ~assigned =
  (match t.eng with
  | Some e ->
      Metrics.incr e.c_sched;
      Metrics.observe_us e.m_sched_cost cost_ns
  | None -> ());
  Sink.put_ints t.sink now 4 ready examined ops cost_ns assigned

let on_reservation_enqueued t ~now ~pe_index ~depth =
  Sink.emit t.sink now (Reservation_enqueued { pe_index; depth })

let on_reservation_popped t ~now ~pe_index ~depth =
  Sink.emit t.sink now (Reservation_popped { pe_index; depth })

let on_phase t ~now ~task ~pe_index ~phase ~start_ns ~dur_ns =
  Sink.put_ints t.sink now 7 task pe_index (Sink.phase_tag phase) start_ns dur_ns

let on_wm_tick t ~now ~completions ~injected =
  (* The flusher runs on every sweep — including quiet ones — so its
     cadence follows the emulated clock, not the event density. *)
  (match t.flush with Some f -> Flush.tick f ~now | None -> ());
  if completions > 0 || injected > 0 then
    Sink.put_ints t.sink now 8 completions injected 0 0 0

(* Emitted by resource handlers (possibly native domains): sink only —
   metrics are WM-thread-only by contract. *)
let on_fault_injected t ~now ~task ~pe ~pe_index ~fault ~attempt =
  Sink.emit t.sink now (Fault_injected { task; pe; pe_index; fault; attempt })

let on_task_failed t ~now ~task ~instance ~app ~node ~pe ~pe_index ~fault ~attempt =
  (match t.eng with Some e -> Metrics.incr e.c_faults | None -> ());
  Sink.emit t.sink now (Task_failed { task; instance; app; node; pe; pe_index; fault; attempt })

let on_task_retried t ~now ~task ~instance ~app ~node ~attempt ~backoff_ns =
  (match t.eng with Some e -> Metrics.incr e.c_retries | None -> ());
  Sink.emit t.sink now (Task_retried { task; instance; app; node; attempt; backoff_ns })

let on_pe_quarantined t ~now ~pe ~pe_index ~until_ns ~permanent =
  (match t.eng with Some e -> Metrics.incr e.c_quarantines | None -> ());
  Sink.emit t.sink now (Pe_quarantined { pe; pe_index; until_ns; permanent })

let on_pe_recovered t ~now ~pe ~pe_index =
  Sink.emit t.sink now (Pe_recovered { pe; pe_index })

(* Fabric contention, emitted by the engines' DMA-charging hook: sink
   only here — the fabric occupancy gauge and stall histogram are
   registered and driven by the (single-threaded) discrete-event
   substrate, [Des]. *)
let on_stream_stalled t ~now ~pe_index ~bytes ~queued =
  Sink.emit t.sink now (Stream_stalled { pe_index; bytes; queued })

let on_stream_admitted t ~now ~pe_index ~bytes ~stall_ns ~inflight =
  Sink.emit t.sink now (Stream_admitted { pe_index; bytes; stall_ns; inflight })

(* Service-mode events (serve extension): sink only — the server keeps
   its own per-tenant counters and the engine gauges already cover
   queue depths. *)
let on_tenant_admitted t ~now ~tenant ~instance ~queue_depth =
  Sink.emit t.sink now (Tenant_admitted { tenant; instance; queue_depth })

let on_tenant_shed t ~now ~tenant ~instance ~queue_depth =
  Sink.emit t.sink now (Tenant_shed { tenant; instance; queue_depth })

let on_instance_timed_out t ~now ~tenant ~instance ~age_ns =
  Sink.emit t.sink now (Instance_timed_out { tenant; instance; age_ns })

let on_checkpoint_written t ~now ~path ~instances_done =
  Sink.emit t.sink now (Checkpoint_written { path; instances_done })

let recorded_events t = Sink.events t.sink

let counter_tracks t =
  match t.metrics with
  | None -> []
  | Some m -> List.map (fun g -> (Metrics.gauge_name g, Metrics.gauge_series g)) (Metrics.gauges m)

let event_to_json { t_ns; body } =
  let mk name fields = Json.obj (("t", Json.int t_ns) :: ("ev", Json.str name) :: fields) in
  match body with
  | Instance_injected { instance; app } ->
      mk "instance_injected" [ ("instance", Json.int instance); ("app", Json.str app) ]
  | Task_ready { task; instance; app; node } ->
      mk "task_ready"
        [
          ("task", Json.int task);
          ("instance", Json.int instance);
          ("app", Json.str app);
          ("node", Json.str node);
        ]
  | Task_dispatched { task; instance; app; node; pe; pe_index; wait_ns } ->
      mk "task_dispatched"
        [
          ("task", Json.int task);
          ("instance", Json.int instance);
          ("app", Json.str app);
          ("node", Json.str node);
          ("pe", Json.str pe);
          ("pe_index", Json.int pe_index);
          ("wait_ns", Json.int wait_ns);
        ]
  | Task_completed { task; instance; app; node; pe; pe_index; service_ns } ->
      mk "task_completed"
        [
          ("task", Json.int task);
          ("instance", Json.int instance);
          ("app", Json.str app);
          ("node", Json.str node);
          ("pe", Json.str pe);
          ("pe_index", Json.int pe_index);
          ("service_ns", Json.int service_ns);
        ]
  | Sched_invoked { ready; examined; ops; cost_ns; assigned } ->
      mk "sched"
        [
          ("ready", Json.int ready);
          ("examined", Json.int examined);
          ("ops", Json.int ops);
          ("cost_ns", Json.int cost_ns);
          ("assigned", Json.int assigned);
        ]
  | Reservation_enqueued { pe_index; depth } ->
      mk "resv_enq" [ ("pe_index", Json.int pe_index); ("depth", Json.int depth) ]
  | Reservation_popped { pe_index; depth } ->
      mk "resv_pop" [ ("pe_index", Json.int pe_index); ("depth", Json.int depth) ]
  | Phase { task; pe_index; phase; start_ns; dur_ns } ->
      mk "phase"
        [
          ("phase", Json.str (phase_name phase));
          ("task", Json.int task);
          ("pe_index", Json.int pe_index);
          ("start_ns", Json.int start_ns);
          ("dur_ns", Json.int dur_ns);
        ]
  | Wm_tick { completions; injected } ->
      mk "wm_tick" [ ("completions", Json.int completions); ("injected", Json.int injected) ]
  | Fault_injected { task; pe; pe_index; fault; attempt } ->
      mk "fault_injected"
        [
          ("task", Json.int task);
          ("pe", Json.str pe);
          ("pe_index", Json.int pe_index);
          ("fault", Json.str fault);
          ("attempt", Json.int attempt);
        ]
  | Task_failed { task; instance; app; node; pe; pe_index; fault; attempt } ->
      mk "task_failed"
        [
          ("task", Json.int task);
          ("instance", Json.int instance);
          ("app", Json.str app);
          ("node", Json.str node);
          ("pe", Json.str pe);
          ("pe_index", Json.int pe_index);
          ("fault", Json.str fault);
          ("attempt", Json.int attempt);
        ]
  | Task_retried { task; instance; app; node; attempt; backoff_ns } ->
      mk "task_retried"
        [
          ("task", Json.int task);
          ("instance", Json.int instance);
          ("app", Json.str app);
          ("node", Json.str node);
          ("attempt", Json.int attempt);
          ("backoff_ns", Json.int backoff_ns);
        ]
  | Pe_quarantined { pe; pe_index; until_ns; permanent } ->
      mk "pe_quarantined"
        [
          ("pe", Json.str pe);
          ("pe_index", Json.int pe_index);
          ("until_ns", Json.int until_ns);
          ("permanent", Json.bool permanent);
        ]
  | Pe_recovered { pe; pe_index } ->
      mk "pe_recovered" [ ("pe", Json.str pe); ("pe_index", Json.int pe_index) ]
  | Stream_stalled { pe_index; bytes; queued } ->
      mk "stream_stalled"
        [
          ("pe_index", Json.int pe_index);
          ("bytes", Json.int bytes);
          ("queued", Json.int queued);
        ]
  | Stream_admitted { pe_index; bytes; stall_ns; inflight } ->
      mk "stream_admitted"
        [
          ("pe_index", Json.int pe_index);
          ("bytes", Json.int bytes);
          ("stall_ns", Json.int stall_ns);
          ("inflight", Json.int inflight);
        ]
  | Tenant_admitted { tenant; instance; queue_depth } ->
      mk "tenant_admitted"
        [
          ("tenant", Json.str tenant);
          ("instance", Json.int instance);
          ("queue_depth", Json.int queue_depth);
        ]
  | Tenant_shed { tenant; instance; queue_depth } ->
      mk "tenant_shed"
        [
          ("tenant", Json.str tenant);
          ("instance", Json.int instance);
          ("queue_depth", Json.int queue_depth);
        ]
  | Instance_timed_out { tenant; instance; age_ns } ->
      mk "instance_timed_out"
        [
          ("tenant", Json.str tenant);
          ("instance", Json.int instance);
          ("age_ns", Json.int age_ns);
        ]
  | Checkpoint_written { path; instances_done } ->
      mk "checkpoint_written"
        [ ("path", Json.str path); ("instances_done", Json.int instances_done) ]

let add_jsonl buf e =
  Buffer.add_string buf (Json.to_string ~minify:true (event_to_json e));
  Buffer.add_char buf '\n'

let to_jsonl events =
  let buf = Buffer.create 4096 in
  List.iter (add_jsonl buf) events;
  Buffer.contents buf

(* One reused line buffer: the log streams to the channel without ever
   materialising as a single string. *)
let write_jsonl oc iter =
  let buf = Buffer.create 512 in
  iter (fun e ->
      Buffer.clear buf;
      add_jsonl buf e;
      Buffer.output_buffer oc buf)

let output_jsonl oc events = write_jsonl oc (fun f -> List.iter f events)
let output_recorded_jsonl oc t = write_jsonl oc (fun f -> Sink.iter f t.sink)

let event_of_json j =
  let ( let* ) = Result.bind in
  let int name =
    let* v = Json.member name j in
    Json.to_int v
  in
  let str name =
    let* v = Json.member name j in
    Json.to_str v
  in
  let bool name =
    let* v = Json.member name j in
    Json.to_bool v
  in
  let* t_ns = int "t" in
  let* ev = str "ev" in
  let* body =
    match ev with
    | "instance_injected" ->
        let* instance = int "instance" in
        let* app = str "app" in
        Ok (Instance_injected { instance; app })
    | "task_ready" ->
        let* task = int "task" in
        let* instance = int "instance" in
        let* app = str "app" in
        let* node = str "node" in
        Ok (Task_ready { task; instance; app; node })
    | "task_dispatched" ->
        let* task = int "task" in
        let* instance = int "instance" in
        let* app = str "app" in
        let* node = str "node" in
        let* pe = str "pe" in
        let* pe_index = int "pe_index" in
        let* wait_ns = int "wait_ns" in
        Ok (Task_dispatched { task; instance; app; node; pe; pe_index; wait_ns })
    | "task_completed" ->
        let* task = int "task" in
        let* instance = int "instance" in
        let* app = str "app" in
        let* node = str "node" in
        let* pe = str "pe" in
        let* pe_index = int "pe_index" in
        let* service_ns = int "service_ns" in
        Ok (Task_completed { task; instance; app; node; pe; pe_index; service_ns })
    | "sched" ->
        let* ready = int "ready" in
        let* examined = int "examined" in
        let* ops = int "ops" in
        let* cost_ns = int "cost_ns" in
        let* assigned = int "assigned" in
        Ok (Sched_invoked { ready; examined; ops; cost_ns; assigned })
    | "resv_enq" ->
        let* pe_index = int "pe_index" in
        let* depth = int "depth" in
        Ok (Reservation_enqueued { pe_index; depth })
    | "resv_pop" ->
        let* pe_index = int "pe_index" in
        let* depth = int "depth" in
        Ok (Reservation_popped { pe_index; depth })
    | "phase" ->
        let* p = str "phase" in
        let* phase =
          match p with
          | "dma_in" -> Ok Dma_in
          | "compute" -> Ok Device_compute
          | "dma_out" -> Ok Dma_out
          | other -> Error (Printf.sprintf "unknown phase %S" other)
        in
        let* task = int "task" in
        let* pe_index = int "pe_index" in
        let* start_ns = int "start_ns" in
        let* dur_ns = int "dur_ns" in
        Ok (Phase { task; pe_index; phase; start_ns; dur_ns })
    | "wm_tick" ->
        let* completions = int "completions" in
        let* injected = int "injected" in
        Ok (Wm_tick { completions; injected })
    | "fault_injected" ->
        let* task = int "task" in
        let* pe = str "pe" in
        let* pe_index = int "pe_index" in
        let* fault = str "fault" in
        let* attempt = int "attempt" in
        Ok (Fault_injected { task; pe; pe_index; fault; attempt })
    | "task_failed" ->
        let* task = int "task" in
        let* instance = int "instance" in
        let* app = str "app" in
        let* node = str "node" in
        let* pe = str "pe" in
        let* pe_index = int "pe_index" in
        let* fault = str "fault" in
        let* attempt = int "attempt" in
        Ok (Task_failed { task; instance; app; node; pe; pe_index; fault; attempt })
    | "task_retried" ->
        let* task = int "task" in
        let* instance = int "instance" in
        let* app = str "app" in
        let* node = str "node" in
        let* attempt = int "attempt" in
        let* backoff_ns = int "backoff_ns" in
        Ok (Task_retried { task; instance; app; node; attempt; backoff_ns })
    | "pe_quarantined" ->
        let* pe = str "pe" in
        let* pe_index = int "pe_index" in
        let* until_ns = int "until_ns" in
        let* permanent = bool "permanent" in
        Ok (Pe_quarantined { pe; pe_index; until_ns; permanent })
    | "pe_recovered" ->
        let* pe = str "pe" in
        let* pe_index = int "pe_index" in
        Ok (Pe_recovered { pe; pe_index })
    | "stream_stalled" ->
        let* pe_index = int "pe_index" in
        let* bytes = int "bytes" in
        let* queued = int "queued" in
        Ok (Stream_stalled { pe_index; bytes; queued })
    | "stream_admitted" ->
        let* pe_index = int "pe_index" in
        let* bytes = int "bytes" in
        let* stall_ns = int "stall_ns" in
        let* inflight = int "inflight" in
        Ok (Stream_admitted { pe_index; bytes; stall_ns; inflight })
    | "tenant_admitted" ->
        let* tenant = str "tenant" in
        let* instance = int "instance" in
        let* queue_depth = int "queue_depth" in
        Ok (Tenant_admitted { tenant; instance; queue_depth })
    | "tenant_shed" ->
        let* tenant = str "tenant" in
        let* instance = int "instance" in
        let* queue_depth = int "queue_depth" in
        Ok (Tenant_shed { tenant; instance; queue_depth })
    | "instance_timed_out" ->
        let* tenant = str "tenant" in
        let* instance = int "instance" in
        let* age_ns = int "age_ns" in
        Ok (Instance_timed_out { tenant; instance; age_ns })
    | "checkpoint_written" ->
        let* path = str "path" in
        let* instances_done = int "instances_done" in
        Ok (Checkpoint_written { path; instances_done })
    | other -> Error (Printf.sprintf "unknown event kind %S" other)
  in
  Ok { t_ns; body }
