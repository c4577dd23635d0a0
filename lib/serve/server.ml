module Prng = Dssoc_util.Prng
module Json = Dssoc_json.Json
module Config = Dssoc_soc.Config
module Host = Dssoc_soc.Host
module Pe = Dssoc_soc.Pe
module App_spec = Dssoc_apps.App_spec
module Store = Dssoc_apps.Store
module Workload = Dssoc_apps.Workload
module Reference_apps = Dssoc_apps.Reference_apps
module Core = Dssoc_runtime.Engine_core
module Task = Dssoc_runtime.Task
module Scheduler = Dssoc_runtime.Scheduler
module Compiled_engine = Dssoc_runtime.Compiled_engine
module Functional = Dssoc_runtime.Functional
module Obs = Dssoc_obs.Obs
module Vec = Dssoc_util.Vec

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* Specs                                                               *)
(* ------------------------------------------------------------------ *)

type overload = Block | Shed | Degrade

let overload_name = function Block -> "block" | Shed -> "shed" | Degrade -> "degrade"

type admission = {
  ad_policy : overload;
  ad_queue : int;
  ad_max_ready : int;
  ad_timeout_ns : int;
}

let default_admission =
  { ad_policy = Shed; ad_queue = 16; ad_max_ready = 128; ad_timeout_ns = 0 }

type tenant_spec = {
  tn_name : string;
  tn_apps : (string * int) list;
  tn_rate_per_ms : float;
  tn_priority : int;
  tn_slo_ms : float;
  tn_seed : int64 option;
}

(* "20ms" / "150us" / "1.5s" / bare number (ms) -> ns *)
let duration_ns_of_string s =
  let conv mult body =
    match float_of_string_opt body with
    | Some f when f >= 0.0 -> Ok (int_of_float (f *. mult))
    | _ -> Error (Printf.sprintf "bad duration %S" s)
  in
  let has suf = String.length s > String.length suf
                && String.sub s (String.length s - String.length suf) (String.length suf) = suf in
  let body suf = String.sub s 0 (String.length s - String.length suf) in
  if has "ms" then conv 1e6 (body "ms")
  else if has "us" then conv 1e3 (body "us")
  else if has "ns" then conv 1.0 (body "ns")
  else if has "s" then conv 1e9 (body "s")
  else conv 1e6 s

let pos_int_field ~what s =
  match int_of_string_opt s with
  | Some n when n > 0 -> Ok n
  | _ -> Error (Printf.sprintf "bad %s %S (want a positive integer)" what s)

let admission_of_spec s =
  let rec go acc = function
    | [] -> Ok acc
    | clause :: rest -> (
      match String.index_opt clause '=' with
      | None -> Error (Printf.sprintf "admission: clause %S is not key=value" clause)
      | Some i ->
        let key = String.sub clause 0 i
        and v = String.sub clause (i + 1) (String.length clause - i - 1) in
        let* acc =
          match key with
          | "policy" -> (
            match String.lowercase_ascii v with
            | "block" -> Ok { acc with ad_policy = Block }
            | "shed" -> Ok { acc with ad_policy = Shed }
            | "degrade" -> Ok { acc with ad_policy = Degrade }
            | _ -> Error (Printf.sprintf "admission: unknown policy %S (block|shed|degrade)" v))
          | "queue" ->
            let* n = pos_int_field ~what:"admission queue bound" v in
            Ok { acc with ad_queue = n }
          | "max-ready" ->
            let* n = pos_int_field ~what:"max-ready bound" v in
            Ok { acc with ad_max_ready = n }
          | "timeout" ->
            let* ns = duration_ns_of_string v in
            Ok { acc with ad_timeout_ns = ns }
          | _ -> Error (Printf.sprintf "admission: unknown key %S" key)
        in
        go acc rest)
  in
  let clauses = String.split_on_char ':' (String.trim s) |> List.filter (( <> ) "") in
  go default_admission clauses

(* "wifi_tx*3+range_detection" -> [("wifi_tx",3); ("range_detection",1)] *)
let apps_of_string s =
  let parse_one part =
    match String.index_opt part '*' with
    | None -> if part = "" then Error "tenant: empty app name" else Ok (part, 1)
    | Some i ->
      let name = String.sub part 0 i
      and w = String.sub part (i + 1) (String.length part - i - 1) in
      let* w = pos_int_field ~what:(Printf.sprintf "weight of app %S" name) w in
      if name = "" then Error "tenant: empty app name" else Ok (name, w)
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | p :: rest ->
      let* one = parse_one p in
      go (one :: acc) rest
  in
  match String.split_on_char '+' s with
  | [] | [ "" ] -> Error "tenant: empty app mix"
  | parts -> go [] parts

let tenant_of_clause clause =
  match String.split_on_char ':' (String.trim clause) with
  | [] | [ "" ] -> Error "tenants: empty clause"
  | name :: fields ->
    if name = "" || String.contains name '=' then
      Error (Printf.sprintf "tenants: clause %S must start with a tenant name" clause)
    else
      let init =
        {
          tn_name = name;
          tn_apps = [];
          tn_rate_per_ms = 0.0;
          tn_priority = 0;
          tn_slo_ms = 10.0;
          tn_seed = None;
        }
      in
      let rec go acc = function
        | [] ->
          if acc.tn_apps = [] then
            Error (Printf.sprintf "tenant %s: missing apps=..." name)
          else if acc.tn_rate_per_ms <= 0.0 then
            Error (Printf.sprintf "tenant %s: missing rate=..." name)
          else Ok acc
        | f :: rest -> (
          match String.index_opt f '=' with
          | None -> Error (Printf.sprintf "tenant %s: field %S is not key=value" name f)
          | Some i ->
            let key = String.sub f 0 i
            and v = String.sub f (i + 1) (String.length f - i - 1) in
            let* acc =
              match key with
              | "apps" ->
                let* apps = apps_of_string v in
                Ok { acc with tn_apps = apps }
              | "rate" -> (
                match float_of_string_opt v with
                | Some r when r > 0.0 -> Ok { acc with tn_rate_per_ms = r }
                | _ -> Error (Printf.sprintf "tenant %s: bad rate %S" name v))
              | "prio" -> (
                match int_of_string_opt v with
                | Some p -> Ok { acc with tn_priority = p }
                | None -> Error (Printf.sprintf "tenant %s: bad prio %S" name v))
              | "slo" ->
                let* ns = duration_ns_of_string v in
                Ok { acc with tn_slo_ms = float_of_int ns /. 1e6 }
              | "seed" -> (
                match Int64.of_string_opt v with
                | Some s -> Ok { acc with tn_seed = Some s }
                | None -> Error (Printf.sprintf "tenant %s: bad seed %S" name v))
              | _ -> Error (Printf.sprintf "tenant %s: unknown key %S" name key)
            in
            go acc rest)
      in
      go init fields

let tenants_of_spec s =
  let clauses = String.split_on_char ';' s |> List.map String.trim |> List.filter (( <> ) "") in
  if clauses = [] then Error "tenants: empty spec"
  else
    let rec go acc = function
      | [] ->
        let ts = List.rev acc in
        let names = List.map (fun t -> t.tn_name) ts in
        if List.length (List.sort_uniq compare names) <> List.length names then
          Error "tenants: duplicate tenant name"
        else Ok ts
      | c :: rest ->
        let* t = tenant_of_clause c in
        go (t :: acc) rest
    in
    go [] clauses

(* ------------------------------------------------------------------ *)
(* Outcome                                                             *)
(* ------------------------------------------------------------------ *)

type disposition = Pending | Completed | Rejected | Timed_out

let disposition_name = function
  | Pending -> "pending"
  | Completed -> "completed"
  | Rejected -> "rejected"
  | Timed_out -> "timed-out"

type tenant_report = {
  tr_name : string;
  tr_priority : int;
  tr_offered : int;
  tr_admitted : int;
  tr_completed : int;
  tr_shed : int;
  tr_timed_out : int;
  tr_slo_ms : float;
  tr_slo_miss : int;
  tr_p95_ms : float;
  tr_throughput_per_ms : float;
  tr_digest : string;
  tr_verdict : string;
}

type outcome = {
  oc_clock_ns : int;
  oc_drained : bool;
  oc_checkpoint : string option;
  oc_tenants : tenant_report list;
  oc_dispositions : disposition array;
}

type spec = {
  sp_config : Config.t;
  sp_policy : Scheduler.policy;
  sp_seed : int64;
  sp_jitter : float;
  sp_duration_ms : float;
  sp_admission : admission;
  sp_tenants : tenant_spec list;
}

(* ------------------------------------------------------------------ *)
(* Arrival materialization                                             *)
(* ------------------------------------------------------------------ *)

(* The whole open-loop schedule is a pure function of the tenant seeds:
   each tenant draws Poisson inter-arrivals and weighted app picks from
   its own derived stream, so a restored run regenerates the identical
   schedule and only the cursors travel in the checkpoint. *)

type arrival = { ar_t : int; ar_tenant : int; ar_seq : int; ar_spec : App_spec.t }

let tenant_seed ~seed idx tn =
  match tn.tn_seed with Some s -> s | None -> Prng.derive_seed ~seed ~index:idx

let materialize sp =
  let duration_ns = int_of_float (sp.sp_duration_ms *. 1e6) in
  let* per_tenant =
    let rec go idx acc = function
      | [] -> Ok (List.rev acc)
      | tn :: rest ->
        let* specs =
          let rec resolve acc = function
            | [] -> Ok (List.rev acc)
            | (name, w) :: tl -> (
              match Reference_apps.by_name name with
              | Ok a -> resolve (List.init w (fun _ -> a) @ acc) tl
              | Error e -> Error (Printf.sprintf "tenant %s: %s" tn.tn_name e))
          in
          resolve [] tn.tn_apps
        in
        let specs = Array.of_list specs in
        let prng = Prng.create ~seed:(tenant_seed ~seed:sp.sp_seed idx tn) in
        let mean_ns = 1e6 /. tn.tn_rate_per_ms in
        let rec gen t seq acc =
          let dt = max 1 (int_of_float (Float.round (Prng.exponential prng ~mean:mean_ns))) in
          let t = t + dt in
          if t >= duration_ns then List.rev acc
          else
            let a =
              { ar_t = t; ar_tenant = idx; ar_seq = seq;
                ar_spec = specs.(Prng.int prng (Array.length specs)) }
            in
            gen t (seq + 1) (a :: acc)
        in
        go (idx + 1) (gen 0 0 [] :: acc) rest
    in
    go 0 [] sp.sp_tenants
  in
  let all =
    List.concat per_tenant
    |> List.sort (fun a b -> compare (a.ar_t, a.ar_tenant, a.ar_seq) (b.ar_t, b.ar_tenant, b.ar_seq))
  in
  Ok (duration_ns, Array.of_list all)

let workload_of ~duration_ns (arrivals : arrival array) =
  let counts = Hashtbl.create 8 in
  let items =
    Array.to_list arrivals
    |> List.map (fun a ->
           let name = a.ar_spec.App_spec.app_name in
           let n = Option.value ~default:0 (Hashtbl.find_opt counts name) in
           Hashtbl.replace counts name (n + 1);
           { Workload.spec = a.ar_spec; arrival_ns = a.ar_t; instance = n })
  in
  { Workload.items; window_ns = duration_ns }

let materialize_debug sp =
  match materialize sp with
  | Error e -> failwith e
  | Ok (_, arrivals) ->
    Array.to_list arrivals
    |> List.map (fun a -> (a.ar_t, a.ar_tenant, a.ar_seq, a.ar_spec.App_spec.app_name))

(* ------------------------------------------------------------------ *)
(* Digests                                                             *)
(* ------------------------------------------------------------------ *)

let store_digest (store : Store.t) =
  let buf = Buffer.create 256 in
  List.iter
    (fun name ->
      Buffer.add_string buf name;
      Buffer.add_char buf '\000';
      Buffer.add_bytes buf (Store.get_raw store name);
      Buffer.add_char buf '\000')
    (Store.names store);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let chain_digest prev ~inst_id ~digest =
  Digest.to_hex (Digest.string (Printf.sprintf "%s|%d|%s" prev inst_id digest))

(* Static-spec fingerprint: a restore must replay against the same
   platform, policy, seeds, tenants and admission settings. *)
let fingerprint sp =
  let b = Buffer.create 256 in
  Buffer.add_string b sp.sp_config.Config.host.Host.name;
  List.iter
    (fun (p : Config.placement) ->
      Buffer.add_string b p.Config.pe.Pe.label;
      Buffer.add_char b ';')
    sp.sp_config.Config.placements;
  Buffer.add_string b sp.sp_policy.Scheduler.name;
  Buffer.add_string b (Int64.to_string sp.sp_seed);
  Buffer.add_string b (Printf.sprintf "|%.9g|%.9g|" sp.sp_jitter sp.sp_duration_ms);
  Buffer.add_string b
    (Printf.sprintf "%s:%d:%d:%d|" (overload_name sp.sp_admission.ad_policy)
       sp.sp_admission.ad_queue sp.sp_admission.ad_max_ready sp.sp_admission.ad_timeout_ns);
  List.iteri
    (fun i tn ->
      Buffer.add_string b
        (Printf.sprintf "%s:%s:%.9g:%d:%.9g:%Ld|" tn.tn_name
           (String.concat "+" (List.map (fun (n, w) -> Printf.sprintf "%s*%d" n w) tn.tn_apps))
           tn.tn_rate_per_ms tn.tn_priority tn.tn_slo_ms
           (tenant_seed ~seed:sp.sp_seed i tn)))
    sp.sp_tenants;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ------------------------------------------------------------------ *)
(* Runtime state                                                       *)
(* ------------------------------------------------------------------ *)

(* Internal per-instance state; only the final four survive a drain. *)
type disp = D_pending | D_queued | D_admitted | D_completed | D_shed | D_timed_out

(* An int ring buffer: an admission queue admits from the front and,
   under Degrade, sheds from the back.  Degrade can push past the
   queue bound (the arrival displaces another tenant's instance), so
   it grows. *)
module Deque = struct
  type t = { mutable buf : int array; mutable head : int; mutable len : int }

  let create () = { buf = Array.make 8 0; head = 0; len = 0 }
  let length q = q.len
  let slot q k = (q.head + k) land (Array.length q.buf - 1)

  let push q x =
    if q.len = Array.length q.buf then begin
      q.buf <- Array.init (2 * q.len) (fun k -> if k < q.len then q.buf.(slot q k) else 0);
      q.head <- 0
    end;
    q.buf.(slot q q.len) <- x;
    q.len <- q.len + 1

  let pop_front q =
    let x = q.buf.(q.head) in
    q.head <- slot q 1;
    q.len <- q.len - 1;
    x

  let pop_back q =
    q.len <- q.len - 1;
    q.buf.(slot q q.len)
end

type tstate = {
  ts_spec : tenant_spec;
  ts_slo_ns : int;
  mutable ts_sched : int array;  (* instance ids in tenant arrival order *)
  mutable ts_cursor : int;
  ts_queue : Deque.t;  (* admission queue, oldest first *)
  mutable ts_offered : int;
  mutable ts_admitted : int;
  mutable ts_completed : int;
  mutable ts_shed : int;
  mutable ts_timed_out : int;
  mutable ts_slo_miss : int;
  mutable ts_latencies : int list;  (* newest first *)
  mutable ts_digest : string;
}

type stop_reason = Running | Finished | Drained

(* ------------------------------------------------------------------ *)
(* Checkpoint file (version 1)                                         *)
(* ------------------------------------------------------------------ *)

let checkpoint_version = 1

let dispositions_string dispo =
  String.init (Array.length dispo) (fun i ->
      match dispo.(i) with
      | D_pending -> 'P'
      | D_completed -> 'C'
      | D_shed -> 'S'
      | D_timed_out -> 'T'
      | D_queued | D_admitted -> 'X' (* impossible at a quiescent instant *))

let checkpoint_json ~fp ~clock ~prng ~(handlers : Compiled_engine.handler_snapshot array)
    ~(states : tstate array) ~dispo =
  let s0, s1, s2, s3 = prng in
  Json.obj
    [
      ("version", Json.int checkpoint_version);
      ("fingerprint", Json.str fp);
      ("clock_ns", Json.int clock);
      ( "prng",
        Json.list (List.map (fun x -> Json.str (Int64.to_string x)) [ s0; s1; s2; s3 ]) );
      ( "handlers",
        Json.list
          (Array.to_list handlers
          |> List.map (fun (h : Compiled_engine.handler_snapshot) ->
                 Json.obj
                   [
                     ("busy_until", Json.int h.Compiled_engine.hs_busy_until);
                     ("busy_ns", Json.int h.Compiled_engine.hs_busy_ns);
                     ("tasks_run", Json.int h.Compiled_engine.hs_tasks_run);
                   ])) );
      ( "tenants",
        Json.list
          (Array.to_list states
          |> List.map (fun ts ->
                 Json.obj
                   [
                     ("name", Json.str ts.ts_spec.tn_name);
                     ("cursor", Json.int ts.ts_cursor);
                     ("offered", Json.int ts.ts_offered);
                     ("admitted", Json.int ts.ts_admitted);
                     ("completed", Json.int ts.ts_completed);
                     ("shed", Json.int ts.ts_shed);
                     ("timed_out", Json.int ts.ts_timed_out);
                     ("slo_miss", Json.int ts.ts_slo_miss);
                     ("latencies", Json.list (List.rev_map Json.int ts.ts_latencies));
                     ("digest", Json.str ts.ts_digest);
                   ])) );
      ("dispositions", Json.str (dispositions_string dispo));
    ]

let write_checkpoint ~path json =
  let tmp = path ^ ".tmp" in
  Json.to_file tmp json;
  Sys.rename tmp path

let mem_int key j = Result.bind (Json.member key j) Json.to_int
let mem_str key j = Result.bind (Json.member key j) Json.to_str
let mem_list key j = Result.bind (Json.member key j) Json.to_list

let load_checkpoint ~path ~fp ~(states : tstate array) ~dispo =
  let* j = Result.map_error Json.error_to_string (Json.of_file path) in
  let* v = mem_int "version" j in
  let* () =
    if v <> checkpoint_version then
      Error (Printf.sprintf "checkpoint %s: unsupported version %d (want %d)" path v
               checkpoint_version)
    else Ok ()
  in
  let* file_fp = mem_str "fingerprint" j in
  let* () =
    if file_fp <> fp then
      Error (Printf.sprintf "checkpoint %s: spec fingerprint mismatch (run the same \
                             --tenants/--admission/seed/platform as the checkpointing server)" path)
    else Ok ()
  in
  let* clock = mem_int "clock_ns" j in
  let* prng =
    let* l = mem_list "prng" j in
    match l with
    | [ a; b; c; d ] ->
      let word x =
        let* s = Json.to_str x in
        match Int64.of_string_opt s with
        | Some v -> Ok v
        | None -> Error (Printf.sprintf "checkpoint %s: bad prng word %S" path s)
      in
      let* a = word a in
      let* b = word b in
      let* c = word c in
      let* d = word d in
      Ok (a, b, c, d)
    | _ -> Error (Printf.sprintf "checkpoint %s: prng must have 4 words" path)
  in
  let* handlers =
    let* l = mem_list "handlers" j in
    let rec go acc = function
      | [] -> Ok (Array.of_list (List.rev acc))
      | h :: rest ->
        let* bu = mem_int "busy_until" h in
        let* bn = mem_int "busy_ns" h in
        let* tr = mem_int "tasks_run" h in
        go
          ({ Compiled_engine.hs_busy_until = bu; hs_busy_ns = bn; hs_tasks_run = tr } :: acc)
          rest
    in
    go [] l
  in
  let* tenants = mem_list "tenants" j in
  let* () =
    if List.length tenants <> Array.length states then
      Error (Printf.sprintf "checkpoint %s: tenant count mismatch" path)
    else Ok ()
  in
  let* () =
    let rec go i = function
      | [] -> Ok ()
      | t :: rest ->
        let ts = states.(i) in
        let* name = mem_str "name" t in
        if name <> ts.ts_spec.tn_name then
          Error (Printf.sprintf "checkpoint %s: tenant %d is %S, spec says %S" path i name
                   ts.ts_spec.tn_name)
        else
          let* cursor = mem_int "cursor" t in
          let* offered = mem_int "offered" t in
          let* admitted = mem_int "admitted" t in
          let* completed = mem_int "completed" t in
          let* shed = mem_int "shed" t in
          let* timed_out = mem_int "timed_out" t in
          let* slo_miss = mem_int "slo_miss" t in
          let* digest = mem_str "digest" t in
          let* lats =
            let* l = mem_list "latencies" t in
            let rec conv acc = function
              | [] -> Ok acc (* chronological list folded into newest-first *)
              | x :: rest ->
                let* v = Json.to_int x in
                conv (v :: acc) rest
            in
            conv [] l
          in
          if cursor < 0 || cursor > Array.length ts.ts_sched then
            Error (Printf.sprintf "checkpoint %s: tenant %S cursor out of range" path name)
          else begin
            ts.ts_cursor <- cursor;
            ts.ts_offered <- offered;
            ts.ts_admitted <- admitted;
            ts.ts_completed <- completed;
            ts.ts_shed <- shed;
            ts.ts_timed_out <- timed_out;
            ts.ts_slo_miss <- slo_miss;
            ts.ts_latencies <- lats;
            ts.ts_digest <- digest;
            go (i + 1) rest
          end
    in
    go 0 tenants
  in
  let* ds = mem_str "dispositions" j in
  let* () =
    if String.length ds <> Array.length dispo then
      Error (Printf.sprintf "checkpoint %s: disposition count mismatch" path)
    else Ok ()
  in
  let* () =
    let err = ref None in
    String.iteri
      (fun i c ->
        match c with
        | 'P' -> dispo.(i) <- D_pending
        | 'C' -> dispo.(i) <- D_completed
        | 'S' -> dispo.(i) <- D_shed
        | 'T' -> dispo.(i) <- D_timed_out
        | c ->
          if !err = None then
            err := Some (Printf.sprintf "checkpoint %s: bad disposition %C" path c))
      ds;
    match !err with Some e -> Error e | None -> Ok ()
  in
  let* () =
    if not (String.contains ds 'P') then
      Error (Printf.sprintf "checkpoint %s: contains no pending work (the run it was taken \
                             from already finished)" path)
    else Ok ()
  in
  Ok { Compiled_engine.rs_clock = clock; rs_prng = prng; rs_handlers = handlers }

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

let p95_ns lats =
  match lats with
  | [] -> 0
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    let idx = max 0 (int_of_float (Float.ceil (0.95 *. float_of_int n)) - 1) in
    a.(idx)

let tenant_reports ~clock_ns (states : tstate array) =
  let reports =
    Array.to_list states
    |> List.map (fun ts ->
           let verdict =
             match (ts.ts_shed > 0, ts.ts_timed_out > 0) with
             | false, false -> "ok"
             | true, false -> "shed"
             | false, true -> "timeout"
             | true, true -> "shed+timeout"
           in
           {
             tr_name = ts.ts_spec.tn_name;
             tr_priority = ts.ts_spec.tn_priority;
             tr_offered = ts.ts_offered;
             tr_admitted = ts.ts_admitted;
             tr_completed = ts.ts_completed;
             tr_shed = ts.ts_shed;
             tr_timed_out = ts.ts_timed_out;
             tr_slo_ms = ts.ts_spec.tn_slo_ms;
             tr_slo_miss = ts.ts_slo_miss;
             tr_p95_ms = float_of_int (p95_ns ts.ts_latencies) /. 1e6;
             tr_throughput_per_ms =
               (if clock_ns <= 0 then 0.0
                else float_of_int ts.ts_completed /. (float_of_int clock_ns /. 1e6));
             tr_digest = ts.ts_digest;
             tr_verdict = verdict;
           })
  in
  List.stable_sort
    (fun a b -> compare (-a.tr_priority, a.tr_name) (-b.tr_priority, b.tr_name))
    reports

let render_report (oc : outcome) =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "serve report: clock %.3f ms, %d tenants%s\n"
       (float_of_int oc.oc_clock_ns /. 1e6)
       (List.length oc.oc_tenants)
       (if oc.oc_drained then " (drained)" else ""));
  Buffer.add_string b
    "tenant           prio  offered  admitted  completed  shed  timeout  thr/ms  p95_ms  slo_ms  slo_miss  verdict       digest\n";
  List.iter
    (fun tr ->
      Buffer.add_string b
        (Printf.sprintf "%-16s %4d  %7d  %8d  %9d  %4d  %7d  %6.3f  %6.3f  %6.3f  %8d  %-12s  %s\n"
           tr.tr_name tr.tr_priority tr.tr_offered tr.tr_admitted tr.tr_completed tr.tr_shed
           tr.tr_timed_out tr.tr_throughput_per_ms tr.tr_p95_ms tr.tr_slo_ms tr.tr_slo_miss
           tr.tr_verdict tr.tr_digest))
    oc.oc_tenants;
  let tot f = List.fold_left (fun acc tr -> acc + f tr) 0 oc.oc_tenants in
  Buffer.add_string b
    (Printf.sprintf "total: offered %d, admitted %d, completed %d, shed %d, timed-out %d\n"
       (tot (fun t -> t.tr_offered))
       (tot (fun t -> t.tr_admitted))
       (tot (fun t -> t.tr_completed))
       (tot (fun t -> t.tr_shed))
       (tot (fun t -> t.tr_timed_out)));
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* The service                                                         *)
(* ------------------------------------------------------------------ *)

let run ?(obs = Obs.disabled) ?(drain = fun ~now_ns:_ -> false) ?checkpoint ?restore sp =
  let* () =
    if sp.sp_duration_ms <= 0.0 then Error "serve: duration must be positive" else Ok ()
  in
  let* duration_ns, arrivals = materialize sp in
  let n = Array.length arrivals in
  let fp = fingerprint sp in
  (* instance id -> (tenant, seq, arrival time) *)
  let meta = arrivals in
  let states =
    Array.of_list
      (List.map
         (fun tn ->
           {
             ts_spec = tn;
             ts_slo_ns = int_of_float (tn.tn_slo_ms *. 1e6);
             ts_sched = [||];
             ts_cursor = 0;
             ts_queue = Deque.create ();
             ts_offered = 0;
             ts_admitted = 0;
             ts_completed = 0;
             ts_shed = 0;
             ts_timed_out = 0;
             ts_slo_miss = 0;
             ts_latencies = [];
             ts_digest = "";
           })
         sp.sp_tenants)
  in
  (* per-tenant schedules: instance ids in tenant arrival order *)
  Array.iteri
    (fun ti ts ->
      let ids = ref [] in
      Array.iteri (fun i a -> if a.ar_tenant = ti then ids := i :: !ids) meta;
      ts.ts_sched <- Array.of_list (List.rev !ids))
    states;
  let dispo = Array.make n D_pending in
  let* resume =
    match restore with
    | None -> Ok None
    | Some path -> Result.map Option.some (load_checkpoint ~path ~fp ~states ~dispo)
  in
  let adm = sp.sp_admission in
  (* tenants in admission-pull order: priority descending, ties by
     declaration order *)
  let pull_order =
    let idx = Array.init (Array.length states) Fun.id in
    Array.stable_sort
      (fun a b -> compare states.(b).ts_spec.tn_priority states.(a).ts_spec.tn_priority)
      idx;
    idx
  in
  (* Admitted instances in admission order: completions and time-outs
     are processed in this order, which the per-tenant digest chains and
     the event log depend on. *)
  let active = Vec.create () in
  let watchdog = adm.ad_timeout_ns > 0 in
  let deadline i = meta.(i).ar_t + adm.ad_timeout_ns in
  (* The earliest watchdog deadline over [active] ([max_int] when none)
     and the engine's completed-instance count at the last harvest: a
     tick harvests only when one of them says there is work. *)
  let wd_first = ref max_int in
  let harvested = ref 0 in
  let final_now = ref 0 in
  let stop_reason = ref Running in
  let workload = workload_of ~duration_ns arrivals in
  (* The engine models time only; a completion's output digest comes
     from its functional image, hashed once per distinct image. *)
  let digests = Functional.memo ~pes:(Config.pes sp.sp_config) store_digest in
  let service (instances : Task.instance array) =
    let no_running (inst : Task.instance) =
      Array.for_all (fun (t : Task.t) -> t.Task.status <> Task.Running) inst.Task.tasks
    in
    let record_completion i =
      let inst = instances.(i) in
      let a = meta.(i) in
      let ts = states.(a.ar_tenant) in
      let lat = inst.Task.completed_at - a.ar_t in
      ts.ts_completed <- ts.ts_completed + 1;
      ts.ts_latencies <- lat :: ts.ts_latencies;
      if lat > ts.ts_slo_ns then ts.ts_slo_miss <- ts.ts_slo_miss + 1;
      ts.ts_digest <-
        chain_digest ts.ts_digest ~inst_id:i ~digest:(Functional.image digests inst);
      dispo.(i) <- D_completed
    in
    let shed_instance ~now ~victim_tenant i =
      let ts = states.(victim_tenant) in
      ts.ts_shed <- ts.ts_shed + 1;
      dispo.(i) <- D_shed;
      if Obs.enabled obs then
        Obs.on_tenant_shed obs ~now ~tenant:ts.ts_spec.tn_name ~instance:i
          ~queue_depth:(Deque.length ts.ts_queue)
    in
    let time_out ~now i =
      let a = meta.(i) in
      let ts = states.(a.ar_tenant) in
      ts.ts_timed_out <- ts.ts_timed_out + 1;
      dispo.(i) <- D_timed_out;
      if Obs.enabled obs then
        Obs.on_instance_timed_out obs ~now ~tenant:ts.ts_spec.tn_name ~instance:i
          ~age_ns:(now - a.ar_t)
    in
    let enqueue ts i =
      Deque.push ts.ts_queue i;
      dispo.(i) <- D_queued
    in
    let sv_tick (ops : Compiled_engine.service_ops) ~now =
      (* 1. harvest completions; run the watchdog over admitted work *)
      let completed = ops.Compiled_engine.so_completed () in
      if completed <> !harvested || !wd_first <= now then begin
        harvested := completed;
        wd_first := max_int;
        Vec.filter_in_place
          (fun i ->
            let inst = instances.(i) in
            if inst.Task.completed_at >= 0 then begin
              record_completion i;
              false
            end
            else if watchdog && now >= deadline i && no_running inst then begin
              ops.Compiled_engine.so_cancel inst;
              time_out ~now i;
              false
            end
            else begin
              if watchdog then wd_first := min !wd_first (deadline i);
              true
            end)
          active
      end;
      (* 2. consume due arrivals through admission control *)
      Array.iteri
        (fun ti ts ->
          let continue_ = ref true in
          while !continue_ && ts.ts_cursor < Array.length ts.ts_sched do
            let i = ts.ts_sched.(ts.ts_cursor) in
            if meta.(i).ar_t > now then continue_ := false
            else begin
              let room = Deque.length ts.ts_queue < adm.ad_queue in
              match adm.ad_policy with
              | Block ->
                if room then begin
                  ts.ts_cursor <- ts.ts_cursor + 1;
                  ts.ts_offered <- ts.ts_offered + 1;
                  enqueue ts i
                end
                else continue_ := false (* stream stalls until the queue drains *)
              | Shed ->
                ts.ts_cursor <- ts.ts_cursor + 1;
                ts.ts_offered <- ts.ts_offered + 1;
                if room then enqueue ts i else shed_instance ~now ~victim_tenant:ti i
              | Degrade ->
                ts.ts_cursor <- ts.ts_cursor + 1;
                ts.ts_offered <- ts.ts_offered + 1;
                if room then enqueue ts i
                else begin
                  (* displace the newest queued instance of the
                     lowest-priority tenant strictly below ours (first
                     declared wins a priority tie) *)
                  let victim = ref None in
                  Array.iteri
                    (fun vi vts ->
                      if
                        vts.ts_spec.tn_priority < ts.ts_spec.tn_priority
                        && Deque.length vts.ts_queue > 0
                      then
                        match !victim with
                        | Some best
                          when states.(best).ts_spec.tn_priority
                               <= vts.ts_spec.tn_priority -> ()
                        | _ -> victim := Some vi)
                    states;
                  match !victim with
                  | Some vti ->
                    shed_instance ~now ~victim_tenant:vti
                      (Deque.pop_back states.(vti).ts_queue);
                    enqueue ts i
                  | None -> shed_instance ~now ~victim_tenant:ti i
                end
            end
          done)
        states;
      (* 3. pull from admission queues, priority first, while the ready
         list has room *)
      let made = ref 0 in
      let continue_ = ref true in
      while !continue_ && ops.Compiled_engine.so_ready_live () < adm.ad_max_ready do
        let picked = ref None in
        Array.iter
          (fun ti ->
            if !picked = None && Deque.length states.(ti).ts_queue > 0 then picked := Some ti)
          pull_order;
        match !picked with
        | None -> continue_ := false
        | Some ti ->
          let ts = states.(ti) in
          let i = Deque.pop_front ts.ts_queue in
          if watchdog && now >= deadline i then time_out ~now i
          else begin
            made := !made + ops.Compiled_engine.so_inject instances.(i);
            ts.ts_admitted <- ts.ts_admitted + 1;
            dispo.(i) <- D_admitted;
            Vec.push active i;
            if watchdog then wd_first := min !wd_first (deadline i);
            if Obs.enabled obs then
              Obs.on_tenant_admitted obs ~now ~tenant:ts.ts_spec.tn_name ~instance:i
                ~queue_depth:(Deque.length ts.ts_queue)
          end
      done;
      !made
    in
    let sv_next ~now =
      let best = ref None in
      let add t = match !best with Some b when b <= t -> () | _ -> best := Some t in
      Array.iter
        (fun ts ->
          if ts.ts_cursor < Array.length ts.ts_sched then begin
            let t = meta.(ts.ts_sched.(ts.ts_cursor)).ar_t in
            (* a stalled (Block) stream head is in the past: admission
               room only opens on completions, which wake the WM *)
            if t > now then add t
          end)
        states;
      (* The earliest deadline is the answer unless it has passed (an
         expired instance still has a task running, or expired during
         this tick): then look for the earliest one still ahead. *)
      if !wd_first > now then (if !wd_first < max_int then add !wd_first)
      else
        Vec.iter
          (fun i ->
            let e = deadline i in
            if e > now then add e)
          active;
      !best
    in
    let sv_finished (ops : Compiled_engine.service_ops) ~now =
      let queues_empty = Array.for_all (fun ts -> Deque.length ts.ts_queue = 0) states in
      let idle = queues_empty && Vec.is_empty active in
      let all_consumed =
        Array.for_all (fun ts -> ts.ts_cursor >= Array.length ts.ts_sched) states
      in
      if idle && all_consumed then begin
        final_now := now;
        stop_reason := Finished;
        true
      end
      else if
        idle && drain ~now_ns:now
        && ops.Compiled_engine.so_ready_live () = 0
        && ops.Compiled_engine.so_inflight () = 0
      then begin
        final_now := now;
        stop_reason := Drained;
        true
      end
      else false
    in
    { Compiled_engine.sv_tick; sv_next; sv_finished }
  in
  let params = { Core.seed = sp.sp_seed; jitter = sp.sp_jitter; reservation_depth = 0 } in
  match
    let plan =
      Compiled_engine.compile ~config:sp.sp_config ~workload ~policy:sp.sp_policy ()
    in
    Compiled_engine.run_service ~obs ?resume plan params ~service
  with
  | exception Invalid_argument msg -> Error msg
  | sr ->
    let clock = !final_now in
    let drained = !stop_reason = Drained in
    let written =
      match (drained, checkpoint) with
      | true, Some path ->
        let json =
          checkpoint_json ~fp ~clock ~prng:sr.Compiled_engine.sr_prng
            ~handlers:sr.Compiled_engine.sr_handlers ~states ~dispo
        in
        write_checkpoint ~path json;
        let done_ =
          Array.fold_left
            (fun acc -> function D_completed | D_shed | D_timed_out -> acc + 1 | _ -> acc)
            0 dispo
        in
        if Obs.enabled obs then
          Obs.on_checkpoint_written obs ~now:clock ~path ~instances_done:done_;
        Some path
      | _ -> None
    in
    let dispositions =
      Array.map
        (function
          | D_pending -> Pending
          | D_completed -> Completed
          | D_shed -> Rejected
          | D_timed_out -> Timed_out
          | D_queued | D_admitted ->
            (* unreachable: termination implies empty queues and no
               outstanding admitted instance *)
            Pending)
        dispo
    in
    Ok
      {
        oc_clock_ns = clock;
        oc_drained = drained;
        oc_checkpoint = written;
        oc_tenants = tenant_reports ~clock_ns:clock states;
        oc_dispositions = dispositions;
      }
