module Prng = Dssoc_util.Prng
module Json = Dssoc_json.Json
module Config = Dssoc_soc.Config
module Host = Dssoc_soc.Host
module Pe = Dssoc_soc.Pe
module App_spec = Dssoc_apps.App_spec
module Store = Dssoc_apps.Store
module Reference_apps = Dssoc_apps.Reference_apps
module Core = Dssoc_runtime.Engine_core
module Task = Dssoc_runtime.Task
module Scheduler = Dssoc_runtime.Scheduler
module Compiled_engine = Dssoc_runtime.Compiled_engine
module Functional = Dssoc_runtime.Functional
module Exec_model = Dssoc_runtime.Exec_model
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
(* Arrival streams                                                     *)
(* ------------------------------------------------------------------ *)

(* The whole open-loop schedule is a pure function of the tenant seeds:
   each tenant draws Poisson inter-arrivals and weighted app picks from
   its own derived stream, one arrival at a time, so the server holds
   only each stream's next arrival.  A restored run regenerates the
   streams up to the cursors in the checkpoint. *)

let tenant_seed ~seed idx tn =
  match tn.tn_seed with Some s -> s | None -> Prng.derive_seed ~seed ~index:idx

(* The distinct apps of all tenants, in order of first mention, and
   each tenant's weighted mix as indices into them. *)
let resolve_apps sp =
  let index = Hashtbl.create 8 and specs = ref [] in
  let app tn name =
    match Hashtbl.find_opt index name with
    | Some k -> Ok k
    | None -> (
      match Reference_apps.by_name name with
      | Ok a ->
        let k = Hashtbl.length index in
        Hashtbl.replace index name k;
        specs := a :: !specs;
        Ok k
      | Error e -> Error (Printf.sprintf "tenant %s: %s" tn.tn_name e))
  in
  let rec mix tn acc = function
    | [] -> Ok (Array.of_list (List.rev acc))
    | (name, w) :: rest ->
      let* k = app tn name in
      mix tn (List.init w (fun _ -> k) @ acc) rest
  in
  let rec tenants acc = function
    | [] -> Ok (List.rev !specs, Array.of_list (List.rev acc))
    | tn :: rest ->
      let* m = mix tn [] tn.tn_apps in
      tenants (m :: acc) rest
  in
  tenants [] sp.sp_tenants

(* One tenant's stream; its head is the next arrival not yet merged. *)
type stream = {
  st_prng : Prng.t;
  st_mix : int array;  (* app per weighted slot *)
  st_mean_ns : float;
  mutable st_t : int;  (* head arrival time; at or past the window end once exhausted *)
  mutable st_seq : int;  (* head's position in the tenant's stream *)
  mutable st_app : int;
}

let draw ~end_ns st =
  let dt = Float.round (Prng.exponential st.st_prng ~mean:st.st_mean_ns) in
  let dt = Int.max 1 (int_of_float dt) in
  st.st_t <- st.st_t + dt;
  if st.st_t < end_ns then st.st_app <- st.st_mix.(Prng.int st.st_prng (Array.length st.st_mix))

(* Arrivals from the head on, counted on a copy of the stream. *)
let remaining ~end_ns st =
  let c = { st with st_prng = Prng.copy st.st_prng } in
  let n = ref 0 in
  while c.st_t < end_ns do
    incr n;
    draw ~end_ns c
  done;
  !n

type arrival = {
  ar_t : int;
  ar_tenant : int;
  ar_seq : int;
  ar_id : int;  (* position in the merged schedule: the instance id *)
  ar_app : int;
  ar_base : int;  (* first task id of its instance *)
}

(* The tenant streams merged in (time, tenant, seq) order.  A stream's
   times strictly increase, so the earliest head, lowest tenant first
   on a tie, is next. *)
type schedule = {
  end_ns : int;
  streams : stream array;
  tasks_of : int array;  (* task count per app *)
  mutable next_id : int;
  mutable next_base : int;
}

let exhausted sc st = st.st_t >= sc.end_ns

let schedule sp ~specs ~mixes =
  let end_ns = int_of_float (sp.sp_duration_ms *. 1e6) in
  let tasks_of =
    Array.of_list (List.map (fun (a : App_spec.t) -> List.length a.App_spec.nodes) specs)
  in
  let streams =
    Array.of_list
      (List.mapi
         (fun idx tn ->
           let st =
             {
               st_prng = Prng.create ~seed:(tenant_seed ~seed:sp.sp_seed idx tn);
               st_mix = mixes.(idx);
               st_mean_ns = 1e6 /. tn.tn_rate_per_ms;
               st_t = 0;
               st_seq = 0;
               st_app = 0;
             }
           in
           draw ~end_ns st;
           st)
         sp.sp_tenants)
  in
  { end_ns; streams; tasks_of; next_id = 0; next_base = 0 }

(* Merge the next arrival at or before [upto], if any. *)
let next_due sc ~upto =
  let best = ref (-1) in
  Array.iteri
    (fun i st ->
      if (not (exhausted sc st)) && st.st_t <= upto
         && (!best < 0 || st.st_t < sc.streams.(!best).st_t)
      then best := i)
    sc.streams;
  if !best < 0 then None
  else begin
    let st = sc.streams.(!best) in
    let a =
      { ar_t = st.st_t; ar_tenant = !best; ar_seq = st.st_seq; ar_id = sc.next_id;
        ar_app = st.st_app; ar_base = sc.next_base }
    in
    sc.next_id <- sc.next_id + 1;
    sc.next_base <- sc.next_base + sc.tasks_of.(st.st_app);
    st.st_seq <- st.st_seq + 1;
    draw ~end_ns:sc.end_ns st;
    Some a
  end


(* Every arrival of the window: merged ones plus what the streams hold. *)
let total_arrivals sc =
  Array.fold_left (fun n st -> n + remaining ~end_ns:sc.end_ns st) sc.next_id sc.streams

let materialize_debug sp =
  match resolve_apps sp with
  | Error e -> failwith e
  | Ok (specs, mixes) ->
    let names = Array.of_list (List.map (fun (a : App_spec.t) -> a.App_spec.app_name) specs) in
    let sc = schedule sp ~specs ~mixes in
    let rec go acc =
      match next_due sc ~upto:max_int with
      | None -> List.rev acc
      | Some a -> go ((a.ar_t, a.ar_tenant, a.ar_seq, names.(a.ar_app)) :: acc)
    in
    go []

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
  Digest.to_hex (Digest.string (String.concat "|" [ prev; string_of_int inst_id; digest ]))

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

(* Each merged arrival's state is one byte of [dispo]: 'P' pending,
   'Q' queued, 'A' admitted, then its final disposition 'C' completed,
   'S' shed or 'T' timed out.  Only the final three and 'P' survive a
   drain. *)
module Dispo = struct
  type t = { mutable bytes : Bytes.t; mutable len : int }

  let create () = { bytes = Bytes.make 1024 'P'; len = 0 }

  let set d i c =
    if i >= Bytes.length d.bytes then begin
      let b = Bytes.make (max (2 * Bytes.length d.bytes) (i + 1)) 'P' in
      Bytes.blit d.bytes 0 b 0 d.len;
      d.bytes <- b
    end;
    Bytes.set d.bytes i c;
    if i >= d.len then d.len <- i + 1

  (* Arrival [i]'s state; one not merged yet is pending. *)
  let get d i = if i < d.len then Bytes.get d.bytes i else 'P'
end

(* A ring buffer: an admission queue admits from the front and, under
   Degrade, sheds from the back.  Degrade can push past the queue bound
   (the arrival displaces another tenant's instance), so it grows. *)
module Deque = struct
  type 'a t = { mutable buf : 'a array; mutable head : int; mutable len : int }

  let create () = { buf = [||]; head = 0; len = 0 }
  let length q = q.len
  let slot q k = (q.head + k) land (Array.length q.buf - 1)

  let push q x =
    if q.len = Array.length q.buf then begin
      q.buf <- Array.init (max 8 (2 * q.len)) (fun k -> if k < q.len then q.buf.(slot q k) else x);
      q.head <- 0
    end;
    q.buf.(slot q q.len) <- x;
    q.len <- q.len + 1

  let front q = q.buf.(q.head)
  let to_seq q = Seq.init q.len (fun k -> q.buf.(slot q k))

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
  mutable ts_cursor : int;  (* arrivals admission control has consumed *)
  ts_due : arrival Deque.t;
      (* merged arrivals not yet consumed, oldest first: a Block stream
         stalls here *)
  ts_queue : arrival Deque.t;  (* admission queue, oldest first *)
  mutable ts_offered : int;
  mutable ts_admitted : int;
  mutable ts_completed : int;
  mutable ts_shed : int;
  mutable ts_timed_out : int;
  mutable ts_slo_miss : int;
  ts_latencies : int Vec.t;  (* in completion order *)
  mutable ts_digest : string;
}

(* An admitted instance, in flight until it completes or times out. *)
type admitted = { ad_tenant : int; ad_inst : Task.state }

type stop_reason = Running | Finished | Drained

(* ------------------------------------------------------------------ *)
(* Checkpoint file (version 1)                                         *)
(* ------------------------------------------------------------------ *)

let checkpoint_version = 1

let dispositions_string dispo ~total =
  String.init total (fun i ->
      match Dispo.get dispo i with
      | ('P' | 'C' | 'S' | 'T') as c -> c
      | _ -> 'X' (* queued or admitted: impossible at a quiescent instant *))

let checkpoint_json ~fp ~clock ~prng ~(handlers : Compiled_engine.handler_snapshot array)
    ~(states : tstate array) ~dispositions =
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
                     ("latencies", Json.list (List.map Json.int (Vec.to_list ts.ts_latencies)));
                     ("digest", Json.str ts.ts_digest);
                   ])) );
      ("dispositions", Json.str dispositions);
    ]

let write_checkpoint ~path json =
  let tmp = path ^ ".tmp" in
  Json.to_file tmp json;
  Sys.rename tmp path

let mem_int key j = Result.bind (Json.member key j) Json.to_int
let mem_str key j = Result.bind (Json.member key j) Json.to_str
let mem_list key j = Result.bind (Json.member key j) Json.to_list

(* Skip each tenant's first [cursor] arrivals, merging in schedule order
   so ids and task-id bases come out as in the checkpointed run; an
   arrival merged before every cursor is reached was due but not yet
   consumed, and waits in its tenant's [ts_due]. *)
let replay ~path sc (states : tstate array) =
  let rec go () =
    let behind = ref (-1) in
    Array.iteri
      (fun ti ts -> if !behind < 0 && sc.streams.(ti).st_seq < ts.ts_cursor then behind := ti)
      states;
    if !behind < 0 then Ok ()
    else if exhausted sc sc.streams.(!behind) then
      Error
        (Printf.sprintf "checkpoint %s: tenant %S cursor out of range" path
           states.(!behind).ts_spec.tn_name)
    else begin
      Option.iter
        (fun a ->
          let ts = states.(a.ar_tenant) in
          if a.ar_seq >= ts.ts_cursor then Deque.push ts.ts_due a)
        (next_due sc ~upto:max_int);
      go ()
    end
  in
  go ()

let load_checkpoint ~path ~fp ~sc ~(states : tstate array) ~dispo =
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
          let* lats = mem_list "latencies" t in
          let* () =
            List.fold_left
              (fun acc x ->
                let* () = acc in
                let* v = Json.to_int x in
                Ok (Vec.push ts.ts_latencies v))
              (Ok ()) lats
          in
          if cursor < 0 then
            Error (Printf.sprintf "checkpoint %s: tenant %S cursor out of range" path name)
          else begin
            ts.ts_cursor <- cursor;
            ts.ts_offered <- offered;
            ts.ts_admitted <- admitted;
            ts.ts_completed <- completed;
            ts.ts_shed <- shed;
            ts.ts_timed_out <- timed_out;
            ts.ts_slo_miss <- slo_miss;
            ts.ts_digest <- digest;
            go (i + 1) rest
          end
    in
    go 0 tenants
  in
  let* () = replay ~path sc states in
  let* ds = mem_str "dispositions" j in
  let* () =
    if String.length ds <> total_arrivals sc then
      Error (Printf.sprintf "checkpoint %s: disposition count mismatch" path)
    else Ok ()
  in
  let* () =
    match Seq.find (fun c -> not (String.contains "PCST" c)) (String.to_seq ds) with
    | Some c -> Error (Printf.sprintf "checkpoint %s: bad disposition %C" path c)
    | None -> Ok ()
  in
  let* () =
    if not (String.contains ds 'P') then
      Error (Printf.sprintf "checkpoint %s: contains no pending work (the run it was taken \
                             from already finished)" path)
    else Ok ()
  in
  String.iteri (fun i c -> if i < sc.next_id then Dispo.set dispo i c) ds;
  Ok { Compiled_engine.rs_clock = clock; rs_prng = prng; rs_handlers = handlers }

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

let p95_ns lats =
  let a = Vec.to_array lats in
  let n = Array.length a in
  if n = 0 then 0
  else begin
    Array.sort Int.compare a;
    a.(max 0 (int_of_float (Float.ceil (0.95 *. float_of_int n)) - 1))
  end

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
  let* specs, mixes = resolve_apps sp in
  let sc = schedule sp ~specs ~mixes in
  let fp = fingerprint sp in
  let states =
    Array.of_list
      (List.map
         (fun tn ->
           {
             ts_spec = tn;
             ts_slo_ns = int_of_float (tn.tn_slo_ms *. 1e6);
             ts_cursor = 0;
             ts_due = Deque.create ();
             ts_queue = Deque.create ();
             ts_offered = 0;
             ts_admitted = 0;
             ts_completed = 0;
             ts_shed = 0;
             ts_timed_out = 0;
             ts_slo_miss = 0;
             ts_latencies = Vec.create ();
             ts_digest = "";
           })
         sp.sp_tenants)
  in
  let dispo = Dispo.create () in
  let* resume =
    match restore with
    | None -> Ok None
    | Some path -> Result.map Option.some (load_checkpoint ~path ~fp ~sc ~states ~dispo)
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
  let deadline t = t + adm.ad_timeout_ns in
  (* The earliest watchdog deadline over [active] ([max_int] when none)
     and the engine's completed-instance count at the last harvest: a
     tick harvests only when one of them says there is work. *)
  let wd_first = ref max_int in
  let harvested = ref 0 in
  let final_now = ref 0 in
  let stop_reason = ref Running in
  match Compiled_engine.compile_specs ~config:sp.sp_config ~specs ~policy:sp.sp_policy () with
  | exception Invalid_argument msg -> Error msg
  | plan ->
  let model = Compiled_engine.model plan in
  let placeholder = Store.create [] in
  (* The engine models time only; a completion's output digest comes
     from its functional image, hashed once per distinct image. *)
  let digests = Functional.memo model store_digest in
  let record_completion { ad_tenant; ad_inst = inst } =
    let ts = states.(ad_tenant) in
    let lat = inst.Task.st_completed_at - inst.Task.st_arrival_ns in
    ts.ts_completed <- ts.ts_completed + 1;
    Vec.push ts.ts_latencies lat;
    if lat > ts.ts_slo_ns then ts.ts_slo_miss <- ts.ts_slo_miss + 1;
    ts.ts_digest <-
      chain_digest ts.ts_digest ~inst_id:inst.Task.st_id ~digest:(Functional.image digests inst);
    Dispo.set dispo inst.Task.st_id 'C'
  in
  let shed_instance ~now ~victim_tenant a =
    let ts = states.(victim_tenant) in
    ts.ts_shed <- ts.ts_shed + 1;
    Dispo.set dispo a.ar_id 'S';
    if Obs.enabled obs then
      Obs.on_tenant_shed obs ~now ~tenant:ts.ts_spec.tn_name ~instance:a.ar_id
        ~queue_depth:(Deque.length ts.ts_queue)
  in
  let time_out ~now ~tenant ~id ~arrival_ns =
    let ts = states.(tenant) in
    ts.ts_timed_out <- ts.ts_timed_out + 1;
    Dispo.set dispo id 'T';
    if Obs.enabled obs then
      Obs.on_instance_timed_out obs ~now ~tenant:ts.ts_spec.tn_name ~instance:id
        ~age_ns:(now - arrival_ns)
  in
  let enqueue ts a =
    Deque.push ts.ts_queue a;
    Dispo.set dispo a.ar_id 'Q'
  in
  let offer ts =
    ts.ts_cursor <- ts.ts_cursor + 1;
    ts.ts_offered <- ts.ts_offered + 1;
    Deque.pop_front ts.ts_due
  in
  let sv_tick (ops : Compiled_engine.service_ops) ~now =
    (* 1. harvest completions; run the watchdog over admitted work *)
    let completed = ops.Compiled_engine.so_completed () in
    if completed <> !harvested || !wd_first <= now then begin
      harvested := completed;
      wd_first := max_int;
      Vec.filter_in_place
        (fun ad ->
          let inst = ad.ad_inst in
          if inst.Task.st_completed_at >= 0 then begin
            record_completion ad;
            false
          end
          else if
            watchdog && now >= deadline inst.Task.st_arrival_ns && ops.Compiled_engine.so_cancel inst
          then begin
            time_out ~now ~tenant:ad.ad_tenant ~id:inst.Task.st_id
              ~arrival_ns:inst.Task.st_arrival_ns;
            false
          end
          else begin
            if watchdog then wd_first := Int.min !wd_first (deadline inst.Task.st_arrival_ns);
            true
          end)
        active
    end;
    (* 2. merge the arrivals now due, then consume them through
       admission control, tenant by tenant *)
    let rec merge () =
      match next_due sc ~upto:now with
      | Some a ->
        Deque.push states.(a.ar_tenant).ts_due a;
        merge ()
      | None -> ()
    in
    merge ();
    Array.iteri
      (fun ti ts ->
        let continue_ = ref true in
        while !continue_ && Deque.length ts.ts_due > 0 do
          let room = Deque.length ts.ts_queue < adm.ad_queue in
          match adm.ad_policy with
          | Block ->
            if room then enqueue ts (offer ts)
            else continue_ := false (* stream stalls until the queue drains *)
          | Shed ->
            let a = offer ts in
            if room then enqueue ts a else shed_instance ~now ~victim_tenant:ti a
          | Degrade ->
            let a = offer ts in
            if room then enqueue ts a
            else begin
              (* displace the newest queued instance of the
                 lowest-priority tenant strictly below ours (first
                 declared wins a priority tie) *)
              let victim = ref (-1) in
              Array.iteri
                (fun vi vts ->
                  if
                    vts.ts_spec.tn_priority < ts.ts_spec.tn_priority
                    && Deque.length vts.ts_queue > 0
                    && (!victim < 0
                       || states.(!victim).ts_spec.tn_priority > vts.ts_spec.tn_priority)
                  then victim := vi)
                states;
              if !victim >= 0 then begin
                let v = !victim in
                shed_instance ~now ~victim_tenant:v (Deque.pop_back states.(v).ts_queue);
                enqueue ts a
              end
              else shed_instance ~now ~victim_tenant:ti a
            end
        done)
      states;
    (* 3. pull from admission queues, priority first, while the ready
       list has room; an instance is built when it is admitted *)
    let made = ref 0 in
    let continue_ = ref true in
    while !continue_ && ops.Compiled_engine.so_ready_live () < adm.ad_max_ready do
      let picked = ref (-1) in
      Array.iter
        (fun ti -> if !picked < 0 && Deque.length states.(ti).ts_queue > 0 then picked := ti)
        pull_order;
      if !picked < 0 then continue_ := false
      else begin
        let ti = !picked in
        let ts = states.(ti) in
        let a = Deque.pop_front ts.ts_queue in
        if watchdog && now >= deadline a.ar_t then
          time_out ~now ~tenant:ti ~id:a.ar_id ~arrival_ns:a.ar_t
        else begin
          let inst =
            Exec_model.state model a.ar_app ~store:placeholder ~task_id_base:a.ar_base
              ~inst_id:a.ar_id ~arrival_ns:a.ar_t
          in
          made := !made + ops.Compiled_engine.so_inject inst;
          ts.ts_admitted <- ts.ts_admitted + 1;
          Dispo.set dispo a.ar_id 'A';
          Vec.push active { ad_tenant = ti; ad_inst = inst };
          if watchdog then wd_first := Int.min !wd_first (deadline a.ar_t);
          if Obs.enabled obs then
            Obs.on_tenant_admitted obs ~now ~tenant:ts.ts_spec.tn_name ~instance:a.ar_id
              ~queue_depth:(Deque.length ts.ts_queue)
        end
      end
    done;
    !made
  in
  let sv_next ~now =
    let best = ref max_int in
    let add t = if t < !best then best := t in
    Array.iteri
      (fun ti ts ->
        (* a stalled (Block) stream head is in the past: admission
           room only opens on completions, which wake the WM *)
        let t =
          if Deque.length ts.ts_due > 0 then (Deque.front ts.ts_due).ar_t
          else sc.streams.(ti).st_t
        in
        if t > now && t < sc.end_ns then add t)
      states;
    (* The earliest deadline is the answer unless it has passed (an
       expired instance still has a task running, or expired during
       this tick): then look for the earliest one still ahead. *)
    if !wd_first > now then (if !wd_first < max_int then add !wd_first)
    else
      Vec.iter
        (fun ad ->
          let e = deadline ad.ad_inst.Task.st_arrival_ns in
          if e > now then add e)
        active;
    if !best = max_int then None else Some !best
  in
  let sv_finished (ops : Compiled_engine.service_ops) ~now =
    let queues_empty = Array.for_all (fun ts -> Deque.length ts.ts_queue = 0) states in
    let idle = queues_empty && Vec.is_empty active in
    let all_consumed =
      Array.for_all (fun ts -> Deque.length ts.ts_due = 0) states
      && Array.for_all (exhausted sc) sc.streams
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
  (* Each tenant's queued and due arrivals, then any app its stream
     may still draw. *)
  let sv_unarrived () =
    let app a = a.ar_app and st ti = sc.streams.(ti) in
    Array.to_seq states
    |> Seq.mapi (fun ti ts ->
           Seq.append (Seq.map app (Seq.append (Deque.to_seq ts.ts_queue) (Deque.to_seq ts.ts_due)))
             (if exhausted sc (st ti) then Seq.empty else Array.to_seq (st ti).st_mix))
    |> Seq.concat
  in
  let params = { Core.seed = sp.sp_seed; jitter = sp.sp_jitter; reservation_depth = 0 } in
  let sr =
    Compiled_engine.serve ~obs ?resume plan params
      { Compiled_engine.sv_tick; sv_next; sv_finished; sv_unarrived }
  in
  let clock = !final_now in
  let drained = !stop_reason = Drained in
  let total = total_arrivals sc in
  let written =
    match (drained, checkpoint) with
    | true, Some path ->
      let json =
        checkpoint_json ~fp ~clock ~prng:sr.Compiled_engine.sr_prng
          ~handlers:sr.Compiled_engine.sr_handlers ~states
          ~dispositions:(dispositions_string dispo ~total)
      in
      write_checkpoint ~path json;
      if Obs.enabled obs then
        Obs.on_checkpoint_written obs ~now:clock ~path
          ~instances_done:(Array.fold_left (fun n ts -> n + ts.ts_completed + ts.ts_shed
                                                     + ts.ts_timed_out) 0 states);
      Some path
    | _ -> None
  in
  Ok
    {
      oc_clock_ns = clock;
      oc_drained = drained;
      oc_checkpoint = written;
      oc_tenants = tenant_reports ~clock_ns:clock states;
      oc_dispositions =
        Array.init total (fun i ->
            match Dispo.get dispo i with
            | 'C' -> Completed
            | 'S' -> Rejected
            | 'T' -> Timed_out
            | _ ->
              (* queued or admitted is unreachable: termination implies
                 empty queues and no outstanding admitted instance *)
              Pending);
    }
