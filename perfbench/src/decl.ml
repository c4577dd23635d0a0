(* The benchmark's declaration, read at run time so names, units,
   directions and bounds live in files rather than in code.
   BENCHMARK.json at the repository root holds the workloads, the
   end-to-end metrics the result line reports and the per-layer metrics;
   perfbench/declaration.json holds what that file's fixed format has no
   room for: each workload's seed use, pass and expected output digests,
   the gates that are not reported as metrics (failed_frac), and for
   every per-layer metric the end-to-end metric and workloads it should
   move. *)

module Json = Dssoc_json.Json

type metric = {
  name : string;
  unit_ : string;
  higher_better : bool;
  bound : float option;  (** end-to-end metrics and gates only *)
}

type workload = {
  w_name : string;
  seed : string;  (** what the run's --seed decides *)
  pass : string;  (** one timed pass, the unit the run's budget is spent in *)
  digests : (string * string) list;  (** seed -> expected output fingerprint *)
}

type should_move = { layer_metric : string; moves : string; on : string list }

type t = {
  run_seconds : float;
  workloads : string list;
  end_to_end : metric list;
  gates : metric list;
  per_layer : metric list;
  details : workload list;
  should_move : should_move list;
}

let ( let* ) = Result.bind

let all f xs =
  List.fold_right
    (fun x acc ->
      let* acc = acc in
      let* y = f x in
      Ok (y :: acc))
    xs (Ok [])

let str k j = Result.bind (Json.member k j) Json.to_str
let list k j = Result.bind (Json.member k j) Json.to_list

let metric j =
  let* name = str "name" j in
  let* unit_ = str "unit" j in
  let* better = str "better" j in
  let* higher_better =
    match better with
    | "higher" -> Ok true
    | "lower" -> Ok false
    | other -> Error (Printf.sprintf "metric %s: better must be higher or lower, got %S" name other)
  in
  let* bound =
    match Json.member_opt "bound" j with
    | None -> Ok None
    | Some b -> Result.map Option.some (Json.to_float b)
  in
  Ok { name; unit_; higher_better; bound }

let workload (w_name, j) =
  let* seed = str "seed" j in
  let* pass = str "pass" j in
  let* digests = Result.bind (Json.member "digests" j) Json.to_obj in
  let* digests = all (fun (s, d) -> Result.map (fun d -> (s, d)) (Json.to_str d)) digests in
  Ok { w_name; seed; pass; digests }

let should_move (layer_metric, j) =
  let* moves = str "metric" j in
  let* on = Result.bind (list "workloads" j) (all Json.to_str) in
  Ok { layer_metric; moves; on }

(* Every name one file uses must be defined by the other. *)
let validate t =
  let missing what names defined =
    match List.filter (fun n -> not (List.mem n defined)) names with
    | [] -> Ok ()
    | ns -> Error (Printf.sprintf "%s: %s" what (String.concat ", " ns))
  in
  let names ms = List.map (fun m -> m.name) ms in
  let* () = missing "workloads without a declaration" t.workloads (List.map (fun w -> w.w_name) t.details) in
  let* () = missing "declared workloads not in BENCHMARK.json" (List.map (fun w -> w.w_name) t.details) t.workloads in
  let* () =
    missing "per-layer metrics without should_move" (names t.per_layer) (List.map (fun s -> s.layer_metric) t.should_move)
  in
  let* () =
    missing "should_move for undeclared per-layer metrics" (List.map (fun s -> s.layer_metric) t.should_move)
      (names t.per_layer)
  in
  let* () =
    missing "should_move names undeclared end-to-end metrics" (List.map (fun s -> s.moves) t.should_move)
      (names t.end_to_end)
  in
  let* () = missing "should_move names undeclared workloads" (List.concat_map (fun s -> s.on) t.should_move) t.workloads in
  Ok t

let of_json ~benchmark ~declaration =
  let* run_seconds = Result.bind (Json.member "run_seconds" benchmark) Json.to_float in
  let* workloads = Result.bind (list "workloads" benchmark) (all (str "name")) in
  let* end_to_end = Result.bind (list "end_to_end" benchmark) (all metric) in
  let* per_layer = Result.bind (list "per_layer" benchmark) (all metric) in
  let* details = Result.bind (Result.bind (Json.member "workloads" declaration) Json.to_obj) (all workload) in
  let* gates = Result.bind (list "gates" declaration) (all metric) in
  let* should_move = Result.bind (Result.bind (Json.member "should_move" declaration) Json.to_obj) (all should_move) in
  validate { run_seconds; workloads; end_to_end; gates; per_layer; details; should_move }

let load ~benchmark ~declaration =
  let read path = Result.map_error (fun e -> path ^ ": " ^ Json.error_to_string e) (Json.of_file path) in
  let* b = read benchmark in
  let* d = read declaration in
  Result.map_error (fun m -> Printf.sprintf "%s, %s: %s" benchmark declaration m) (of_json ~benchmark:b ~declaration:d)

let find t name = List.find_opt (fun m -> m.name = name) (t.end_to_end @ t.gates @ t.per_layer)

let details t name = List.find (fun w -> w.w_name = name) t.details

(* The end-to-end metric a per-layer metric should move on [workload],
   if that workload is one it names. *)
let moves t ~metric ~workload =
  List.find_map (fun s -> if s.layer_metric = metric && List.mem workload s.on then Some s.moves else None) t.should_move
