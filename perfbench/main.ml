(* Performance benchmark of the emulator: design-space campaigns,
   contended resilience and the resident server, measured end to end
   and layer by layer.  Run from the repository root:

     dune exec perfbench/main.exe -- --workload W --seed N --seconds S --trace 0|1
         one run of one workload; the last stdout line is the result
     dune exec perfbench/main.exe -- perf --seed N [--only W] [--quick]
         every workload (or W): five end-to-end runs, then a traced
         one, each in its own child process, one at a time; prints a
         JSON document
     dune exec perfbench/main.exe -- compare OLD.json NEW.json
         one row per (workload, metric) of two [perf] documents

   Metric names, units, directions and bounds come from BENCHMARK.json
   and perfbench/declaration.json, expected output digests from the
   latter.  Trace files and scratch state go to _perf/. *)

open Perfbench
module Json = Dssoc_json.Json

let die fmt = Printf.ksprintf (fun msg -> prerr_endline ("perfbench: " ^ msg); exit 2) fmt

let or_die = function Ok v -> v | Error msg -> die "%s" msg

let decl () = or_die (Decl.load ~benchmark:"BENCHMARK.json" ~declaration:"perfbench/declaration.json")

(* Parse [--key value] and bare [--flag] arguments. *)
let parse_flags ~flags args =
  let rec go acc = function
    | [] -> acc
    | key :: rest when List.mem key flags -> go ((key, "") :: acc) rest
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
      go ((key, value) :: acc) rest
    | arg :: _ -> die "unexpected argument %S" arg
  in
  go [] args

let get opts key = List.assoc_opt key opts

let seed_of opts =
  match Option.map Int64.of_string_opt (get opts "--seed") with
  | Some (Some s) -> s
  | Some None -> die "--seed wants an integer"
  | None -> die "--seed is required"

let float_opt opts key =
  Option.map
    (fun v -> match float_of_string_opt v with Some f -> f | None -> die "%s wants a number" key)
    (get opts key)

let out_dir = "_perf"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* One run of one workload: a detail line, then the result line. *)
let run_one args =
  let opts = parse_flags ~flags:[ "--quick" ] args in
  let decl = decl () in
  let name = match get opts "--workload" with Some w -> w | None -> die "--workload is required" in
  let setup =
    match (List.mem name decl.Decl.workloads, List.assoc_opt name Workloads.all) with
    | true, Some setup -> setup
    | _ -> die "unknown workload %S (declared: %s)" name (String.concat ", " decl.Decl.workloads)
  in
  let trace =
    match get opts "--trace" with
    | Some "0" | None -> false
    | Some "1" -> true
    | Some v -> die "--trace wants 0 or 1, got %S" v
  in
  mkdir_p out_dir;
  let o =
    {
      Workloads.seed = seed_of opts;
      seconds = Option.value ~default:decl.Decl.run_seconds (float_opt opts "--seconds");
      quick = get opts "--quick" <> None;
      out_dir;
    }
  in
  let m = Workloads.run ~digests:(Decl.details decl name).Decl.digests ~trace ~name o setup in
  List.iter (fun p -> prerr_endline ("perfbench: " ^ p)) (List.rev m.Measure.problems);
  print_endline (Report.detail_line ~workload:name ~seed:o.Workloads.seed ~trace m);
  match Report.declared m (if trace then decl.Decl.per_layer else decl.Decl.end_to_end) with
  | Ok values -> print_endline (Report.result_line m values)
  | Error missing -> die "%s: no measurement for %s" name (String.concat ", " missing)

(* Run this executable on one workload in a child process and return
   its detail and result lines. *)
let child args =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name (Array.of_list (Sys.executable_name :: args)) Unix.stdin
      out_w Unix.stderr
  in
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' |> List.filter (( <> ) "") in
  close_in ic;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> (
    let parse l = Result.map_error Json.error_to_string (Json.parse l) in
    let detail =
      List.find_map
        (fun l ->
          match parse l with
          | Ok j when Json.member_opt "perfbench" j <> None -> Some j
          | _ -> None)
        lines
    in
    match (detail, List.rev lines) with
    | Some d, last :: _ -> Result.map (fun r -> (d, r)) (parse last)
    | _ -> Error "no result lines")
  | _ -> Error ("child failed: " ^ String.concat " " args)

(* End-to-end runs per workload: enough for the run-to-run quartiles
   [compare] judges a change by. *)
let timed_runs = 5

let perf args =
  let opts = parse_flags ~flags:[ "--quick" ] args in
  let decl = decl () in
  let seed = seed_of opts and quick = get opts "--quick" <> None in
  let seconds = if quick then 0.0 else decl.Decl.run_seconds in
  let names =
    match get opts "--only" with
    | None -> decl.Decl.workloads
    | Some w when List.mem w decl.Decl.workloads -> [ w ]
    | Some w -> die "unknown workload %S" w
  in
  let run w trace =
    Printf.eprintf "perfbench: %s, trace %s\n%!" w trace;
    or_die
      (child
         ([ "--workload"; w; "--seed"; Int64.to_string seed; "--seconds"; Printf.sprintf "%g" seconds; "--trace"; trace ]
         @ if quick then [ "--quick" ] else []))
  in
  let workloads =
    List.map
      (fun w ->
        let timed = List.init timed_runs (fun _ -> run w "0") in
        (w, or_die (Report.workload_entry decl ~timed ~traced:(run w "1"))))
      names
  in
  print_endline
    (Json.to_string
       (Json.obj
          [
            ("code_rev", Json.str (Dssoc_explore.Cache.detect_code_rev ()));
            ("seed", Json.str (Int64.to_string seed));
            ("quick", Json.bool quick);
            ("seconds", Json.float seconds);
            ("workloads", Json.obj workloads);
          ]))

let compare_files = function
  | [ old_path; new_path ] ->
    let load p = or_die (Result.map_error (fun e -> p ^ ": " ^ Json.error_to_string e) (Json.of_file p)) in
    let rows = Report.compare_docs (decl ()) (load old_path) (load new_path) in
    print_string (Report.render_rows rows);
    if List.exists (fun r -> r.Report.verdict = Report.Regressed) rows then exit 1
  | _ -> die "usage: compare OLD.json NEW.json"

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "perf" :: args -> perf args
  | "compare" :: args -> compare_files args
  | args -> run_one args
