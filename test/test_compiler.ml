module Lexer = Dssoc_compiler.Lexer
module Parser = Dssoc_compiler.Parser
module Ast = Dssoc_compiler.Ast
module Ir = Dssoc_compiler.Ir
module Interp = Dssoc_compiler.Interp
module Kernel_detect = Dssoc_compiler.Kernel_detect
module Outline = Dssoc_compiler.Outline
module Recognize = Dssoc_compiler.Recognize
module Dag_gen = Dssoc_compiler.Dag_gen
module Driver = Dssoc_compiler.Driver
module Emulator = Dssoc_runtime.Emulator
module Stats = Dssoc_runtime.Stats
module Task = Dssoc_runtime.Task
module Store = Dssoc_apps.Store
module App_spec = Dssoc_apps.App_spec
module Workload = Dssoc_apps.Workload
module Config = Dssoc_soc.Config

let qtest = QCheck_alcotest.to_alcotest

let det_engine = Emulator.virtual_seeded ~jitter:0.0 1L

(* ---------------------- Lexer ---------------------- *)

let test_lexer_tokens () =
  match Lexer.tokenize "int x = 42; // comment\nfloat y = 1.5e2; /* block */ x <= y && !z" with
  | Error msg -> Alcotest.fail msg
  | Ok toks ->
    let kinds = List.map (fun (t : Lexer.located) -> Lexer.token_to_string t.Lexer.tok) toks in
    Alcotest.(check (list string)) "token stream"
      [ "int"; "x"; "="; "42"; ";"; "float"; "y"; "="; "150."; ";"; "x"; "<="; "y"; "&&"; "!"; "z"; "<eof>" ]
      kinds

let test_lexer_errors () =
  Alcotest.(check bool) "bad char" true (Result.is_error (Lexer.tokenize "int x = @;"));
  Alcotest.(check bool) "unterminated comment" true (Result.is_error (Lexer.tokenize "/* foo"))

let test_lexer_line_numbers () =
  match Lexer.tokenize "a\nb\nc" with
  | Ok [ _; b; _; _ ] -> Alcotest.(check int) "line of b" 2 b.Lexer.line
  | _ -> Alcotest.fail "unexpected token count"

(* ---------------------- Parser ---------------------- *)

let parse_ok s =
  match Parser.parse s with Ok p -> p | Error msg -> Alcotest.failf "parse failed: %s" msg

let test_parser_precedence () =
  match parse_ok "x = 1 + 2 * 3;" with
  | [ Ast.Assign { value = Ast.Binop (Ast.Add, Ast.Int_lit 1, Ast.Binop (Ast.Mul, Ast.Int_lit 2, Ast.Int_lit 3)); _ } ] ->
    ()
  | _ -> Alcotest.fail "wrong precedence"

let test_parser_main_wrapper () =
  let bare = parse_ok "int x = 1;" in
  let wrapped = parse_ok "int main() { int x = 1; return 0; }" in
  Alcotest.(check int) "wrapper adds return" (List.length bare + 1) (List.length wrapped)

let test_parser_structures () =
  let p =
    parse_ok
      "int n = 4; float a[4]; for (int i = 0; i < n; i = i + 1) { a[i] = i; } if (n > 2) { n = 0; } else { n = 1; } while (n < 3) { n = n + 1; }"
  in
  Alcotest.(check int) "statement count" 5 (List.length p)

let test_parser_malloc () =
  match parse_ok "float *p = malloc(4 * 10);" with
  | [ Ast.Decl_malloc { name = "p"; ty = Ast.Tfloat; _ } ] -> ()
  | _ -> Alcotest.fail "malloc decl"

let test_parser_errors () =
  Alcotest.(check bool) "missing semi" true (Result.is_error (Parser.parse "int x = 1"));
  Alcotest.(check bool) "unknown function" true (Result.is_error (Parser.parse "x = foo(1);"));
  Alcotest.(check bool) "bad array size" true (Result.is_error (Parser.parse "int a[n];"));
  Alcotest.(check bool) "garbage" true (Result.is_error (Parser.parse "%%%"))

(* ---------------------- IR ---------------------- *)

let test_ir_loop_structure () =
  let ir = Ir.lower (parse_ok "int i = 0; for (i = 0; i < 3; i = i + 1) { i = i; } i = 9;") in
  (* entry, header, body, exit + final return block layout *)
  Alcotest.(check bool) "several blocks" true (Ir.block_count ir >= 4);
  (* every block's forward successors have larger bids except loop back-edges *)
  Array.iter
    (fun (blk : Ir.block) ->
      List.iter
        (fun s ->
          if s < blk.Ir.bid then
            (* back-edge target must be a branch header *)
            match ir.Ir.blocks.(s).Ir.term with
            | Ir.Branch _ -> ()
            | _ -> Alcotest.fail "backward edge to non-header")
        (Ir.successors blk))
    ir.Ir.blocks

let prop_lowering_monotone_joins =
  (* If/else and loops keep ids ordered: for structured random programs
     the entry block is 0 and every block is reachable. *)
  QCheck.Test.make ~name:"lowered blocks are dense and entry is 0" ~count:50
    (QCheck.make ~print:(fun d -> string_of_int d) QCheck.Gen.(int_range 0 3))
    (fun depth ->
      let rec gen_src d =
        if d = 0 then "x = x + 1;"
        else
          Printf.sprintf
            "if (x < 5) { %s } else { %s } for (int i = 0; i < 2; i = i + 1) { %s }"
            (gen_src (d - 1)) (gen_src (d - 1)) (gen_src (d - 1))
      in
      let src = "int x = 0;" ^ gen_src depth in
      let ir = Ir.lower (parse_ok src) in
      ir.Ir.entry = 0
      && Array.for_all
           (fun (b : Ir.block) -> List.for_all (fun s -> s >= 0 && s < Ir.block_count ir) (Ir.successors b))
           ir.Ir.blocks)

let test_instr_reads_writes () =
  let i = Ir.Assign { name = "a"; index = Some (Ast.Var "i"); value = Ast.Binop (Ast.Add, Ast.Var "x", Ast.Int_lit 1) } in
  Alcotest.(check (list string)) "reads" [ "i"; "x" ] (Ir.instr_reads i);
  Alcotest.(check (option string)) "writes" (Some "a") (Ir.instr_writes i)

(* ---------------------- Interpreter ---------------------- *)

let run_src ?(inputs = []) src =
  Interp.run ~trace:true ~inputs (Ir.lower (parse_ok src))

let scalar_int outcome name =
  match Hashtbl.find_opt outcome.Interp.env name with
  | Some (Interp.Scalar { contents = Interp.Vint i }) -> i
  | _ -> Alcotest.failf "missing int %s" name

let test_interp_arithmetic () =
  let o = run_src "int x = 0; x = 2 + 3 * 4; int y = x % 5; int z = 0 - 7 / 2;" in
  Alcotest.(check int) "x" 14 (scalar_int o "x");
  Alcotest.(check int) "y" 4 (scalar_int o "y");
  Alcotest.(check int) "z" (-3) (scalar_int o "z")

let test_interp_factorial () =
  let o = run_src "int f = 1; for (int i = 1; i <= 6; i = i + 1) { f = f * i; }" in
  Alcotest.(check int) "6!" 720 (scalar_int o "f")

let test_interp_while_if () =
  let o = run_src "int n = 27; int steps = 0; while (n != 1) { if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; } steps = steps + 1; }" in
  Alcotest.(check int) "collatz(27)" 111 (scalar_int o "steps")

let test_interp_arrays_and_malloc () =
  let o =
    run_src
      "int n = 8; float a[8]; float *b = malloc(4 * n); int i = 0; for (i = 0; i < n; i = i + 1) { a[i] = i * 2; b[i] = a[i] + 1; } float s = 0.0; for (i = 0; i < n; i = i + 1) { s = s + b[i]; }"
  in
  match Hashtbl.find_opt o.Interp.env "s" with
  | Some (Interp.Scalar { contents = Interp.Vfloat s }) ->
    Alcotest.(check (float 1e-9)) "sum" 64.0 s
  | _ -> Alcotest.fail "missing s"

let test_interp_channels () =
  let o =
    run_src ~inputs:[ (0, [| 1.0; 2.0; 3.0 |]) ]
      "float s = 0.0; for (int i = 0; i < 3; i = i + 1) { s = s + read_ch(0, i); } write_ch(1, 0, s);"
  in
  match List.assoc_opt 1 o.Interp.outputs with
  | Some arr -> Alcotest.(check (float 1e-9)) "sum written" 6.0 arr.(0)
  | None -> Alcotest.fail "no output channel"

let test_interp_errors () =
  let expect_err src =
    Alcotest.(check bool) src true
      (try
         ignore (run_src src);
         false
       with Interp.Runtime_error _ -> true)
  in
  expect_err "int x = y;";
  expect_err "float a[4]; a[9] = 1.0;";
  expect_err "int x = 1 / 0;";
  expect_err "float s = read_ch(0, 0);";
  expect_err "int x = 0; while (1 == 1) { x = x + 1; }"

let test_interp_trace_counts () =
  let o = run_src "int s = 0; for (int i = 0; i < 10; i = i + 1) { s = s + i; }" in
  let trace = Option.get o.Interp.trace in
  Alcotest.(check bool) "trace nonempty" true (Array.length trace.Interp.blocks > 10);
  Alcotest.(check bool) "ops counted" true (trace.Interp.total_ops > 20)

(* ---------------------- Detection / outlining on the case-study app -------- *)

let conv_cache = lazy (
  let inputs = Driver.range_detection_inputs () in
  ( Result.get_ok (Driver.convert ~optimize:false ~name:"rdm" ~source:Driver.range_detection_source ~inputs ()),
    Result.get_ok (Driver.convert ~optimize:true ~name:"rdm_opt" ~source:Driver.range_detection_source ~inputs ()) ))

let test_detects_six_kernels () =
  let conv, _ = Lazy.force conv_cache in
  let kernels = conv.Driver.detection.Kernel_detect.kernels in
  Alcotest.(check int) "6 kernels as in Case Study 4" 6 (List.length kernels);
  Alcotest.(check int) "3 file-I/O kernels" 3
    (List.length (List.filter (fun k -> k.Kernel_detect.does_io) kernels))

let test_dft_kernels_share_digest () =
  let conv, _ = Lazy.force conv_cache in
  let non_io =
    List.filter (fun (g : Outline.group) ->
        match g.Outline.kind with Outline.Kernel k -> not k.Kernel_detect.does_io | Outline.Cold -> false)
      conv.Driver.groups
  in
  match non_io with
  | [ dft1; dft2; _idft ] ->
    let d1 = Recognize.digest ~ir:conv.Driver.ir ~group:dft1 in
    let d2 = Recognize.digest ~ir:conv.Driver.ir ~group:dft2 in
    Alcotest.(check string) "identical normalized digests (hash-based recognition)" d1 d2;
    let d3 = Recognize.digest ~ir:conv.Driver.ir ~group:_idft in
    Alcotest.(check bool) "fused kernel digest differs" true (d3 <> d1)
  | l -> Alcotest.failf "expected 3 compute kernels, got %d" (List.length l)

let test_classification () =
  let conv, _ = Lazy.force conv_cache in
  let consts = Dag_gen.fold_constants conv.Driver.ir in
  Alcotest.(check (option int)) "n folded" (Some 512) (Hashtbl.find_opt consts "n");
  let classes =
    List.filter_map
      (fun (g : Outline.group) ->
        match g.Outline.kind with
        | Outline.Cold -> None
        | Outline.Kernel _ -> Some (Recognize.classify ~ir:conv.Driver.ir ~consts ~group:g))
      conv.Driver.groups
  in
  let dfts = List.filter (function Recognize.Pure_dft _ -> true | _ -> false) classes in
  let ios = List.filter (function Recognize.Io_kernel -> true | _ -> false) classes in
  let opaque = List.filter (function Recognize.Opaque -> true | _ -> false) classes in
  Alcotest.(check int) "2 pure DFTs" 2 (List.length dfts);
  Alcotest.(check int) "3 io kernels" 3 (List.length ios);
  Alcotest.(check int) "1 opaque (fused IDFT)" 1 (List.length opaque);
  List.iter
    (function
      | Recognize.Pure_dft info ->
        Alcotest.(check int) "n = 512" 512 info.Recognize.n;
        Alcotest.(check bool) "forward" false info.Recognize.inverse
      | _ -> ())
    dfts

let test_optimized_substitutions () =
  let _, conv = Lazy.force conv_cache in
  Alcotest.(check int) "two substitutions" 2 (List.length conv.Driver.substitutions);
  Alcotest.(check bool) "nodes exist" true
    (List.for_all
       (fun (n, _) -> List.exists (fun (nd : App_spec.node) -> nd.App_spec.node_name = n) conv.Driver.spec.App_spec.nodes)
       conv.Driver.substitutions);
  (* substituted nodes carry an fft accelerator platform entry *)
  List.iter
    (fun (name, _) ->
      let node = App_spec.node conv.Driver.spec name in
      Alcotest.(check bool) "has accel entry" true
        (List.exists (fun e -> e.App_spec.platform = "fft") node.App_spec.platforms))
    conv.Driver.substitutions

let test_generated_spec_valid () =
  let conv, conv_opt = Lazy.force conv_cache in
  Alcotest.(check bool) "unopt validates" true (Result.is_ok (App_spec.validate conv.Driver.spec));
  Alcotest.(check bool) "opt validates" true (Result.is_ok (App_spec.validate conv_opt.Driver.spec));
  (* linear chain: every non-entry node has exactly one predecessor *)
  List.iteri
    (fun i (n : App_spec.node) ->
      Alcotest.(check int) "chain arity" (if i = 0 then 0 else 1) (List.length n.App_spec.predecessors))
    conv.Driver.spec.App_spec.nodes

let run_dag spec =
  let config = Config.zcu102_cores_ffts ~cores:3 ~ffts:1 in
  let wl = Workload.validation [ (spec, 1) ] in
  Result.get_ok (Emulator.run_detailed ~engine:det_engine ~config ~workload:wl ())

let check_outputs_match conv store =
  (* channel 2 (correlation profile) and channel 3 (best) must equal the
     direct monolithic interpretation *)
  List.iter
    (fun (c, expected) ->
      let got = Store.get_f32_array store (Printf.sprintf "__out_ch%d" c) in
      Array.iteri
        (fun i v ->
          if Float.abs (v -. got.(i)) > 1e-3 *. Float.max 1.0 (Float.abs v) then
            Alcotest.failf "channel %d index %d: %f vs %f" c i v got.(i))
        expected)
    conv.Driver.reference_outputs

let test_dag_execution_matches_reference () =
  let conv, _ = Lazy.force conv_cache in
  let _, instances = run_dag conv.Driver.spec in
  check_outputs_match conv instances.(0).Task.store

let test_optimized_dag_matches_reference () =
  let _, conv_opt = Lazy.force conv_cache in
  let _, instances = run_dag conv_opt.Driver.spec in
  check_outputs_match conv_opt instances.(0).Task.store;
  (* the substituted FFT path still finds the right echo delay *)
  let ch3 = Store.get_f32_array instances.(0).Task.store "__out_ch3" in
  Alcotest.(check int) "best = echo delay" Driver.range_detection_echo_delay
    (int_of_float ch3.(0))

let test_substitution_speedup () =
  let conv, conv_opt = Lazy.force conv_cache in
  let r0, _ = run_dag conv.Driver.spec in
  let r1, _ = run_dag conv_opt.Driver.spec in
  let node_time (r : Stats.report) name =
    let t = List.find (fun t -> Stats.record_node r t = name) (Stats.record_list r) in
    t.Stats.completed_ns - t.Stats.dispatched_ns
  in
  let naive = node_time r0 "KERNEL_5" in
  let opt = node_time r1 "DFT_5" in
  let speedup = float_of_int naive /. float_of_int opt in
  Alcotest.(check bool) "speedup ~100x" true (speedup > 80.0 && speedup < 130.0)

let test_linear_chain_rejection () =
  (* A hot loop revisited after other work breaks the chain: outlining
     must refuse rather than emit a wrong DAG. *)
  let src =
    "int s = 0; int j = 0; for (j = 0; j < 200; j = j + 1) { for (int i = 0; i < 100; i = i + 1) { s = s + i; } s = s - 1; }"
  in
  (* inner loop is one kernel entered 200 times with cold code between *)
  match Driver.convert ~name:"bad" ~source:src ~inputs:[] () with
  | Error _ -> ()
  | Ok conv ->
    (* acceptable alternative: detection merged everything into one
       kernel, in which case the chain is fine *)
    Alcotest.(check bool) "single merged kernel" true
      (List.length conv.Driver.detection.Kernel_detect.kernels <= 1
      || List.length conv.Driver.groups <= 3)

let test_convert_reports_missing_inputs () =
  match Driver.convert ~name:"x" ~source:"float v = read_ch(5, 0);" ~inputs:[] () with
  | Error msg -> Alcotest.(check bool) "mentions channel" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "expected missing-channel error"

(* ---------------------- parallelization (Deps) ---------------------- *)

let par_conv_cache = lazy (
  let inputs = Driver.range_detection_inputs () in
  Result.get_ok
    (Driver.convert ~optimize:false ~parallelize:true ~name:"rdm_par"
       ~source:Driver.range_detection_source ~inputs ()))

let test_merge_prologues () =
  let conv, _ = Lazy.force conv_cache in
  let merged =
    Dssoc_compiler.Outline.merge_prologues ~ir:conv.Driver.ir
      ~trace:(Option.get (Interp.run ~trace:true ~inputs:(Driver.range_detection_inputs ())
                            conv.Driver.ir).Interp.trace)
      conv.Driver.groups
  in
  Alcotest.(check bool) "fewer groups after merging" true
    (List.length merged < List.length conv.Driver.groups);
  (* gids re-densified *)
  List.iteri (fun i g -> Alcotest.(check int) "dense gid" i g.Outline.gid) merged

let test_group_liveness_privatises_counters () =
  let conv = Lazy.force par_conv_cache in
  (* The merged DFT kernel writes its loop counter before reading it,
     so k/t/sr/si must not be live-in; the input arrays must be. *)
  let dft_group =
    List.find
      (fun (g : Outline.group) ->
        match g.Outline.kind with
        | Outline.Kernel k -> (not k.Kernel_detect.does_io) && g.Outline.gid = 3
        | Outline.Cold -> false)
      (Dssoc_compiler.Outline.merge_prologues ~ir:conv.Driver.ir
         ~trace:(Option.get (Interp.run ~trace:true ~inputs:(Driver.range_detection_inputs ())
                               conv.Driver.ir).Interp.trace)
         (let base = Result.get_ok
              (Driver.convert ~optimize:false ~name:"rdm_tmp" ~source:Driver.range_detection_source
                 ~inputs:(Driver.range_detection_inputs ()) ()) in
          base.Driver.groups))
  in
  let access = Dssoc_compiler.Deps.group_access conv.Driver.ir dft_group in
  let live = access.Dssoc_compiler.Deps.live_in in
  Alcotest.(check bool) "loop counter privatised" false (List.mem "k" live);
  Alcotest.(check bool) "accumulator privatised" false (List.mem "sr" live);
  Alcotest.(check bool) "input array live-in" true (List.mem "wave_re" live);
  Alcotest.(check bool) "bound live-in" true (List.mem "n" live)

let test_parallel_dag_structure () =
  let conv = Lazy.force par_conv_cache in
  let spec = conv.Driver.spec in
  Alcotest.(check bool) "valid" true (Result.is_ok (App_spec.validate spec));
  Alcotest.(check bool) "shorter critical path than node count" true
    (App_spec.critical_path_length spec < App_spec.task_count spec);
  (* The two DFT kernels must not depend on each other. *)
  let kern_names =
    List.filter_map
      (fun (n : App_spec.node) ->
        if String.length n.App_spec.node_name >= 6 && String.sub n.App_spec.node_name 0 6 = "KERNEL"
        then Some n
        else None)
      spec.App_spec.nodes
  in
  match kern_names with
  | a :: b :: _ ->
    Alcotest.(check bool) "DFT kernels independent" false
      (List.mem a.App_spec.node_name b.App_spec.predecessors
      || List.mem b.App_spec.node_name a.App_spec.predecessors)
  | _ -> Alcotest.fail "expected at least two compute kernels"

let test_parallel_dag_outputs_match () =
  let conv = Lazy.force par_conv_cache in
  let _, instances = run_dag conv.Driver.spec in
  check_outputs_match conv instances.(0).Task.store

let test_parallel_beats_sequential () =
  let conv_seq, _ = Lazy.force conv_cache in
  let conv_par = Lazy.force par_conv_cache in
  let r_seq, _ = run_dag conv_seq.Driver.spec in
  let r_par, _ = run_dag conv_par.Driver.spec in
  Alcotest.(check bool) "parallel DAG finishes earlier" true
    (r_par.Stats.makespan_ns < r_seq.Stats.makespan_ns)

let test_parallel_with_scheduler_variants () =
  (* The parallel DAG must stay correct under every policy. *)
  let conv = Lazy.force par_conv_cache in
  List.iter
    (fun policy ->
      let config = Config.zcu102_cores_ffts ~cores:3 ~ffts:1 in
      let wl = Workload.validation [ (conv.Driver.spec, 1) ] in
      match Emulator.run_detailed ~engine:det_engine ~policy ~config ~workload:wl () with
      | Error msg -> Alcotest.fail msg
      | Ok (_, instances) ->
        let ch3 = Store.get_f32_array instances.(0).Task.store "__out_ch3" in
        Alcotest.(check int) (policy ^ " correct") Driver.range_detection_echo_delay
          (int_of_float ch3.(0)))
    [ "FRFS"; "MET"; "EFT"; "RANDOM"; "POWER" ]

(* Random pipeline programs: N loop stages, each reading one of the
   previously written arrays, then a dump stage per array.  Whatever
   dependence structure falls out, the parallelized DAG must reproduce
   the monolithic run's outputs exactly. *)
let prop_parallel_conversion_equivalence =
  QCheck.Test.make ~name:"parallel conversion preserves semantics" ~count:8
    (QCheck.make
       ~print:(fun wiring -> String.concat ";" (List.map string_of_int wiring))
       QCheck.Gen.(list_size (int_range 2 4) (int_range 0 2)))
    (fun wiring ->
      let buf = Buffer.create 512 in
      Buffer.add_string buf "int n = 96; int i = 0; float a0[96];\n";
      Buffer.add_string buf "for (i = 0; i < n; i = i + 1) { a0[i] = read_ch(0, i); }\n";
      List.iteri
        (fun stage src ->
          let src = min src stage in
          Buffer.add_string buf (Printf.sprintf "float a%d[96];\n" (stage + 1));
          Buffer.add_string buf
            (Printf.sprintf
               "for (i = 0; i < n; i = i + 1) { a%d[i] = a%d[i] * 2.0 + %d.0; }\n" (stage + 1)
               src stage))
        wiring;
      List.iteri
        (fun stage _ ->
          Buffer.add_string buf
            (Printf.sprintf "for (i = 0; i < n; i = i + 1) { write_ch(%d, i, a%d[i]); }\n"
               (stage + 1) (stage + 1)))
        wiring;
      let source = Buffer.contents buf in
      let inputs = [ (0, Array.init 96 (fun i -> float_of_int i /. 7.0)) ] in
      match Driver.convert ~optimize:false ~parallelize:true ~name:"pipe" ~source ~inputs () with
      | Error _ -> QCheck.Test.fail_report "conversion failed"
      | Ok conv ->
        let config = Config.zcu102_cores_ffts ~cores:3 ~ffts:0 in
        let wl = Workload.validation [ (conv.Driver.spec, 1) ] in
        (match Emulator.run_detailed ~engine:det_engine ~config ~workload:wl () with
        | Error _ -> QCheck.Test.fail_report "emulation failed"
        | Ok (_, instances) ->
          let store = instances.(0).Task.store in
          List.for_all
            (fun (c, expected) ->
              let got = Store.get_f32_array store (Printf.sprintf "__out_ch%d" c) in
              Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-4) expected
                (Array.sub got 0 (Array.length expected)))
            conv.Driver.reference_outputs
          ||
          (ignore (QCheck.Test.fail_report "outputs diverge");
           false)))

let test_pipeline_stage_independence () =
  (* Two stages both reading a0 must be mutually independent in the
     generated DAG. *)
  let source =
    "int n = 96; int i = 0; float a0[96]; float a1[96]; float a2[96];\n\
     for (i = 0; i < n; i = i + 1) { a0[i] = read_ch(0, i); }\n\
     for (i = 0; i < n; i = i + 1) { a1[i] = a0[i] + 1.0; }\n\
     for (i = 0; i < n; i = i + 1) { a2[i] = a0[i] + 2.0; }\n\
     for (i = 0; i < n; i = i + 1) { write_ch(1, i, a1[i] + a2[i]); }"
  in
  let inputs = [ (0, Array.init 96 float_of_int) ] in
  match Driver.convert ~optimize:false ~parallelize:true ~name:"indep" ~source ~inputs () with
  | Error msg -> Alcotest.fail msg
  | Ok conv ->
    let spec = conv.Driver.spec in
    (* critical path shorter than the chain proves the middle stages
       were recognised as independent *)
    Alcotest.(check bool) "stages parallelised" true
      (App_spec.critical_path_length spec < App_spec.task_count spec)

let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let test_summary_text () =
  let _, conv_opt = Lazy.force conv_cache in
  let s = Driver.summary conv_opt in
  Alcotest.(check bool) "mentions kernels" true (contains_substring s "kernels detected");
  Alcotest.(check bool) "mentions substitution" true (contains_substring s "fft_lib.so")

let () =
  Alcotest.run "compiler"
    [
      ( "lexer",
        [
          Alcotest.test_case "tokens" `Quick test_lexer_tokens;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
          Alcotest.test_case "line numbers" `Quick test_lexer_line_numbers;
        ] );
      ( "parser",
        [
          Alcotest.test_case "precedence" `Quick test_parser_precedence;
          Alcotest.test_case "main wrapper" `Quick test_parser_main_wrapper;
          Alcotest.test_case "structures" `Quick test_parser_structures;
          Alcotest.test_case "malloc" `Quick test_parser_malloc;
          Alcotest.test_case "errors" `Quick test_parser_errors;
        ] );
      ( "ir",
        [
          Alcotest.test_case "loop structure" `Quick test_ir_loop_structure;
          qtest prop_lowering_monotone_joins;
          Alcotest.test_case "reads/writes" `Quick test_instr_reads_writes;
        ] );
      ( "interp",
        [
          Alcotest.test_case "arithmetic" `Quick test_interp_arithmetic;
          Alcotest.test_case "factorial" `Quick test_interp_factorial;
          Alcotest.test_case "collatz" `Quick test_interp_while_if;
          Alcotest.test_case "arrays + malloc" `Quick test_interp_arrays_and_malloc;
          Alcotest.test_case "channels" `Quick test_interp_channels;
          Alcotest.test_case "runtime errors" `Quick test_interp_errors;
          Alcotest.test_case "trace counts" `Quick test_interp_trace_counts;
        ] );
      ( "conversion",
        [
          Alcotest.test_case "six kernels" `Slow test_detects_six_kernels;
          Alcotest.test_case "DFT digests equal" `Slow test_dft_kernels_share_digest;
          Alcotest.test_case "classification" `Slow test_classification;
          Alcotest.test_case "substitutions" `Slow test_optimized_substitutions;
          Alcotest.test_case "spec validity" `Slow test_generated_spec_valid;
          Alcotest.test_case "DAG matches reference" `Slow test_dag_execution_matches_reference;
          Alcotest.test_case "optimized DAG matches reference" `Slow test_optimized_dag_matches_reference;
          Alcotest.test_case "substitution speedup ~100x" `Slow test_substitution_speedup;
          Alcotest.test_case "non-linear chain rejected" `Slow test_linear_chain_rejection;
          Alcotest.test_case "missing inputs" `Quick test_convert_reports_missing_inputs;
          Alcotest.test_case "summary" `Slow test_summary_text;
        ] );
      ( "parallelization",
        [
          Alcotest.test_case "prologue merging" `Slow test_merge_prologues;
          Alcotest.test_case "liveness privatises counters" `Slow test_group_liveness_privatises_counters;
          Alcotest.test_case "parallel DAG structure" `Slow test_parallel_dag_structure;
          Alcotest.test_case "outputs match reference" `Slow test_parallel_dag_outputs_match;
          Alcotest.test_case "beats sequential" `Slow test_parallel_beats_sequential;
          Alcotest.test_case "correct under all policies" `Slow test_parallel_with_scheduler_variants;
          Alcotest.test_case "stage independence" `Quick test_pipeline_stage_independence;
          qtest prop_parallel_conversion_equivalence;
        ] );
    ]
