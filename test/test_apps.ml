module Store = Dssoc_apps.Store
module App_spec = Dssoc_apps.App_spec
module Kernels = Dssoc_apps.Kernels
module Reference_apps = Dssoc_apps.Reference_apps
module Workload = Dssoc_apps.Workload
module Cbuf = Dssoc_dsp.Cbuf
module Prng = Dssoc_util.Prng

let qtest = QCheck_alcotest.to_alcotest

(* ---------------------- Store ---------------------- *)

let test_store_scalars () =
  let store =
    Store.create
      [
        ("n", { Store.bytes = 4; is_ptr = false; ptr_alloc_bytes = 0; init = [ 0; 1; 0; 0 ] });
        ("f", { Store.bytes = 4; is_ptr = false; ptr_alloc_bytes = 0; init = [] });
      ]
  in
  (* Listing 1: n_samples 256 encoded little-endian as [0,1,0,0]. *)
  Alcotest.(check int) "little-endian init" 256 (Store.get_i32 store "n");
  Store.set_i32 store "n" (-7);
  Alcotest.(check int) "i32 roundtrip" (-7) (Store.get_i32 store "n");
  Store.set_f32 store "f" 2.5;
  Alcotest.(check (float 1e-6)) "f32 roundtrip" 2.5 (Store.get_f32 store "f")

let test_store_blocks () =
  let store =
    Store.create [ ("buf", { Store.bytes = 8; is_ptr = true; ptr_alloc_bytes = 64; init = [] }) ]
  in
  Alcotest.(check int) "payload bytes" 64 (Store.payload_bytes store "buf");
  let a = Array.init 16 (fun i -> float_of_int i /. 4.0) in
  Store.set_f32_array store "buf" a;
  Alcotest.(check bool) "f32 array roundtrip" true (Store.get_f32_array store "buf" = a);
  let ints = Array.init 16 (fun i -> i * 3) in
  Store.set_i32_array store "buf" ints;
  Alcotest.(check bool) "i32 array roundtrip" true (Store.get_i32_array store "buf" = ints)

let test_store_cbuf () =
  let store =
    Store.create [ ("c", { Store.bytes = 8; is_ptr = true; ptr_alloc_bytes = 32; init = [] }) ]
  in
  let buf = Cbuf.of_complex_list [ (1.0, 2.0); (3.0, 4.0); (5.0, 6.0); (7.0, 8.0) ] in
  Store.set_cbuf store "c" buf;
  Alcotest.(check bool) "cbuf roundtrip" true (Cbuf.max_abs_diff buf (Store.get_cbuf store "c") = 0.0);
  let slice = Store.get_cbuf_slice store "c" ~off:1 ~len:2 in
  Alcotest.(check bool) "slice read" true (Cbuf.to_complex_list slice = [ (3.0, 4.0); (5.0, 6.0) ]);
  Store.set_cbuf_slice store "c" ~off:3 (Cbuf.of_complex_list [ (9.0, 9.0) ]);
  Alcotest.(check bool) "slice write" true (Cbuf.get (Store.get_cbuf store "c") 3 = (9.0, 9.0))

let test_store_slice_bounds () =
  let store =
    Store.create [ ("c", { Store.bytes = 8; is_ptr = true; ptr_alloc_bytes = 32; init = [] }) ]
  in
  Alcotest.(check bool) "oob slice" true
    (try
       ignore (Store.get_cbuf_slice store "c" ~off:3 ~len:2);
       false
     with Invalid_argument _ -> true)

let test_store_bits () =
  let store =
    Store.create [ ("b", { Store.bytes = 8; is_ptr = true; ptr_alloc_bytes = 8; init = [ 1; 0; 1 ] }) ]
  in
  let bits = Store.get_bits store "b" in
  Alcotest.(check bool) "init bits" true
    (Array.to_list bits = [ true; false; true; false; false; false; false; false ]);
  Store.set_bits store "b" (Array.make 8 true);
  Alcotest.(check bool) "bits roundtrip" true (Array.for_all Fun.id (Store.get_bits store "b"))

let test_store_copy_independent () =
  let store =
    Store.create [ ("n", { Store.bytes = 4; is_ptr = false; ptr_alloc_bytes = 0; init = [] }) ]
  in
  Store.set_i32 store "n" 1;
  let copy = Store.copy store in
  Store.set_i32 store "n" 2;
  Alcotest.(check int) "copy unaffected" 1 (Store.get_i32 copy "n")

(* A run builds each class's initialised store once and copies it
   ([Exec_model.stores]): for every reference app a copy holds exactly
   the bytes [Store.create] writes, and shares no block with the
   template or with another copy. *)
let test_store_template_copies () =
  let module Exec_model = Dssoc_runtime.Exec_model in
  let apps = Reference_apps.all () in
  let same_bytes label a b =
    Alcotest.(check (list string)) (label ^ ": variables") (Store.names a) (Store.names b);
    List.iter
      (fun n ->
        Alcotest.(check string) (label ^ ": " ^ n)
          (Bytes.to_string (Store.get_raw a n))
          (Bytes.to_string (Store.get_raw b n)))
      (Store.names a)
  in
  let disjoint label a b =
    List.iter
      (fun n ->
        Alcotest.(check bool) (label ^ ": " ^ n ^ " not shared") true
          (Store.get_raw a n != Store.get_raw b n))
      (Store.names a)
  in
  List.iter
    (fun (spec : App_spec.t) ->
      let label = spec.App_spec.app_name in
      let template = Store.create spec.App_spec.variables in
      let copy = Store.copy template in
      same_bytes label (Store.create spec.App_spec.variables) copy;
      disjoint label template copy)
    apps;
  let model =
    Exec_model.lower ~engine_name:"test"
      ~config:(Dssoc_soc.Config.zcu102_cores_ffts ~cores:2 ~ffts:1)
      (Workload.validation (List.map (fun a -> (a, 1)) apps))
  in
  let stores = Exec_model.stores model in
  Array.iteri
    (fun k (c : Exec_model.cls) ->
      let spec = c.Exec_model.topology.Dssoc_runtime.Task.tp_spec in
      let label = "class " ^ spec.App_spec.app_name in
      let a = stores k and b = stores k in
      same_bytes label (Store.create spec.App_spec.variables) a;
      same_bytes label a b;
      disjoint label a b)
    model.Exec_model.classes

let test_store_duplicate () =
  Alcotest.(check bool) "duplicate rejected" true
    (try
       ignore
         (Store.create
            [
              ("x", { Store.bytes = 4; is_ptr = false; ptr_alloc_bytes = 0; init = [] });
              ("x", { Store.bytes = 4; is_ptr = false; ptr_alloc_bytes = 0; init = [] });
            ]);
       false
     with Invalid_argument _ -> true)

(* ---------------------- App_spec ---------------------- *)

let simple_node ?(preds = []) ?(args = []) name : App_spec.node =
  {
    App_spec.node_name = name;
    arguments = args;
    predecessors = preds;
    successors = [];
    platforms = [ { App_spec.platform = "cpu"; runfunc = "f"; shared_object = None; cost_us = None } ];
    kernel_class = "generic";
    size = 1;
    bytes_in = 0;
    bytes_out = 0;
  }

let test_of_edges_builds_successors () =
  let spec =
    App_spec.of_edges ~app_name:"t" ~shared_object:"t.so" ~variables:[]
      ~nodes:[ simple_node "a"; simple_node "b" ~preds:[ "a" ]; simple_node "c" ~preds:[ "a"; "b" ] ]
  in
  Alcotest.(check (list string)) "a successors" [ "b"; "c" ] (App_spec.node spec "a").App_spec.successors;
  Alcotest.(check (list string)) "entries" [ "a" ]
    (List.map (fun n -> n.App_spec.node_name) (App_spec.entry_nodes spec));
  Alcotest.(check int) "critical path" 3 (App_spec.critical_path_length spec);
  Alcotest.(check (list string)) "topological order" [ "a"; "b"; "c" ]
    (List.map (fun n -> n.App_spec.node_name) (App_spec.topological_order spec))

let test_validate_cycle () =
  let nodes =
    [
      { (simple_node "a" ~preds:[ "b" ]) with App_spec.successors = [ "b" ] };
      { (simple_node "b" ~preds:[ "a" ]) with App_spec.successors = [ "a" ] };
    ]
  in
  Alcotest.(check bool) "cycle rejected" true
    (Result.is_error (App_spec.validate { App_spec.app_name = "t"; shared_object = "t.so"; variables = []; nodes }))

let test_validate_unknown_pred () =
  Alcotest.(check bool) "unknown predecessor" true
    (try
       ignore
         (App_spec.of_edges ~app_name:"t" ~shared_object:"t.so" ~variables:[]
            ~nodes:[ simple_node "a" ~preds:[ "ghost" ] ]);
       false
     with Invalid_argument _ -> true)

let test_validate_unknown_var () =
  Alcotest.(check bool) "unknown variable" true
    (try
       ignore
         (App_spec.of_edges ~app_name:"t" ~shared_object:"t.so" ~variables:[]
            ~nodes:[ simple_node "a" ~args:[ "missing" ] ]);
       false
     with Invalid_argument _ -> true)

let test_validate_inconsistent_links () =
  (* successors listed without the matching predecessor entry *)
  let nodes = [ { (simple_node "a") with App_spec.successors = [ "b" ] }; simple_node "b" ] in
  Alcotest.(check bool) "inconsistent links rejected" true
    (Result.is_error
       (App_spec.validate { App_spec.app_name = "t"; shared_object = "t.so"; variables = []; nodes }))

let test_validate_no_platform () =
  let nodes = [ { (simple_node "a") with App_spec.platforms = [] } ] in
  Alcotest.(check bool) "no platforms rejected" true
    (Result.is_error
       (App_spec.validate { App_spec.app_name = "t"; shared_object = "t.so"; variables = []; nodes }))

(* Rejections must name the offending node, not just fail: a 20-node
   JSON application with one typo is undebuggable otherwise. *)
let check_validate_message ~name ~needle nodes =
  match App_spec.validate { App_spec.app_name = "t"; shared_object = "t.so"; variables = []; nodes } with
  | Ok _ -> Alcotest.failf "%s: expected validation to reject the spec" name
  | Error msg ->
    let contains needle hay =
      let nl = String.length needle and hl = String.length hay in
      let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
      nl = 0 || go 0
    in
    if not (contains needle msg) then
      Alcotest.failf "%s: error %S does not mention %S" name msg needle

let test_validate_messages () =
  check_validate_message ~name:"unknown predecessor"
    ~needle:{|node "a" lists unknown predecessor "ghost"|}
    [ simple_node "a" ~preds:[ "ghost" ] ];
  check_validate_message ~name:"unknown successor"
    ~needle:{|node "a" lists unknown successor "ghost"|}
    [ { (simple_node "a") with App_spec.successors = [ "ghost" ] } ];
  check_validate_message ~name:"empty platforms"
    ~needle:{|node "b" has no platform entries|}
    [ simple_node "a"; { (simple_node "b") with App_spec.platforms = [] } ];
  check_validate_message ~name:"self-loop"
    ~needle:{|node "a" depends on itself|}
    [ { (simple_node "a" ~preds:[ "a" ]) with App_spec.successors = [ "a" ] } ]

let test_json_roundtrip_all_reference_apps () =
  List.iter
    (fun spec ->
      let json = App_spec.to_json spec in
      match App_spec.of_json json with
      | Error msg -> Alcotest.failf "%s does not roundtrip: %s" spec.App_spec.app_name msg
      | Ok spec' ->
        Alcotest.(check bool)
          (spec.App_spec.app_name ^ " roundtrips")
          true (spec = spec'))
    [ Reference_apps.range_detection (); Reference_apps.wifi_tx (); Reference_apps.wifi_rx () ]

let test_json_file_roundtrip () =
  let spec = Reference_apps.range_detection () in
  let path = Filename.temp_file "rd" ".json" in
  App_spec.to_file path spec;
  (match App_spec.of_file path with
  | Ok spec' -> Alcotest.(check bool) "file roundtrip" true (spec = spec')
  | Error msg -> Alcotest.fail msg);
  Sys.remove path

(* ---------------------- Reference apps ---------------------- *)

let test_task_counts_match_table1 () =
  Alcotest.(check int) "range detection" 6 (App_spec.task_count (Reference_apps.range_detection ()));
  Alcotest.(check int) "pulse doppler" 770 (App_spec.task_count (Reference_apps.pulse_doppler ()));
  Alcotest.(check int) "wifi tx" 7 (App_spec.task_count (Reference_apps.wifi_tx ()));
  Alcotest.(check int) "wifi rx" 9 (App_spec.task_count (Reference_apps.wifi_rx ()))

let test_by_name () =
  Alcotest.(check bool) "known" true (Result.is_ok (Reference_apps.by_name "wifi_tx"));
  Alcotest.(check bool) "unknown" true (Result.is_error (Reference_apps.by_name "nope"))

let test_kernels_registered () =
  Reference_apps.ensure_kernels_registered ();
  List.iter
    (fun obj ->
      Alcotest.(check bool) (obj ^ " registered") true (List.mem obj (Kernels.objects ())))
    [ "range_detection.so"; "pulse_doppler.so"; "wifi_tx.so"; "wifi_rx.so"; "fft_accel.so" ];
  Alcotest.(check bool) "accel object holds RD FFT" true
    (List.mem "range_detect_FFT_0_ACCEL" (Kernels.symbols "fft_accel.so"))

let test_kernel_lookup_errors () =
  Alcotest.(check bool) "unknown object" true
    (Result.is_error (Kernels.lookup ~shared_object:"missing.so" ~symbol:"f"));
  Alcotest.(check bool) "unknown symbol" true
    (Result.is_error (Kernels.lookup ~shared_object:"wifi_tx.so" ~symbol:"missing"))

let run_app_sequentially spec =
  (* Execute a spec's nodes in topological order on a fresh store,
     always using the first (CPU) platform entry. *)
  let store = Store.create spec.App_spec.variables in
  List.iter
    (fun (node : App_spec.node) ->
      let entry = List.hd node.App_spec.platforms in
      let kernel =
        match Kernels.resolve ~app:spec ~node ~platform:entry with
        | Ok k -> k
        | Error msg -> Alcotest.fail msg
      in
      kernel store node.App_spec.arguments)
    (App_spec.topological_order spec);
  store

let test_range_detection_functional () =
  let store = run_app_sequentially (Reference_apps.range_detection ()) in
  Alcotest.(check int) "lag = echo delay" Reference_apps.Truth.rd_echo_delay
    (Store.get_i32 store "lag");
  Alcotest.(check bool) "peak magnitude positive" true (Store.get_f32 store "max_corr" > 0.0)

let test_wifi_loopback_functional () =
  let store = run_app_sequentially (Reference_apps.wifi_rx ()) in
  Alcotest.(check int) "crc ok" 1 (Store.get_i32 store "crc_ok");
  let payload = Array.sub (Store.get_bits store "payload_out") 0 64 in
  Alcotest.(check bool) "payload recovered" true (payload = Reference_apps.Truth.wifi_payload)

let test_pulse_doppler_functional () =
  let store = run_app_sequentially (Reference_apps.pulse_doppler ()) in
  Alcotest.(check int) "range bin" Reference_apps.Truth.pd_range_bin (Store.get_i32 store "range_bin");
  Alcotest.(check int) "doppler bin" Reference_apps.Truth.pd_doppler_bin
    (Store.get_i32 store "doppler_bin");
  Alcotest.(check bool) "velocity" true
    (Float.abs (Store.get_f32 store "velocity" -. Reference_apps.Truth.pd_velocity) < 1.0)

(* ---------------------- Workload ---------------------- *)

let test_validation_mode () =
  let rd = Reference_apps.range_detection () in
  let wl = Workload.validation [ (rd, 3) ] in
  Alcotest.(check int) "3 instances" 3 (Workload.job_count wl);
  List.iter
    (fun (item : Workload.item) ->
      Alcotest.(check int) "arrival 0" 0 item.Workload.arrival_ns)
    wl.Workload.items;
  Alcotest.(check (list int)) "instance ids" [ 0; 1; 2 ]
    (List.map (fun (i : Workload.item) -> i.Workload.instance) wl.Workload.items)

let test_performance_mode_deterministic () =
  let rd = Reference_apps.range_detection () in
  let prng = Prng.create ~seed:1L in
  let wl =
    Workload.performance ~prng ~window_ns:10_000_000
      [ { Workload.app = rd; period_ns = 1_000_000; probability = 1.0 } ]
  in
  Alcotest.(check int) "10 periodic arrivals" 10 (Workload.job_count wl);
  let arrivals = List.map (fun (i : Workload.item) -> i.Workload.arrival_ns) wl.Workload.items in
  Alcotest.(check (list int)) "arrival times" (List.init 10 (fun i -> i * 1_000_000)) arrivals

let test_performance_mode_probabilistic () =
  let rd = Reference_apps.range_detection () in
  let prng = Prng.create ~seed:1L in
  let wl =
    Workload.performance ~prng ~window_ns:100_000_000
      [ { Workload.app = rd; period_ns = 100_000; probability = 0.5 } ]
  in
  let n = Workload.job_count wl in
  Alcotest.(check bool) "roughly half injected" true (n > 380 && n < 620)

let test_table2_counts () =
  List.iter
    (fun rate ->
      let wl = Workload.table2_workload ~rate () in
      let expected = List.sort compare (Workload.table2_counts rate) in
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "counts at %.2f" rate)
        expected (Workload.count_by_app wl);
      let measured = Workload.injection_rate_per_ms wl in
      Alcotest.(check bool)
        (Printf.sprintf "rate %.2f within 2%%" rate)
        true
        (Float.abs (measured -. rate) /. rate < 0.02))
    Workload.table2_rates

let test_workload_validation_errors () =
  let rd = Reference_apps.range_detection () in
  Alcotest.(check bool) "negative count" true
    (try
       ignore (Workload.validation [ (rd, -1) ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad window" true
    (try
       ignore (Workload.performance ~prng:(Prng.create ~seed:1L) ~window_ns:0 []);
       false
     with Invalid_argument _ -> true)

let prop_performance_sorted =
  QCheck.Test.make ~name:"performance arrivals sorted" ~count:50
    QCheck.(pair small_int (int_range 1 20))
    (fun (seed, periods) ->
      let rd = Reference_apps.range_detection () in
      let prng = Prng.create ~seed:(Int64.of_int seed) in
      let wl =
        Workload.performance ~prng ~window_ns:1_000_000
          [ { Workload.app = rd; period_ns = 1_000_000 / periods; probability = 0.7 } ]
      in
      let arr = List.map (fun (i : Workload.item) -> i.Workload.arrival_ns) wl.Workload.items in
      List.sort compare arr = arr)

let () =
  Alcotest.run "apps"
    [
      ( "store",
        [
          Alcotest.test_case "scalars" `Quick test_store_scalars;
          Alcotest.test_case "blocks" `Quick test_store_blocks;
          Alcotest.test_case "cbuf + slices" `Quick test_store_cbuf;
          Alcotest.test_case "slice bounds" `Quick test_store_slice_bounds;
          Alcotest.test_case "bits" `Quick test_store_bits;
          Alcotest.test_case "copy independence" `Quick test_store_copy_independent;
          Alcotest.test_case "initialised copies = create" `Quick test_store_template_copies;
          Alcotest.test_case "duplicate names" `Quick test_store_duplicate;
        ] );
      ( "app_spec",
        [
          Alcotest.test_case "of_edges successors" `Quick test_of_edges_builds_successors;
          Alcotest.test_case "cycle" `Quick test_validate_cycle;
          Alcotest.test_case "unknown pred" `Quick test_validate_unknown_pred;
          Alcotest.test_case "unknown var" `Quick test_validate_unknown_var;
          Alcotest.test_case "inconsistent links" `Quick test_validate_inconsistent_links;
          Alcotest.test_case "no platforms" `Quick test_validate_no_platform;
          Alcotest.test_case "rejection messages name the node" `Quick test_validate_messages;
          Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip_all_reference_apps;
          Alcotest.test_case "file roundtrip" `Quick test_json_file_roundtrip;
        ] );
      ( "reference_apps",
        [
          Alcotest.test_case "Table I task counts" `Quick test_task_counts_match_table1;
          Alcotest.test_case "by_name" `Quick test_by_name;
          Alcotest.test_case "kernels registered" `Quick test_kernels_registered;
          Alcotest.test_case "kernel lookup errors" `Quick test_kernel_lookup_errors;
          Alcotest.test_case "range detection recovers echo" `Quick test_range_detection_functional;
          Alcotest.test_case "wifi loopback decodes payload" `Quick test_wifi_loopback_functional;
          Alcotest.test_case "pulse doppler recovers target" `Slow test_pulse_doppler_functional;
        ] );
      ( "workload",
        [
          Alcotest.test_case "validation mode" `Quick test_validation_mode;
          Alcotest.test_case "performance deterministic" `Quick test_performance_mode_deterministic;
          Alcotest.test_case "performance probabilistic" `Quick test_performance_mode_probabilistic;
          Alcotest.test_case "Table II counts" `Quick test_table2_counts;
          Alcotest.test_case "input validation" `Quick test_workload_validation_errors;
          qtest prop_performance_sorted;
        ] );
    ]
