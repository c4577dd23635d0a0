module Prng = Dssoc_util.Prng
module Vec = Dssoc_util.Vec
module Config = Dssoc_soc.Config
module Des = Dssoc_runtime.Des

let qtest = QCheck_alcotest.to_alcotest

let test_prng_determinism () =
  let a = Prng.create ~seed:42L and b = Prng.create ~seed:42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed:1L and b = Prng.create ~seed:2L in
  let differ = ref false in
  for _ = 1 to 16 do
    if Prng.bits64 a <> Prng.bits64 b then differ := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differ

let test_prng_copy_independent () =
  let a = Prng.create ~seed:7L in
  ignore (Prng.bits64 a);
  let b = Prng.copy a in
  Alcotest.(check int64) "copy continues identically" (Prng.bits64 a) (Prng.bits64 b)

let test_prng_split () =
  let a = Prng.create ~seed:7L in
  let child = Prng.split a in
  Alcotest.(check bool) "split streams differ" true (Prng.bits64 a <> Prng.bits64 child)

let test_prng_int_zero_bound () =
  Alcotest.check_raises "bound 0 rejected" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int (Prng.create ~seed:1L) 0))

let prop_int_in_range =
  QCheck.Test.make ~name:"Prng.int in [0,bound)" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let g = Prng.create ~seed:(Int64.of_int seed) in
      let v = Prng.int g bound in
      v >= 0 && v < bound)

let prop_int_in_bounds =
  QCheck.Test.make ~name:"Prng.int_in inclusive bounds" ~count:500
    QCheck.(triple small_int (int_range (-100) 100) (int_range 0 100))
    (fun (seed, lo, span) ->
      let g = Prng.create ~seed:(Int64.of_int seed) in
      let v = Prng.int_in g lo (lo + span) in
      v >= lo && v <= lo + span)

let prop_float_range =
  QCheck.Test.make ~name:"Prng.float in [0,bound)" ~count:500 QCheck.small_int (fun seed ->
      let g = Prng.create ~seed:(Int64.of_int seed) in
      let v = Prng.float g 3.5 in
      v >= 0.0 && v < 3.5)

let prop_shuffle_permutation =
  QCheck.Test.make ~name:"shuffle is a permutation" ~count:200
    QCheck.(pair small_int (list small_int))
    (fun (seed, l) ->
      let a = Array.of_list l in
      Prng.shuffle (Prng.create ~seed:(Int64.of_int seed)) a;
      List.sort compare (Array.to_list a) = List.sort compare l)

let test_gaussian_moments () =
  let g = Prng.create ~seed:3L in
  let n = 20_000 in
  let sum = ref 0.0 and sumsq = ref 0.0 in
  for _ = 1 to n do
    let x = Prng.gaussian g ~mu:5.0 ~sigma:2.0 in
    sum := !sum +. x;
    sumsq := !sumsq +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sumsq /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check bool) "mean near 5" true (Float.abs (mean -. 5.0) < 0.1);
  Alcotest.(check bool) "variance near 4" true (Float.abs (var -. 4.0) < 0.3)

let test_exponential_mean () =
  let g = Prng.create ~seed:4L in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Prng.exponential g ~mean:3.0
  done;
  Alcotest.(check bool) "mean near 3" true (Float.abs ((!sum /. float_of_int n) -. 3.0) < 0.15)

let test_bernoulli_rate () =
  let g = Prng.create ~seed:5L in
  let hits = ref 0 in
  for _ = 1 to 10_000 do
    if Prng.bernoulli g 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. 10_000.0 in
  Alcotest.(check bool) "rate near 0.3" true (Float.abs (rate -. 0.3) < 0.03)

let test_choose () =
  let g = Prng.create ~seed:6L in
  let v = Prng.choose g [| 9 |] in
  Alcotest.(check int) "singleton choice" 9 v;
  Alcotest.check_raises "empty choice" (Invalid_argument "Prng.choose: empty array") (fun () ->
      ignore (Prng.choose g [||]))

(* The event heap is [Des]'s, driven through its public API: thread
   [i] of a substrate with one thread per delay sleeps [delays.(i)] on
   start, and the run records every wake-up as (time, thread). *)
let des_threads n =
  let base = Config.zcu102_cores_ffts ~cores:2 ~ffts:2 in
  Des.create ~clock0:0
    { base with Config.placements = List.init n (fun _ -> List.hd base.Config.placements) }

let wakeups delays =
  let n = List.length delays in
  let delays = Array.of_list delays in
  let d = des_threads n in
  for th = 0 to n - 1 do
    Des.start d th
  done;
  let woken = ref [] in
  Des.run d
    ~on_start:(fun th -> ignore (Des.sleep d th delays.(th)))
    ~on_resume:(fun th -> woken := (!(Des.clock d), th) :: !woken);
  (List.rev !woken, Des.depth d)

(* Stable sort of (delay, thread): the wake-up order FIFO ties imply. *)
let expected_order delays =
  List.stable_sort (fun (a, _) (b, _) -> compare a b) (List.mapi (fun i t -> (t, i)) delays)

let test_heap_basic () =
  let woken, depth = wakeups [ 5; 1; 4; 1; 3 ] in
  Alcotest.(check (list (pair int int)))
    "wake-ups in time order" [ (1, 1); (1, 3); (3, 4); (4, 2); (5, 0) ] woken;
  Alcotest.(check int) "drained empty" 0 depth

let test_heap_fifo_ties () =
  let woken, _ = wakeups [ 2; 1; 2; 2 ] in
  Alcotest.(check (list int)) "fifo among equals" [ 1; 0; 2; 3 ] (List.map snd woken)

let delays_gen = QCheck.(list_of_size Gen.(0 -- 60) (int_range 1 1000))

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drain = sorted input" ~count:300 delays_gen (fun delays ->
      fst (wakeups delays) = expected_order delays)

(* Interleaved pushes and pops: every thread sleeps again on each
   wake-up, following its own script of delays. *)
let run_scripts check scripts =
  let scripts = Array.of_list scripts in
  let n = Array.length scripts in
  let d = des_threads n in
  let left = Array.copy scripts and live = ref n and ok = ref true in
  let next th =
    match left.(th) with
    | ns :: rest ->
      left.(th) <- rest;
      ignore (Des.sleep d th ns)
    | [] -> decr live
  in
  let step th =
    if not (check d th !live) then ok := false;
    next th
  in
  for th = 0 to n - 1 do
    Des.start d th
  done;
  Des.run d ~on_start:step ~on_resume:step;
  !ok && Des.depth d = 0

let scripts_gen =
  QCheck.(list_of_size Gen.(1 -- 12) (list_of_size Gen.(0 -- 8) (int_range 1 50)))

let prop_heap_invariant_after_ops =
  QCheck.Test.make ~name:"heap invariant under interleaved ops" ~count:200 scripts_gen
    (fun scripts ->
      let last = ref 0 and times = Array.make (List.length scripts) [] in
      let monotone d th _ =
        let now = !(Des.clock d) in
        times.(th) <- now :: times.(th);
        let ok = now >= !last in
        last := now;
        ok
      in
      let cumulative l =
        List.rev (List.fold_left (fun acc x -> (x + List.hd acc) :: acc) [ 0 ] l)
      in
      run_scripts monotone scripts
      && List.for_all2 (fun l t -> cumulative l = List.rev t) scripts (Array.to_list times))

let prop_heap_structural_invariants =
  (* One pending event per thread not yet done — start, deadline or
     resume — besides the one just popped: [depth] tracks the live
     count the [event_heap_depth] gauge samples. *)
  QCheck.Test.make ~name:"structural invariants under interleaved ops" ~count:200 scripts_gen
    (run_scripts (fun d _ live -> Des.depth d = live - 1))

(* Two jobs share one core (the 2C+2F FFT managers' core, 100 us
   quantum, 25 us switch): both run at 0.8/2 = 0.4 of full rate until
   the 1000 ns job ends at 2500 ns, leaving 3000 - 1000 = 2000 ns of
   the other at full rate, done at 4500 ns. *)
let test_des_processor_sharing () =
  let d = Des.create ~clock0:0 (Config.zcu102_cores_ffts ~cores:2 ~ffts:2) in
  Des.start d 2;
  Des.start d 3;
  let woken = ref [] in
  Des.run d
    ~on_start:(fun th -> ignore (Des.work d th (if th = 2 then 1000 else 3000)))
    ~on_resume:(fun th -> woken := (!(Des.clock d), th) :: !woken);
  Alcotest.(check (list (pair int int))) "dilated finish times" [ (2500, 2); (4500, 3) ]
    (List.rev !woken)

let test_vec_basic () =
  let v = Vec.create () in
  Alcotest.(check bool) "empty" true (Vec.is_empty v);
  for i = 0 to 99 do Vec.push v i done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get" 42 (Vec.get v 42);
  Vec.set v 42 (-1);
  Alcotest.(check int) "set" (-1) (Vec.get v 42);
  Alcotest.(check (option int)) "pop" (Some 99) (Vec.pop v);
  Alcotest.(check int) "after pop" 99 (Vec.length v)

let test_vec_bounds () =
  let v = Vec.of_list [ 1; 2 ] in
  Alcotest.check_raises "oob" (Invalid_argument "Vec: index out of bounds") (fun () ->
      ignore (Vec.get v 2))

let test_vec_filter_sort () =
  let v = Vec.of_list [ 5; 2; 8; 2; 1 ] in
  Vec.filter_in_place (fun x -> x <> 2) v;
  Alcotest.(check (list int)) "filtered" [ 5; 8; 1 ] (Vec.to_list v);
  Vec.sort compare v;
  Alcotest.(check (list int)) "sorted" [ 1; 5; 8 ] (Vec.to_list v)

let prop_vec_roundtrip =
  QCheck.Test.make ~name:"Vec of_list/to_list roundtrip" ~count:200 QCheck.(list int) (fun l ->
      Vec.to_list (Vec.of_list l) = l)

let test_mclock_monotonic () =
  let t0 = Dssoc_util.Mclock.now_ns () in
  Alcotest.(check bool) "positive" true (t0 > 0);
  let prev = ref t0 in
  for _ = 1 to 1000 do
    let t = Dssoc_util.Mclock.now_ns () in
    Alcotest.(check bool) "never goes backwards" true (t >= !prev);
    prev := t
  done;
  (* A real sleep must be visible at nanosecond resolution. *)
  let a = Dssoc_util.Mclock.now_ns () in
  Unix.sleepf 0.001;
  let b = Dssoc_util.Mclock.now_ns () in
  Alcotest.(check bool) "1ms sleep measured >= 0.5ms" true (b - a >= 500_000)

let () =
  Alcotest.run "util"
    [
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_prng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_prng_copy_independent;
          Alcotest.test_case "split" `Quick test_prng_split;
          Alcotest.test_case "int zero bound" `Quick test_prng_int_zero_bound;
          Alcotest.test_case "gaussian moments" `Slow test_gaussian_moments;
          Alcotest.test_case "exponential mean" `Slow test_exponential_mean;
          Alcotest.test_case "bernoulli rate" `Slow test_bernoulli_rate;
          Alcotest.test_case "choose" `Quick test_choose;
          qtest prop_int_in_range;
          qtest prop_int_in_bounds;
          qtest prop_float_range;
          qtest prop_shuffle_permutation;
        ] );
      ( "heap",
        [
          Alcotest.test_case "basic" `Quick test_heap_basic;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
          qtest prop_heap_sorts;
          qtest prop_heap_invariant_after_ops;
          qtest prop_heap_structural_invariants;
        ] );
      ("des", [ Alcotest.test_case "processor sharing" `Quick test_des_processor_sharing ]);
      ( "vec",
        [
          Alcotest.test_case "basic" `Quick test_vec_basic;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
          Alcotest.test_case "filter/sort" `Quick test_vec_filter_sort;
          qtest prop_vec_roundtrip;
        ] );
      ( "time",
        [
          Alcotest.test_case "monotonic clock" `Quick test_mclock_monotonic;
        ] );
    ]
