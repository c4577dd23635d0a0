module Quantile = Dssoc_stats.Quantile
module Table = Dssoc_stats.Table

let qtest = QCheck_alcotest.to_alcotest

let test_mean_stddev () =
  let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Quantile.mean xs);
  Alcotest.(check bool) "stddev ~2.138" true (Float.abs (Quantile.stddev xs -. 2.138) < 0.01);
  Alcotest.(check (float 1e-9)) "singleton stddev" 0.0 (Quantile.stddev [| 3.0 |])

let test_quantiles () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check (float 1e-9)) "min" 1.0 (Quantile.quantile xs 0.0);
  Alcotest.(check (float 1e-9)) "max" 4.0 (Quantile.quantile xs 1.0);
  Alcotest.(check (float 1e-9)) "median interpolates" 2.5 (Quantile.median xs);
  Alcotest.(check (float 1e-9)) "q1" 1.75 (Quantile.quantile xs 0.25)

let test_quantile_unsorted_input () =
  Alcotest.(check (float 1e-9)) "unsorted" 2.5 (Quantile.median [| 4.0; 1.0; 3.0; 2.0 |])

let test_empty_rejected () =
  Alcotest.(check bool) "empty mean" true
    (try
       ignore (Quantile.mean [||]);
       false
     with Invalid_argument _ -> true)

let test_boxplot () =
  let b = Quantile.boxplot [| 5.0; 1.0; 3.0; 2.0; 4.0 |] in
  Alcotest.(check (float 1e-9)) "lo" 1.0 b.Quantile.lo;
  Alcotest.(check (float 1e-9)) "med" 3.0 b.Quantile.med;
  Alcotest.(check (float 1e-9)) "hi" 5.0 b.Quantile.hi;
  Alcotest.(check (float 1e-9)) "q1" 2.0 b.Quantile.q1;
  Alcotest.(check (float 1e-9)) "q3" 4.0 b.Quantile.q3

let prop_quantile_monotone =
  QCheck.Test.make ~name:"quantile monotone in q" ~count:200
    QCheck.(pair (list_of_size (QCheck.Gen.int_range 1 50) (float_range (-100.) 100.)) (pair (float_range 0. 1.) (float_range 0. 1.)))
    (fun (l, (q1, q2)) ->
      let xs = Array.of_list l in
      let lo = Float.min q1 q2 and hi = Float.max q1 q2 in
      Quantile.quantile xs lo <= Quantile.quantile xs hi +. 1e-9)

let prop_quantile_within_range =
  QCheck.Test.make ~name:"quantile inside [min,max]" ~count:200
    QCheck.(pair (list_of_size (QCheck.Gen.int_range 1 50) (float_range (-100.) 100.)) (float_range 0. 1.))
    (fun (l, q) ->
      let xs = Array.of_list l in
      let v = Quantile.quantile xs q in
      v >= Quantile.min xs -. 1e-9 && v <= Quantile.max xs +. 1e-9)

(* The sort-based definition [Quantile.quantile] selects instead of
   sorting for: type-7 interpolation between order statistics of a
   sorted copy. *)
let quantile_by_sort xs q =
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let n = Array.length sorted in
  let h = q *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor h) in
  let hi = Stdlib.min (n - 1) (lo + 1) in
  let frac = h -. float_of_int lo in
  sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

(* Samples heavy in ties, sorted and reversed runs, and the odd NaN or
   infinity; [Float.equal] treats NaN as equal to itself. *)
let prop_quantile_selects_as_sort =
  let open QCheck in
  let sample =
    Gen.(
      oneof
        [
          map float_of_int (int_range (-4) 4);
          float_range (-1e3) 1e3;
          float;
          oneofl [ nan; infinity; neg_infinity; 0.0; -0.0 ];
        ])
  in
  let layout xs = function
    | 0 -> xs
    | 1 -> List.sort compare xs
    | _ -> List.rev (List.sort compare xs)
  in
  let gen =
    Gen.(
      map3
        (fun xs order q -> (Array.of_list (layout xs order), q))
        (list_size (int_range 1 400) sample)
        (int_range 0 2)
        (oneof [ return 0.0; return 1.0; return 0.95; float_range 0.0 1.0 ]))
  in
  Test.make ~name:"quantile selects what the sort-based definition reads" ~count:1000
    (make ~print:Print.(pair (array float) float) gen)
    (fun (xs, q) ->
      let before = Array.copy xs in
      let v = Quantile.quantile xs q in
      Float.equal v (quantile_by_sort xs q) && Array.for_all2 Float.equal before xs)

let test_table_render () =
  let s = Table.render ~header:[ "a"; "bb" ] ~rows:[ [ "1"; "2" ]; [ "333" ] ] in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "line count" 5 (List.length lines);
  (* header, rule, two rows, trailing newline -> 5 splits *)
  Alcotest.(check bool) "pads short rows" true (String.length (List.nth lines 3) > 0)

let test_table_csv () =
  Alcotest.(check string) "csv" "a,b\n1,2\n" (Table.render_csv ~header:[ "a"; "b" ] ~rows:[ [ "1"; "2" ] ])

let test_csv_field () =
  (* RFC 4180: quote only when necessary, double embedded quotes. *)
  List.iter
    (fun (raw, escaped) -> Alcotest.(check string) raw escaped (Table.csv_field raw))
    [
      ("plain", "plain");
      ("", "");
      ("has space", "has space");
      ("a,b", "\"a,b\"");
      ("say \"hi\"", "\"say \"\"hi\"\"\"");
      ("line\nbreak", "\"line\nbreak\"");
      ("cr\rhere", "\"cr\rhere\"");
    ]

let test_csv_field_in_render_csv () =
  Alcotest.(check string) "cells escaped"
    "a,b\n\"1,5\",\"x\"\"y\"\n"
    (Table.render_csv ~header:[ "a"; "b" ] ~rows:[ [ "1,5"; "x\"y" ] ])

let test_bar_chart () =
  let s = Table.bar_chart ~width:10 [ ("x", 10.0); ("y", 5.0) ] in
  Alcotest.(check bool) "contains full bar" true
    (String.split_on_char '\n' s |> List.exists (fun l -> String.length l > 0 && String.contains l '#'))

let test_box_row () =
  let s = Table.box_row ~width:21 ~scale_hi:20.0 ~lo:0.0 ~q1:5.0 ~med:10.0 ~q3:15.0 ~hi:20.0 () in
  Alcotest.(check int) "width respected" 21 (String.length s);
  Alcotest.(check char) "median marker" '#' s.[10];
  Alcotest.(check char) "low whisker" '|' s.[0];
  Alcotest.(check char) "high whisker" '|' s.[20]

let test_series () =
  let s =
    Table.series ~x_label:"rate" ~xs:[ 1.0; 2.0 ]
      ~curves:[ ("FRFS", [ 10.0; 20.0 ]); ("MET", [ 15.0; 30.0 ]) ]
      ()
  in
  Alcotest.(check bool) "has header" true (String.length s > 0);
  Alcotest.(check int) "4 lines + trailing" 5 (List.length (String.split_on_char '\n' s))

let () =
  Alcotest.run "stats"
    [
      ( "quantile",
        [
          Alcotest.test_case "mean/stddev" `Quick test_mean_stddev;
          Alcotest.test_case "quantiles" `Quick test_quantiles;
          Alcotest.test_case "unsorted input" `Quick test_quantile_unsorted_input;
          Alcotest.test_case "empty rejected" `Quick test_empty_rejected;
          Alcotest.test_case "boxplot" `Quick test_boxplot;
          qtest prop_quantile_monotone;
          qtest prop_quantile_within_range;
          qtest prop_quantile_selects_as_sort;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "csv" `Quick test_table_csv;
          Alcotest.test_case "csv field escaping" `Quick test_csv_field;
          Alcotest.test_case "csv render escapes cells" `Quick test_csv_field_in_render_csv;
          Alcotest.test_case "bar chart" `Quick test_bar_chart;
          Alcotest.test_case "box row" `Quick test_box_row;
          Alcotest.test_case "series" `Quick test_series;
        ] );
    ]
