(* The one sampling harness every timed measurement goes through:
   quartiles, wall-clock timing and an alternating sampling loop. *)

module Mclock = Dssoc_util.Mclock

type summary = { n : int; median : float; q1 : float; q3 : float }

(* Quartiles by the "exclusive" method of Python's
   [statistics.quantiles(xs, n=4)], so spreads printed here agree with
   spreads computed from the same samples by external scripts. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let len = Array.length a in
  if len = 0 then invalid_arg "Harness.quartiles: no samples";
  if len = 1 then (a.(0), a.(0), a.(0))
  else
    let m = len + 1 in
    let q i =
      let j = max 1 (min (len - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

let summarize xs =
  let q1, median, q3 = quartiles xs in
  { n = List.length xs; median; q1; q3 }

let median xs = (summarize xs).median

(* Linear interpolation between the closest ranks. *)
let percentile xs p =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "Harness.percentile: no samples";
  let rank = p *. float_of_int (n - 1) in
  let lo = truncate rank in
  let hi = min (n - 1) (lo + 1) in
  a.(lo) +. ((rank -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let seconds_since t0 = float_of_int (Mclock.now_ns () - t0) /. 1e9

let time f =
  let t0 = Mclock.now_ns () in
  let r = f () in
  (r, seconds_since t0)

(* Run [variants] round after round until [budget_s] has elapsed and at
   least [min_rounds] rounds are done.  Each variant returns the
   seconds of its measured section (it may prepare inputs untimed
   before it).  Within a round every variant runs once; the starting
   variant alternates between rounds, so machine-load drift hits all
   variants alike instead of the one that always runs second.  A new
   round is started only when the median round so far predicts that
   its midpoint falls within the budget, so a run ends at the round
   boundary nearest to [budget_s] even when rounds are long.  Returns
   each variant's measured seconds, in round order. *)
let sample ?(min_rounds = 1) ~budget_s (variants : (unit -> float) array) =
  let k = Array.length variants in
  let times = Array.make k [] in
  let rounds = ref [] in
  let t0 = Mclock.now_ns () in
  let continue_ () =
    let n = List.length !rounds in
    n < min_rounds || seconds_since t0 +. (median !rounds /. 2.0) < budget_s
  in
  while continue_ () do
    let r0 = Mclock.now_ns () in
    let forward = List.length !rounds mod 2 = 0 in
    for j = 0 to k - 1 do
      let v = if forward then j else k - 1 - j in
      times.(v) <- variants.(v) () :: times.(v)
    done;
    rounds := seconds_since r0 :: !rounds
  done;
  Array.map List.rev times
