let check xs name = if Array.length xs = 0 then invalid_arg ("Quantile." ^ name ^ ": empty input")

let mean xs =
  check xs "mean";
  Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let stddev xs =
  check xs "stddev";
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let m = mean xs in
    let ss = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs in
    sqrt (ss /. float_of_int (n - 1))
  end

let min xs =
  check xs "min";
  Array.fold_left Float.min xs.(0) xs

let max xs =
  check xs "max";
  Array.fold_left Float.max xs.(0) xs

(* Rearranges [a] so that position [k] holds the element a sort by
   [Float.compare] (the order [Array.sort compare] gives floats) would
   put there, with no greater element after it and no smaller one
   before: Hoare partitioning around a median-of-three pivot, narrowing
   to the side that holds [k].  Expected linear time; an adversarial
   order can make it quadratic. *)
let select a k =
  let lt (x : float) y = Float.compare x y < 0 in
  let l = ref 0 and r = ref (Array.length a - 1) in
  while !l < !r do
    let x = a.(!l) and y = a.((!l + !r) / 2) and z = a.(!r) in
    let pivot =
      if lt x y then (if lt y z then y else if lt x z then z else x)
      else if lt x z then x
      else if lt y z then z
      else y
    in
    let i = ref !l and j = ref !r in
    while !i <= !j do
      while lt a.(!i) pivot do
        incr i
      done;
      while lt pivot a.(!j) do
        decr j
      done;
      if !i <= !j then begin
        let t = a.(!i) in
        a.(!i) <- a.(!j);
        a.(!j) <- t;
        incr i;
        decr j
      end
    done;
    (* [l..j] holds nothing above the pivot, [i..r] nothing below it,
       and what lies strictly between equals it. *)
    if k <= !j then r := !j else if k >= !i then l := !i else l := !r
  done

(* The two order statistics the interpolation reads are selected, not
   sorted for: after [select] puts the [lo]-th in place, the next one
   is the least element after it. *)
let quantile xs q =
  check xs "quantile";
  if q < 0.0 || q > 1.0 then invalid_arg "Quantile.quantile: q out of [0,1]";
  let a = Array.copy xs in
  let n = Array.length a in
  let h = q *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor h) in
  let frac = h -. float_of_int lo in
  select a lo;
  let v_lo = a.(lo) in
  let v_hi = ref v_lo in
  if lo + 1 < n then begin
    v_hi := a.(lo + 1);
    for p = lo + 2 to n - 1 do
      if Float.compare a.(p) !v_hi < 0 then v_hi := a.(p)
    done
  end;
  v_lo +. (frac *. (!v_hi -. v_lo))

let median xs = quantile xs 0.5

type boxplot = { lo : float; q1 : float; med : float; q3 : float; hi : float }

let boxplot xs =
  { lo = min xs; q1 = quantile xs 0.25; med = median xs; q3 = quantile xs 0.75; hi = max xs }
