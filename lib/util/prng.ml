(* The four xoshiro words live in 32 bytes, read and written as raw
   int64s, so a draw allocates nothing: int64 record fields would box
   every word written. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let make s0 s1 s2 s3 =
  let t = Bytes.create 32 in
  set64 t 0 s0;
  set64 t 8 s1;
  set64 t 16 s2;
  set64 t 24 s3;
  t

(* SplitMix64 step, used only to expand the user seed into the four
   xoshiro words; a single 64-bit seed would otherwise leave most of the
   256-bit state zero, which xoshiro forbids. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create ~seed =
  let sm = ref seed in
  let s0 = splitmix64 sm in
  let s1 = splitmix64 sm in
  let s2 = splitmix64 sm in
  let s3 = splitmix64 sm in
  make s0 s1 s2 s3

let copy = Bytes.copy

let state t = (get64 t 0, get64 t 8, get64 t 16, get64 t 24)

let of_state (s0, s1, s2, s3) =
  if s0 = 0L && s1 = 0L && s2 = 0L && s3 = 0L then
    invalid_arg "Prng.of_state: all-zero state";
  make s0 s1 s2 s3

let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] bits64 t =
  let open Int64 in
  let s0 = get64 t 0 and s1 = get64 t 8 and s2 = get64 t 16 and s3 = get64 t 24 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  set64 t 8 (logxor s1 s2);
  set64 t 0 (logxor s0 s3);
  set64 t 16 (logxor s2 (shift_left s1 17));
  set64 t 24 (rotl s3 45);
  result

let split t = create ~seed:(bits64 t)

(* Pure (seed, index) -> seed mixing for embarrassingly parallel
   sweeps: each grid point derives its own stream from the campaign
   seed and its point index, so results cannot depend on which worker
   evaluates the point or in what order. *)
let derive_seed ~seed ~index =
  if index < 0 then invalid_arg "Prng.derive_seed: negative index";
  let sm = ref (Int64.logxor seed (Int64.mul (Int64.of_int (index + 1)) 0x9E3779B97F4A7C15L)) in
  let a = splitmix64 sm in
  let b = splitmix64 sm in
  Int64.logxor a (rotl b 17)

let derive ~seed ~index = create ~seed:(derive_seed ~seed ~index)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection sampling over the top bits to avoid modulo bias. *)
  let bound64 = Int64.of_int bound in
  let rec draw () =
    let raw = Int64.shift_right_logical (bits64 t) 1 in
    let v = Int64.rem raw bound64 in
    if Int64.sub raw v > Int64.sub (Int64.sub Int64.max_int bound64) 1L then draw ()
    else Int64.to_int v
  in
  draw ()

let int_in t lo hi =
  if hi < lo then invalid_arg "Prng.int_in: hi < lo";
  lo + int t (hi - lo + 1)

let float t bound =
  (* 53 uniform mantissa bits. *)
  let raw = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float raw /. 9007199254740992.0 *. bound

let bool t = Int64.compare (Int64.logand (bits64 t) 1L) 0L <> 0

let bernoulli t p = float t 1.0 < p

let exponential t ~mean =
  let u = float t 1.0 in
  let u = if u <= 0.0 then epsilon_float else u in
  -.mean *. log u

let gaussian t ~mu ~sigma =
  let rec nonzero () =
    let u = float t 1.0 in
    if u <= 0.0 then nonzero () else u
  in
  let u1 = nonzero () and u2 = float t 1.0 in
  mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t a =
  if Array.length a = 0 then invalid_arg "Prng.choose: empty array";
  a.(int t (Array.length a))
