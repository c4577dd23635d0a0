(* What one benchmark run accumulates: named sample series, and the
   operations it attempted and saw fail. *)

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (** newest first *)
  series : (string, float list) Hashtbl.t;  (** samples, newest first *)
  mutable names : string list;  (** first-seen order, newest first *)
  mutable digest : string option;  (** the run's output fingerprint *)
}

let create () = { attempted = 0; failed = 0; problems = []; series = Hashtbl.create 64; names = []; digest = None }

let add t name v =
  match Hashtbl.find_opt t.series name with
  | Some xs -> Hashtbl.replace t.series name (v :: xs)
  | None ->
    Hashtbl.replace t.series name [ v ];
    t.names <- name :: t.names

let samples t name = Option.map List.rev (Hashtbl.find_opt t.series name)
let names t = List.rev t.names

let fail t what =
  t.failed <- t.failed + 1;
  t.problems <- what :: t.problems

(* One checked condition is one attempted operation. *)
let check t what ok =
  t.attempted <- t.attempted + 1;
  if not ok then fail t what

(* Run one operation; an exception is counted as a failure. *)
let attempt t what f =
  t.attempted <- t.attempted + 1;
  match f () with
  | v -> Some v
  | exception e ->
    fail t (what ^ ": " ^ Printexc.to_string e);
    None

let md5 s = Digest.to_hex (Digest.string s)
