(* In-memory span recorder for the traced pass.  The benchmark brackets
   each call it makes into a library layer with a span (layer, name,
   start, end, parent, point id), keeps them in memory and writes them
   out once, as a Chrome trace, when the pass ends. *)

module Mclock = Dssoc_util.Mclock
module Json = Dssoc_json.Json

type span = {
  id : int;
  layer : string;
  name : string;
  parent : int;  (** id of the enclosing span, -1 at top level *)
  point : int;  (** design point the span belongs to, -1 for none *)
  start_ns : int;
  mutable stop_ns : int;
}

type t = { origin_ns : int; mutable spans : span list; mutable stack : span list; mutable next : int }

let create () = { origin_ns = Mclock.now_ns (); spans = []; stack = []; next = 0 }

let record t ~layer ~name ?(point = -1) f =
  let parent = match t.stack with s :: _ -> s.id | [] -> -1 in
  let now = Mclock.now_ns () in
  let s = { id = t.next; layer; name; parent; point; start_ns = now; stop_ns = now } in
  t.next <- t.next + 1;
  t.stack <- s :: t.stack;
  Fun.protect
    ~finally:(fun () ->
      s.stop_ns <- Mclock.now_ns ();
      t.stack <- List.tl t.stack;
      t.spans <- s :: t.spans)
    f

let spans t = List.rev t.spans
let duration_ns s = s.stop_ns - s.start_ns

(* A span's self time is its duration minus the time its direct
   children cover; children never overlap (one domain, strict
   nesting), so their durations simply add. *)
let self_ns t =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let prev = Option.value ~default:0 (Hashtbl.find_opt children s.parent) in
      Hashtbl.replace children s.parent (prev + duration_ns s))
    t.spans;
  fun s -> duration_ns s - Option.value ~default:0 (Hashtbl.find_opt children s.id)

(* Total self time per layer, in first-appearance order. *)
let self_ms_by_layer t =
  let self = self_ns t in
  let totals = Hashtbl.create 8 and order = ref [] in
  List.iter
    (fun s ->
      if not (Hashtbl.mem totals s.layer) then order := s.layer :: !order;
      let prev = Option.value ~default:0 (Hashtbl.find_opt totals s.layer) in
      Hashtbl.replace totals s.layer (prev + self s))
    (spans t);
  List.rev_map (fun l -> (l, float_of_int (Hashtbl.find totals l) /. 1e6)) !order

let chrome_trace t =
  let us ns = Json.float (float_of_int ns /. 1e3) in
  Json.obj
    [
      ( "traceEvents",
        Json.list
          (List.map
             (fun s ->
               Json.obj
                 [
                   ("name", Json.str s.name);
                   ("cat", Json.str s.layer);
                   ("ph", Json.str "X");
                   ("ts", us (s.start_ns - t.origin_ns));
                   ("dur", us (duration_ns s));
                   ("pid", Json.int 1);
                   ("tid", Json.int 1);
                   ( "args",
                     Json.obj
                       [ ("id", Json.int s.id); ("parent", Json.int s.parent); ("point", Json.int s.point) ]
                   );
                 ])
             (spans t)) );
      ("displayTimeUnit", Json.str "ms");
    ]
