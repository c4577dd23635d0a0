module App_spec = Dssoc_apps.App_spec
module Store = Dssoc_apps.Store
module Pe = Dssoc_soc.Pe

(* A class's images by closure assignment.  [number.(row)] numbers the
   distinct closures node [j] runs on the PEs that support it, in PE
   order (row [j * n_pes + pe]); an instance's key is its tasks'
   closure numbers, [-1] for a task that never completed. *)
type 'a images = { number : int array; by_key : (int array, 'a) Hashtbl.t }

type 'a memo = {
  model : Exec_model.t;
  derive : Store.t -> 'a;
  classes : 'a images Lazy.t array;
}

let images (m : Exec_model.t) (c : Exec_model.cls) =
  let tp = c.Exec_model.topology in
  let n_pes = m.Exec_model.n_pes in
  let number = Array.make (Array.length tp.Task.tp_nodes * n_pes) (-1) in
  Array.iteri
    (fun j nd ->
      let seen = ref [] in
      for i = 0 to n_pes - 1 do
        if c.Exec_model.est.((j * n_pes) + i) <> min_int then begin
          let k = Exec_model.node_kernel tp.Task.tp_spec nd m.Exec_model.pes.(i) in
          let rec find d = function
            | [] ->
              seen := !seen @ [ k ];
              d
            | k' :: rest -> if k' == k then d else find (d + 1) rest
          in
          number.((j * n_pes) + i) <- find 0 !seen
        end
      done)
    tp.Task.tp_nodes;
  { number; by_key = Hashtbl.create 4 }

let memo model derive =
  { model; derive; classes = Array.map (fun c -> lazy (images model c)) model.Exec_model.classes }

(* The final store of an instance: a fresh store with the closure each
   completed task ran, on its recorded PE, applied in topological order. *)
let compute m (inst : Task.instance) =
  let spec = inst.Task.app in
  let store = Store.create spec.App_spec.variables in
  let index = Hashtbl.create (Array.length inst.Task.tasks) in
  Array.iter
    (fun (t : Task.t) -> Hashtbl.replace index t.Task.node.App_spec.node_name t)
    inst.Task.tasks;
  List.iter
    (fun (nd : App_spec.node) ->
      let t = Hashtbl.find index nd.App_spec.node_name in
      if t.Task.status = Task.Done then
        Exec_model.resolve_kernel t m.model.Exec_model.pes.(t.Task.pe)
          store nd.App_spec.arguments)
    (App_spec.topological_order spec);
  m.derive store

let image m (inst : Task.instance) =
  let tasks = inst.Task.tasks in
  if Array.length tasks = 0 then compute m inst
  else
    let c = Lazy.force m.classes.(tasks.(0).Task.cls) in
    let n_pes = m.model.Exec_model.n_pes in
    let key =
      Array.map
        (fun (t : Task.t) ->
          if t.Task.status <> Task.Done then -1
          else c.number.((t.Task.index * n_pes) + t.Task.pe))
        tasks
    in
    match Hashtbl.find_opt c.by_key key with
    | Some v -> v
    | None ->
      let v = compute m inst in
      Hashtbl.replace c.by_key key v;
      v

let fill_stores model instances =
  let m = memo model Fun.id in
  Array.iter
    (fun (inst : Task.instance) -> Store.blit_from inst.Task.store ~src:(image m inst))
    instances
