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
  store : int -> Store.t;  (** fresh initialised stores by class *)
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
  {
    model;
    derive;
    store = Exec_model.stores model;
    classes = Array.map (fun c -> lazy (images model c)) model.Exec_model.classes;
  }

(* The final store of a class-[cls] instance whose node [j] completed
   on PE [pe_of j] ([-1]: it never did): a fresh store with the closure
   each completed task ran, on its recorded PE, applied in topological
   order. *)
let compute m cls pe_of =
  let tp = m.model.Exec_model.classes.(cls).Exec_model.topology in
  let spec = tp.Task.tp_spec in
  let store = m.store cls in
  let index = Hashtbl.create (Array.length tp.Task.tp_nodes) in
  Array.iteri
    (fun j (nd : App_spec.node) -> Hashtbl.replace index nd.App_spec.node_name j)
    tp.Task.tp_nodes;
  List.iter
    (fun (nd : App_spec.node) ->
      let pe = pe_of (Hashtbl.find index nd.App_spec.node_name) in
      if pe >= 0 then
        Exec_model.node_kernel spec nd m.model.Exec_model.pes.(pe) store nd.App_spec.arguments)
    (App_spec.topological_order spec);
  m.derive store

let image_of m cls n pe_of =
  let c = Lazy.force m.classes.(cls) in
  let n_pes = m.model.Exec_model.n_pes in
  let key =
    Array.init n (fun j ->
        let pe = pe_of j in
        if pe < 0 then -1 else c.number.((j * n_pes) + pe))
  in
  match Hashtbl.find_opt c.by_key key with
  | Some v -> v
  | None ->
    let v = compute m cls pe_of in
    Hashtbl.replace c.by_key key v;
    v

let image m (st : Task.state) =
  image_of m st.Task.st_cls
    (Array.length st.Task.st_nodes / Task.width)
    (Task.completed_pe st)

let fill_stores model instances =
  let m = memo model Fun.id in
  Array.iter
    (fun (inst : Task.instance) ->
      let tasks = inst.Task.tasks in
      if Array.length tasks > 0 then
        Store.blit_from inst.Task.store
          ~src:
            (image_of m tasks.(0).Task.cls (Array.length tasks) (fun j ->
                 let t = tasks.(j) in
                 if t.Task.status = Task.Done then t.Task.pe else -1)))
    instances
