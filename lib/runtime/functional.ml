module App_spec = Dssoc_apps.App_spec
module Kernels = Dssoc_apps.Kernels
module Store = Dssoc_apps.Store
module Pe = Dssoc_soc.Pe

type 'a memo = {
  pes : (string, Pe.t) Hashtbl.t;
  derive : Store.t -> 'a;
  mutable images : (App_spec.t * Kernels.kernel option array * 'a) list;
}

let memo ~pes derive =
  let tbl = Hashtbl.create 8 in
  List.iter (fun (pe : Pe.t) -> Hashtbl.replace tbl pe.Pe.label pe) pes;
  { pes = tbl; derive; images = [] }

let same a b = match (a, b) with Some k, Some k' -> k == k' | None, None -> true | _ -> false

let image m (inst : Task.instance) =
  let spec = inst.Task.app in
  (* The closure each task ran, on its recorded PE; none for a task
     that never completed (an aborted run). *)
  let ks =
    Array.map
      (fun (t : Task.t) ->
        if t.Task.status <> Task.Done then None
        else Some (Exec_model.resolve_kernel t (Hashtbl.find m.pes t.Task.pe_label)))
      inst.Task.tasks
  in
  match List.find_opt (fun (s, ks', _) -> s == spec && Array.for_all2 same ks ks') m.images with
  | Some (_, _, v) -> v
  | None ->
    let store = Store.create spec.App_spec.variables in
    let index = Hashtbl.create (Array.length ks) in
    Array.iteri
      (fun j (t : Task.t) -> Hashtbl.replace index t.Task.node.App_spec.node_name j)
      inst.Task.tasks;
    List.iter
      (fun (nd : App_spec.node) ->
        Option.iter
          (fun k -> k store nd.App_spec.arguments)
          ks.(Hashtbl.find index nd.App_spec.node_name))
      (App_spec.topological_order spec);
    let v = m.derive store in
    m.images <- (spec, ks, v) :: m.images;
    v

let fill_stores ~pes instances =
  let m = memo ~pes Fun.id in
  Array.iter
    (fun (inst : Task.instance) -> Store.blit_from inst.Task.store ~src:(image m inst))
    instances
