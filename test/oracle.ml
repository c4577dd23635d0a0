(* A reference for the deterministic engines' functional outputs that
   shares nothing with [Functional] but the kernel registry: every
   instance starts from a fresh store and applies the kernels of its
   completed tasks one by one, in topological order, each resolved on
   the PE its task recorded.  No memo, no image sharing. *)

module Task = Dssoc_runtime.Task
module Exec_model = Dssoc_runtime.Exec_model
module App_spec = Dssoc_apps.App_spec
module Store = Dssoc_apps.Store
module Config = Dssoc_soc.Config
module Pe = Dssoc_soc.Pe

let final_store ~(config : Config.t) (inst : Task.instance) =
  let store = Store.create inst.Task.app.App_spec.variables in
  List.iter
    (fun (node : App_spec.node) ->
      let task =
        List.find
          (fun (t : Task.t) -> t.Task.node.App_spec.node_name = node.App_spec.node_name)
          (Array.to_list inst.Task.tasks)
      in
      if task.Task.status = Task.Done then begin
        let pe =
          List.find (fun (pe : Pe.t) -> pe.Pe.label = task.Task.pe_label) (Config.pes config)
        in
        (Exec_model.resolve_kernel task pe) store node.App_spec.arguments
      end)
    (App_spec.topological_order inst.Task.app);
  store

(* Every variable of every instance, bit for bit. *)
let check label ~config (instances : Task.instance array) =
  Array.iteri
    (fun i (inst : Task.instance) ->
      let expected = final_store ~config inst in
      List.iter
        (fun var ->
          if not (Bytes.equal (Store.get_raw expected var) (Store.get_raw inst.Task.store var))
          then Alcotest.failf "%s: instance %d var %s differs from the oracle" label i var)
        (Store.names expected))
    instances
