module App_spec = Dssoc_apps.App_spec
module Kernels = Dssoc_apps.Kernels
module Store = Dssoc_apps.Store
module Workload = Dssoc_apps.Workload
module Pe = Dssoc_soc.Pe
module Config = Dssoc_soc.Config
module Cost_model = Dssoc_soc.Cost_model
module Fabric = Dssoc_soc.Fabric

let entry_for ~app (node : App_spec.node) pe =
  match Task.node_entry node pe with
  | Some e -> e
  | None ->
    invalid_arg
      (Printf.sprintf "Exec_model: task %s/%s does not support PE %s" app
         node.App_spec.node_name pe.Pe.label)

(* DMA volumes: the explicit [bytes_in]/[bytes_out] when positive, else
   one complex float32 per sample. *)
let dma_bytes (node : App_spec.node) =
  let default = 8 * node.App_spec.size in
  let bi = if node.App_spec.bytes_in > 0 then node.App_spec.bytes_in else default in
  let bo = if node.App_spec.bytes_out > 0 then node.App_spec.bytes_out else default in
  (bi, bo)

let accel_phases_ns (node : App_spec.node) acl =
  let bytes_in, bytes_out = dma_bytes node in
  Cost_model.accel_phases_ns ~bytes_in ~bytes_out ~n:node.App_spec.size acl

let node_estimate_ns (node : App_spec.node) (entry : App_spec.platform_entry) pe =
  match entry.App_spec.cost_us with
  | Some us -> int_of_float (Float.round (us *. 1e3))
  | None -> (
    match pe.Pe.kind with
    | Pe.Cpu cls ->
      Cost_model.cpu_cost_ns ~kernel:node.App_spec.kernel_class ~n:node.App_spec.size cls
    | Pe.Accel acl ->
      let i, c, o = accel_phases_ns node acl in
      i + c + o)

let estimate_ns (task : Task.t) pe =
  node_estimate_ns task.Task.node (entry_for ~app:task.Task.app_name task.Task.node pe) pe

let node_kernel (spec : App_spec.t) node pe =
  let platform = entry_for ~app:spec.App_spec.app_name node pe in
  match Kernels.resolve ~app:spec ~node ~platform with
  | Ok k -> k
  | Error msg -> invalid_arg (Printf.sprintf "Exec_model.resolve_kernel: %s" msg)

let resolve_kernel (task : Task.t) pe = node_kernel task.Task.spec task.Task.node pe

(* ------------------------------------------------------------------ *)
(* Classes: one spec, lowered against one platform                     *)
(* ------------------------------------------------------------------ *)

type cls = {
  topology : Task.topology;
  est : int array;
  dma_in : int array;
  compute : int array;
  dma_out : int array;
  demand_in : int array;
  demand_out : int array;
  fixed_in : int array;
  fixed_out : int array;
  bytes_in : int array;
  bytes_out : int array;
}

let unsupported = min_int

let build_class ~engine_name ~(config : Config.t) ~(pes : Pe.t array) spec =
  let tp = Task.topology spec in
  let app = spec.App_spec.app_name in
  let n_pes = Array.length pes in
  let supported nd pe = Option.is_some (Task.node_entry nd pe) in
  Array.iter
    (fun (nd : App_spec.node) ->
      if not (Array.exists (supported nd) pes) then
        invalid_arg
          (Printf.sprintf "%s: task %s/%s supports no PE of configuration %s" engine_name app
             nd.App_spec.node_name config.Config.label))
    tp.Task.tp_nodes;
  (* Every kernel must resolve on every PE that could run it, so a
     missing symbol fails here on every engine, not mid-run.  PEs that
     match one platform entry resolve one kernel, so each entry is
     resolved once, in the order the PEs first reach it. *)
  Array.iter
    (fun nd ->
      let resolved = ref [] in
      Array.iter
        (fun pe ->
          match Task.node_entry nd pe with
          | Some e when not (List.memq e !resolved) ->
            resolved := e :: !resolved;
            ignore (node_kernel spec nd pe : Kernels.kernel)
          | _ -> ())
        pes)
    tp.Task.tp_nodes;
  let size = max 1 (Array.length tp.Task.tp_nodes * n_pes) in
  let col fill = Array.make size fill in
  let c =
    {
      topology = tp;
      est = col unsupported;
      dma_in = col 0;
      compute = col 0;
      dma_out = col 0;
      demand_in = col (-1);
      demand_out = col (-1);
      fixed_in = col 0;
      fixed_out = col 0;
      bytes_in = col 0;
      bytes_out = col 0;
    }
  in
  Array.iteri
    (fun j nd ->
      Array.iteri
        (fun i pe ->
          match Task.node_entry nd pe with
          | None -> ()
          | Some entry -> (
            let row = (j * n_pes) + i in
            c.est.(row) <- node_estimate_ns nd entry pe;
            match (pe.Pe.kind, entry.App_spec.cost_us) with
            | Pe.Cpu _, _ -> ()
            | Pe.Accel _, Some us ->
              (* The JSON override prices the whole task as device
                 compute and moves no data. *)
              c.compute.(row) <- int_of_float (us *. 1e3)
            | Pe.Accel acl, None -> (
              let din, comp, dout = accel_phases_ns nd acl in
              c.dma_in.(row) <- din;
              c.compute.(row) <- comp;
              c.dma_out.(row) <- dout;
              match config.Config.fabric with
              | Fabric.Ideal -> ()
              | Fabric.Bus bus ->
                let bi, bo = dma_bytes nd in
                let stream demand fixed bytes_col bytes =
                  if bytes > 0 then begin
                    demand.(row) <- Fabric.demand_ns bus ~bytes;
                    fixed.(row) <-
                      Fabric.fixed_ns bus ~pe_index:i
                        ~chunks:(Cost_model.chunk_count acl ~bytes)
                        ~chunk_lat_ns:acl.Pe.dma.Dssoc_soc.Dma.latency_ns;
                    bytes_col.(row) <- bytes
                  end
                in
                stream c.demand_in c.fixed_in c.bytes_in bi;
                stream c.demand_out c.fixed_out c.bytes_out bo)))
        pes)
    tp.Task.tp_nodes;
  c

(* ------------------------------------------------------------------ *)
(* A run's lowering                                                    *)
(* ------------------------------------------------------------------ *)

type t = {
  pes : Pe.t array;
  n_pes : int;
  classes : cls array;
  items : int array;
  arrivals : int array;
}

let lower ~engine_name ~(config : Config.t) (workload : Workload.t) =
  let pes = Array.of_list (Config.pes config) in
  let items = Array.of_list workload.Workload.items in
  (* One class per distinct spec: shared refs first, structural
     equality as the fallback for re-parsed JSON.  Every physical spec
     met is remembered with its class, so the deep comparison runs once
     per physical spec, not once per item. *)
  let known = ref [] and seen = ref [] in
  let class_of (spec : App_spec.t) =
    match List.assq_opt spec !seen with
    | Some k -> k
    | None ->
      let k =
        match List.find_opt (fun ((c : cls), _) -> c.topology.Task.tp_spec = spec) !known with
        | Some (_, k) -> k
        | None ->
          let k = List.length !known in
          known := (build_class ~engine_name ~config ~pes spec, k) :: !known;
          k
      in
      seen := (spec, k) :: !seen;
      k
  in
  let idx = Array.map (fun (it : Workload.item) -> class_of it.Workload.spec) items in
  {
    pes;
    n_pes = Array.length pes;
    classes = Array.of_list (List.rev_map fst !known);
    items = idx;
    arrivals = Array.map (fun (it : Workload.item) -> it.Workload.arrival_ns) items;
  }

let lower_specs ~engine_name ~config specs =
  let pes = Array.of_list (Config.pes config) in
  let classes = Array.of_list (List.map (build_class ~engine_name ~config ~pes) specs) in
  { pes; n_pes = Array.length pes; classes; items = [||]; arrivals = [||] }

let task_count m k = Array.length m.classes.(k).topology.Task.tp_nodes

let instance m k ~store ~task_id_base ~inst_id ~arrival_ns =
  Task.instance m.classes.(k).topology ~cls:k ~store ~task_id_base ~inst_id ~arrival_ns

let state m k ~store ~task_id_base ~inst_id ~arrival_ns =
  Task.state m.classes.(k).topology ~cls:k ~store ~task_id_base ~inst_id ~arrival_ns

let instance_of_state m (st : Task.state) =
  Task.instance_of_state m.classes.(st.Task.st_cls).topology st

let stores m =
  let templates = Array.make (Array.length m.classes) None in
  fun k ->
    match templates.(k) with
    | Some t -> Store.copy t
    | None ->
      let t = Store.create m.classes.(k).topology.Task.tp_spec.App_spec.variables in
      templates.(k) <- Some t;
      Store.copy t

let class_of m (task : Task.t) = m.classes.(task.Task.cls)

let node_names m =
  Array.map
    (fun c ->
      let tp = c.topology in
      ( tp.Task.tp_spec.App_spec.app_name,
        Array.map (fun (nd : App_spec.node) -> nd.App_spec.node_name) tp.Task.tp_nodes ))
    m.classes

let name_bases m =
  let next = ref 0 in
  Array.map
    (fun c ->
      let base = !next in
      next := base + Array.length c.topology.Task.tp_nodes;
      base)
    m.classes

let names m =
  Array.concat
    (Array.to_list
       (Array.map (fun (app, nodes) -> Array.map (fun node -> (app, node)) nodes) (node_names m)))

let row m (task : Task.t) pe_index = (task.Task.index * m.n_pes) + pe_index
let estimate m task pe_index = (class_of m task).est.(row m task pe_index)
