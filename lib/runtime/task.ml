module App_spec = Dssoc_apps.App_spec
module Store = Dssoc_apps.Store
module Pe = Dssoc_soc.Pe

type status = Blocked | Ready | Running | Done

type t = {
  id : int;
  index : int;
  instance_id : int;
  cls : int;
  app_name : string;
  node : App_spec.node;
  spec : App_spec.t;
  store : Store.t;
  mutable status : status;
  mutable unmet : int;
  mutable ready_at : int;
  mutable dispatched_at : int;
  mutable completed_at : int;
  mutable dma_ns : int;
  mutable pe : int;
  mutable attempts : int;
  mutable last_failure : (Dssoc_fault.Fault.failure * int) option;
}

type instance = {
  inst_id : int;
  app : App_spec.t;
  store : Store.t;
  arrival_ns : int;
  tasks : t array;
  mutable remaining : int;
  mutable completed_at : int;
}

type topology = {
  tp_spec : App_spec.t;
  tp_nodes : App_spec.node array;
  tp_unmet : int array;
  tp_succ : int array array;
  tp_entry : int array;
}

let topology (spec : App_spec.t) =
  let nodes = Array.of_list spec.App_spec.nodes in
  let by_name = Hashtbl.create (Array.length nodes) in
  Array.iteri (fun j (nd : App_spec.node) -> Hashtbl.replace by_name nd.App_spec.node_name j) nodes;
  let unmet = Array.map (fun (nd : App_spec.node) -> List.length nd.App_spec.predecessors) nodes in
  let entry = ref [] in
  Array.iteri (fun j u -> if u = 0 then entry := j :: !entry) unmet;
  {
    tp_spec = spec;
    tp_nodes = nodes;
    tp_unmet = unmet;
    tp_succ =
      Array.map
        (fun (nd : App_spec.node) ->
          Array.of_list (List.map (Hashtbl.find by_name) nd.App_spec.successors))
        nodes;
    tp_entry = Array.of_list (List.rev !entry);
  }

let instance tp ~cls ~store ~task_id_base ~inst_id ~arrival_ns =
  let spec = tp.tp_spec in
  let tasks =
    Array.mapi
      (fun j node ->
        {
          id = task_id_base + j;
          index = j;
          instance_id = inst_id;
          cls;
          app_name = spec.App_spec.app_name;
          node;
          spec;
          store;
          status = Blocked;
          unmet = tp.tp_unmet.(j);
          ready_at = -1;
          dispatched_at = -1;
          completed_at = -1;
          dma_ns = 0;
          pe = -1;
          attempts = 0;
          last_failure = None;
        })
      tp.tp_nodes
  in
  {
    inst_id;
    app = spec;
    store;
    arrival_ns;
    tasks;
    remaining = Array.length tasks;
    completed_at = -1;
  }

let instantiate ~task_id_base ~inst_id ~arrival_ns (spec : App_spec.t) =
  instance (topology spec) ~cls:0 ~store:(Store.create spec.App_spec.variables) ~task_id_base
    ~inst_id ~arrival_ns

let entry_matches (e : App_spec.platform_entry) (pe : Pe.t) =
  if e.App_spec.platform = "cpu" then Pe.is_cpu pe.Pe.kind
  else e.App_spec.platform = Pe.kind_name pe.Pe.kind

let node_entry (node : App_spec.node) pe =
  List.find_opt (fun e -> entry_matches e pe) node.App_spec.platforms

(* A plain recursion, so the policies' inner loops allocate nothing. *)
let rec any_entry_matches pe = function
  | [] -> false
  | e :: rest -> entry_matches e pe || any_entry_matches pe rest

let supports t pe = any_entry_matches pe t.node.App_spec.platforms
