module App_spec = Dssoc_apps.App_spec
module Store = Dssoc_apps.Store
module Pe = Dssoc_soc.Pe

type status = Blocked | Ready | Running | Done

type t = {
  id : int;
  instance_id : int;
  app_name : string;
  node : App_spec.node;
  spec : App_spec.t;
  store : Store.t;
  mutable status : status;
  mutable unmet : int;
  mutable successors : t list;
  mutable ready_at : int;
  mutable dispatched_at : int;
  mutable completed_at : int;
  mutable pe_label : string;
  mutable attempts : int;
  mutable last_failure : (Dssoc_fault.Fault.failure * int) option;
}

type instance = {
  inst_id : int;
  app : App_spec.t;
  store : Store.t;
  arrival_ns : int;
  tasks : t array;
  entry : t list;
  mutable remaining : int;
  mutable completed_at : int;
  mutable cancelled : bool;
}

let instantiate ~task_id_base ~inst_id ~arrival_ns (spec : App_spec.t) =
  let store = Store.create spec.App_spec.variables in
  let nodes = Array.of_list spec.App_spec.nodes in
  let tasks =
    Array.mapi
      (fun i node ->
        {
          id = task_id_base + i;
          instance_id = inst_id;
          app_name = spec.App_spec.app_name;
          node;
          spec;
          store;
          status = Blocked;
          unmet = List.length node.App_spec.predecessors;
          successors = [];
          ready_at = -1;
          dispatched_at = -1;
          completed_at = -1;
          pe_label = "";
          attempts = 0;
          last_failure = None;
        })
      nodes
  in
  let by_name = Hashtbl.create (Array.length tasks) in
  Array.iter (fun t -> Hashtbl.replace by_name t.node.App_spec.node_name t) tasks;
  Array.iter
    (fun t ->
      t.successors <-
        List.map (fun s -> Hashtbl.find by_name s) t.node.App_spec.successors)
    tasks;
  {
    inst_id;
    app = spec;
    store;
    arrival_ns;
    tasks;
    entry = Array.to_list tasks |> List.filter (fun t -> t.unmet = 0);
    remaining = Array.length tasks;
    completed_at = -1;
    cancelled = false;
  }

let entry_matches (e : App_spec.platform_entry) (pe : Pe.t) =
  if e.App_spec.platform = "cpu" then Pe.is_cpu pe.Pe.kind
  else e.App_spec.platform = Pe.kind_name pe.Pe.kind

let platform_entry_for t pe = List.find_opt (fun e -> entry_matches e pe) t.node.App_spec.platforms

(* A plain recursion, so the policies' inner loops allocate nothing. *)
let rec any_entry_matches pe = function
  | [] -> false
  | e :: rest -> entry_matches e pe || any_entry_matches pe rest

let supports t pe = any_entry_matches pe t.node.App_spec.platforms

let status_to_string = function
  | Blocked -> "blocked"
  | Ready -> "ready"
  | Running -> "running"
  | Done -> "done"
