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
  tp_state : int array;
}

(* Instance state: [width] ints per node, node-major. *)
let width = 8
let f_status = 0
let f_unmet = 1
let f_ready = 2
let f_dispatched = 3
let f_completed = 4
let f_dma = 5
let f_pe = 6
let f_attempts = 7
let blocked = 0
let ready = 1
let running = 2
let done_ = 3
let status_of_code = function 0 -> Blocked | 1 -> Ready | 2 -> Running | _ -> Done

type state = {
  st_id : int;
  st_cls : int;
  st_task_base : int;
  st_arrival_ns : int;
  st_store : Store.t;
  st_nodes : int array;
  mutable st_remaining : int;
  mutable st_completed_at : int;
}

let topology (spec : App_spec.t) =
  let nodes = Array.of_list spec.App_spec.nodes in
  let by_name = Hashtbl.create (Array.length nodes) in
  Array.iteri (fun j (nd : App_spec.node) -> Hashtbl.replace by_name nd.App_spec.node_name j) nodes;
  let unmet = Array.map (fun (nd : App_spec.node) -> List.length nd.App_spec.predecessors) nodes in
  let entry = ref [] in
  Array.iteri (fun j u -> if u = 0 then entry := j :: !entry) unmet;
  let state = Array.make (width * Array.length nodes) 0 in
  Array.iteri
    (fun j u ->
      let b = j * width in
      state.(b + f_unmet) <- u;
      state.(b + f_ready) <- -1;
      state.(b + f_dispatched) <- -1;
      state.(b + f_completed) <- -1;
      state.(b + f_pe) <- -1)
    unmet;
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
    tp_state = state;
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

let state tp ~cls ~store ~task_id_base ~inst_id ~arrival_ns =
  {
    st_id = inst_id;
    st_cls = cls;
    st_task_base = task_id_base;
    st_arrival_ns = arrival_ns;
    st_store = store;
    st_nodes = Array.copy tp.tp_state;
    st_remaining = Array.length tp.tp_nodes;
    st_completed_at = -1;
  }

let status st j = status_of_code st.st_nodes.((j * width) + f_status)
let attempts st j = st.st_nodes.((j * width) + f_attempts)

let completed_pe st j =
  let b = j * width in
  if st.st_nodes.(b + f_status) = done_ then st.st_nodes.(b + f_pe) else -1

let view tp st j =
  let f k = st.st_nodes.((j * width) + k) in
  let spec = tp.tp_spec in
  {
    id = st.st_task_base + j;
    index = j;
    instance_id = st.st_id;
    cls = st.st_cls;
    app_name = spec.App_spec.app_name;
    node = tp.tp_nodes.(j);
    spec;
    store = st.st_store;
    status = status_of_code (f f_status);
    unmet = f f_unmet;
    ready_at = f f_ready;
    dispatched_at = f f_dispatched;
    completed_at = f f_completed;
    dma_ns = f f_dma;
    pe = f f_pe;
    attempts = f f_attempts;
  }

let instance_of_state tp st =
  {
    inst_id = st.st_id;
    app = tp.tp_spec;
    store = st.st_store;
    arrival_ns = st.st_arrival_ns;
    tasks = Array.init (Array.length tp.tp_nodes) (view tp st);
    remaining = st.st_remaining;
    completed_at = st.st_completed_at;
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
