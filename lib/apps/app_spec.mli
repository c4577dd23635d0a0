(** Application archetypes: the JSON-described DAG applications of
    Listing 1, plus validation and graph utilities.

    Schema (keys exactly as in the paper):

    {v
    { "AppName": "...", "SharedObject": "....so",
      "Variables": { name: { "bytes": int, "is_ptr": bool,
                             "ptr_alloc_bytes": int, "val": [int...] } },
      "DAG": { node: { "arguments": [var...],
                       "predecessors": [node...],
                       "successors": [node...],
                       "platforms": [ { "name": pe, "runfunc": sym,
                                        "shared_object"?: "....so",
                                        "cost_us"?: float } ],
                       "kernel"?: string, "size"?: int,
                       "bytes_in"?: int, "bytes_out"?: int } } }
    v}

    The [kernel]/[size]/[bytes_in]/[bytes_out] keys are this
    implementation's encoding of the "execution time cost on supported
    platforms" and "communication costs (data transfer volumes)" the
    paper says each DAG carries; [cost_us] lets a platform entry pin an
    explicit measured time that overrides the cost model. *)

type platform_entry = {
  platform : string;  (** PE class name: "cpu", "fft", "big", "little", ... *)
  runfunc : string;  (** symbol looked up in the shared object *)
  shared_object : string option;  (** per-entry override (e.g. "fft_accel.so") *)
  cost_us : float option;  (** explicit execution-time override *)
}

type node = {
  node_name : string;
  arguments : string list;
  predecessors : string list;
  successors : string list;
  platforms : platform_entry list;
  kernel_class : string;  (** cost-model key; defaults to "generic" *)
  size : int;  (** problem size n for the cost model; defaults to 1 *)
  bytes_in : int;  (** DMA volume to an accelerator (0 = derive from arguments) *)
  bytes_out : int;
}

type t = {
  app_name : string;
  shared_object : string;
  variables : (string * Store.var_spec) list;
  nodes : node list;  (** stored in declaration order *)
}

(** {1 Construction and validation} *)

val validate : t -> (t, string) result
(** Checks: nonempty, unique node names, predecessors/successors refer
    to existing nodes and are mutually consistent, node arguments refer
    to declared variables, every node has at least one platform entry,
    and the graph is acyclic. *)

val of_edges :
  app_name:string ->
  shared_object:string ->
  variables:(string * Store.var_spec) list ->
  nodes:node list ->
  t
(** Builder that fills [successors] automatically from [predecessors]
    (whatever was supplied in [successors] is ignored) and validates.
    @raise Invalid_argument when validation fails. *)

val node : t -> string -> node
(** @raise Not_found. *)

val entry_nodes : t -> node list
(** Nodes with no predecessors (injected when an instance arrives). *)

val topological_order : t -> node list
(** Stable topological order (declaration order among ready peers).
    The deterministic engines apply an instance's kernels in this
    order, which defines their outputs even when two unordered nodes
    touch the same bytes (see [Dssoc_runtime.Functional]). *)

val critical_path_length : t -> int
(** Number of nodes on the longest dependency chain. *)

val task_count : t -> int

(** {1 JSON} *)

val of_json : Dssoc_json.Json.t -> (t, string) result
val to_json : t -> Dssoc_json.Json.t
(** [of_json (to_json t) = Ok t]. *)

val of_file : string -> (t, string) result
val to_file : string -> t -> unit
