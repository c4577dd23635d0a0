(** Kernel ("shared object") registry.

    The paper's applications ship compute kernels as functions in
    shared-object files; the JSON DAG references them by
    [shared_object] + [runfunc] symbol, and a per-platform entry can
    point at a different object (e.g. ["fft_accel.so"]).  This
    registry reproduces that indirection: named objects map symbol
    names to OCaml closures over the instance's variable {!Store}. *)

type kernel = Store.t -> string list -> unit
(** A kernel receives the instance store and the node's argument list
    (variable names, in JSON order) and communicates only through the
    store. *)

val register_object : string -> (string * kernel) list -> unit
(** Register (or extend) a shared object.  Re-registering a symbol
    replaces it — mirroring dlopen symbol interposition, which Case
    Study 4 exploits to swap a naive DFT for an optimized FFT.

    An accelerator symbol that computes the same transform as a CPU
    symbol should be registered with the same closure value, not a
    second closure built the same way: the deterministic engines
    compute one output image per assignment of distinct closures to
    nodes, so a second closure only costs extra images. *)

val lookup : shared_object:string -> symbol:string -> (kernel, string) result

val lookup_exn : shared_object:string -> symbol:string -> kernel

val objects : unit -> string list
(** Registered object names, sorted. *)

val symbols : string -> string list
(** Symbols of one object, sorted; [[]] if the object is unknown. *)

val resolve :
  app:App_spec.t -> node:App_spec.node -> platform:App_spec.platform_entry ->
  (kernel, string) result
(** Resolve a node's runfunc for a chosen platform entry, honouring the
    per-entry [shared_object] override and defaulting to the
    application's object. *)
