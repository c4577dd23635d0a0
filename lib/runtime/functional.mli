(** Functional outputs of a deterministic run.

    The virtual and compiled engines model time only: a duration is
    {!Exec_model.estimate_ns}, pure in the task's cost metadata and the
    PE class.  This module computes what the kernels produce, after the
    run, from each task's recorded PE ([Task.pe_label]; under faults,
    the PE of the final, successful attempt).

    {b Semantics.}  An instance's final store is a fresh store of its
    spec with the kernels of its completed tasks applied in
    {!Dssoc_apps.App_spec.topological_order}, each the closure its
    platform entry resolves to on the recorded PE.  When unordered
    nodes touch disjoint bytes, every linear extension gives this
    store.  When two nodes with no path between them touch the same
    bytes, topological order is the definition for the deterministic
    engines; the native engine runs kernels inline in dispatch order
    and may differ.

    {b Memo.}  One image is computed per (spec, closure each node ran)
    and shared by every instance that maps to it; specs and closures
    are told apart by physical equality. *)

type 'a memo
(** The images of one run, each kept as the value derived from it. *)

val memo : pes:Dssoc_soc.Pe.t list -> (Dssoc_apps.Store.t -> 'a) -> 'a memo
(** An empty memo over the run's PEs; the derivation runs once per image. *)

val image : 'a memo -> Task.instance -> 'a
(** The value derived from the instance's final store. *)

val fill_stores : pes:Dssoc_soc.Pe.t list -> Task.instance array -> unit
(** Write each instance's final store into its [store], with a memo
    that lives for this call. *)
