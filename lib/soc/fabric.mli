(** Shared-interconnect (fabric) model.

    Today's per-device {!Dma} model prices each transfer in isolation:
    two accelerators DMAing concurrently see zero slowdown.  This
    module adds the shared medium between DDR and accelerator BRAM —
    an arbitrated bus with an aggregate bandwidth shared fairly among
    the in-flight DMA streams, a bounded AXI-style request FIFO that
    stalls initiators when full, and an optional hop-count NoC
    topology that adds per-hop latency.

    [Ideal] reproduces the legacy per-device timings exactly: engines
    charge [Dma]/[Cost_model] durations unchanged, byte-for-byte.

    Under [Bus], a DMA phase is decomposed into a bandwidth {i demand}
    (all bytes over the aggregate bus bandwidth, served processor-
    sharing style at rate [1/k] when [k] streams are in flight) plus a
    fixed latency term (per-chunk device setup cost and per-hop fabric
    latency) paid after the link service completes.  Streams arriving
    while [fifo_depth] transfers are in flight queue FIFO and the
    initiating manager thread stalls. *)

type topology =
  | Crossbar  (** single-hop: every PE is one hop from DDR *)
  | Mesh of int * int  (** [Mesh (w, h)]: XY-routed grid, DDR at (0,0) *)

type bus = {
  bw_mb_s : float;  (** aggregate bus bandwidth (1 MB/s = 1 byte/us) *)
  fifo_depth : int;  (** max concurrent in-flight DMA streams *)
  hop_ns : int;  (** per-hop fabric latency *)
  topology : topology;
}

type t = Ideal | Bus of bus

val default_bus : bus
(** [bw=2000MB/s, fifo=16, hop=0ns, crossbar]. *)

val hops : topology -> pe_index:int -> int
(** Hop count from DDR to the PE's fabric endpoint (>= 1: the ingress
    hop is always paid).  Mesh slots assign PEs round-robin by index. *)

val demand_ns : bus -> bytes:int -> int
(** Uncontended service time of [bytes] at the full bus bandwidth —
    the bandwidth demand a stream places on the link.  [0] when
    [bytes <= 0].
    @raise Invalid_argument when the duration overflows [max_int]. *)

val fixed_ns : bus -> pe_index:int -> chunks:int -> chunk_lat_ns:int -> int
(** Fixed latency of one DMA phase after its link service:
    [chunks * (chunk_lat_ns + hops * hop_ns)], with the PE's hop count.
    @raise Invalid_argument when the duration overflows [max_int]. *)

val of_spec : string -> (t, string) result
(** Parse a CLI fabric spec: ["ideal"], or ["bus:"] followed by
    comma-separated [key=value] settings over {!default_bus} —
    [bw=2000MB/s] (or [GB/s]), [fifo=16], [hop=50ns],
    [hops=crossbar|mesh2x2].  E.g.
    ["bus:bw=2000MB/s,fifo=16,hops=mesh2x2"]. *)

val fingerprint : t -> string
(** Canonical spec string; stable — folded into sweep cache digests. *)

val pp : Format.formatter -> t -> unit
