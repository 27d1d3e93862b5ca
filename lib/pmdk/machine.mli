(** A "machine": one simulated address space with a volatile heap and any
    number of PM pools, with uuid-based pool resolution — the reason
    PMEMoids carry a pool id at all (paper §II-B).

    Pools are mapped one after another in the lower address space
    (matching the paper's [PMEM_MMAP_HINT=0] layout); the volatile heap
    lives high. *)

open Spp_sim

type t

val create : unit -> t
(** A fresh address space with a 4 MiB volatile heap and no pools. *)

val space : t -> Space.t
val vheap : t -> Vheap.t

val create_pool : t -> size:int -> mode:Mode.t -> name:string -> Pool.t
val open_pool : t -> Memdev.t -> Pool.t
(** Map an existing pool device at the next free base and run recovery. *)

val direct : t -> Oid.t -> int
(** [pmemobj_direct] across all mapped pools: dispatches on the oid's
    uuid; raises {!Pool.Wrong_pool} for an unknown pool. *)
