(** bmap — persistent string-keyed B-tree engine ({!Engine.S}).

    The ordered counterpart to {!Cmap}: order-8 PM nodes linking
    out-of-line immutable item objects
    ([node: n | leaf | children oids | item oids],
    [item: klen | vlen | key | value]), generalizing the
    [lib/indices/btree_map] discipline to variable-size keys/values.

    Every mutation is copy-on-write through the redo batch API: fresh
    path nodes are batch-allocated and stored through the variant's
    range check while unreachable, only the root slot oid is staged, and
    replaced nodes/items are batch-freed — so each op is individually
    atomic, recovery lands on a whole-op prefix, and the fresh stores
    ride the replication payload, matching [Cmap.run_batch]'s contract
    exactly. Synchronous [put]/[remove] run as single-op batches, as
    {!Cmap}'s do. *)

type t

val name : string
(** ["btree"] — the engine's registry name (see {!Engines}). *)

val create : ?nbuckets:int -> Spp_access.t -> t
(** Fresh empty tree; allocates only the one-oid root slot. [nbuckets]
    is accepted for {!Engine.S} compatibility and ignored. *)

val attach : Spp_access.t -> root:Spp_pmdk.Oid.t -> t
(** Re-attach after a pool reopen given the root-slot oid
    ({!root_oid} of the original map). The cache starts cold. *)

val root_oid : t -> Spp_pmdk.Oid.t
(** The root-slot object's oid — the single durable handle; park it in
    the pool root so the tree survives a restart. *)

val set_cache : t -> Rcache.t option -> unit
val cache : t -> Rcache.t option
val cache_probe : t -> string -> string option
val cache_invalidate : t -> string -> unit

val put : t -> key:string -> value:string -> unit
val get : t -> string -> string option
val remove : t -> string -> bool
val count_all : t -> int

val scan : t -> lo:string -> hi:string -> limit:int -> (string * string) list
(** Ordered range scan: in-order traversal pruned below [lo] and cut
    at [hi]/[limit] — O(log n + k), the workload this engine exists
    for. Cache-bypassing. *)

val run_batch : ?len:int -> t -> Engine.batch_op array -> Engine.batch_reply array
(** [?len] restricts execution to the first [len] ops, so a reusable
    op buffer can feed every drain without per-batch re-allocation. *)

val order : int
(** Node fanout (8), shared with [lib/indices/btree_map]. *)
