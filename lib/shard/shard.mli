(** Domain-parallel sharded KV serving path.

    A shard owns one fully independent simulator stack (persistent
    {!Spp_sim.Memdev} + {!Spp_sim.Space} + pool + KV engine), so
    driving different shards from different domains never mutates
    shared simulator state — the pool is the unit of parallelism, as in
    PMDK's per-pool concurrency model. A hash router partitions the key
    space; merged stats views are summed from per-shard snapshots after
    the driving domains join. *)

type shard

type t

val create :
  ?nbuckets:int -> ?pool_size:int -> ?cache_cap:int ->
  ?engine:Spp_pmemkv.Engine.spec -> ?nslots:int -> nshards:int ->
  Spp_access.variant -> t
(** [create ~nshards variant] builds [nshards] independent shards, each
    with its own pool ([pool_size] bytes, default 8 MiB) and an engine
    over it — [engine] defaults to {!Spp_pmemkv.Engines.cmap}
    ([nbuckets] buckets per shard, default 1024; ordered engines ignore
    it). Each engine's root oid is parked in its pool's root object, so
    a reopened image — or a promoted replica — can re-attach the map
    from durable state alone. [cache_cap > 0] additionally attaches a
    volatile {!Spp_pmemkv.Rcache} of that many entries to every shard
    (default 0: no cache). [nslots] sizes the slot space (a power of
    two, default {!default_nslots}); the initial slot table is the
    static assignment [slot mod nshards]. *)

val set_shard :
  t -> int -> access:Spp_access.t -> kv:Spp_pmemkv.Engine.packed -> unit
(** Failover repoint: make index [i] resolve to a different stack (a
    promoted replica's). The router is a pure function of the key and
    shard count, so no key moves. The caller must guarantee no other
    domain is executing inside the old stack — the serve layer performs
    the swap holding the shard. *)

val nshards : t -> int

val engine : t -> Spp_pmemkv.Engine.spec
(** The engine module every shard of this store runs. *)

val engine_name : t -> string

val shard : t -> int -> shard
val shard_access : shard -> Spp_access.t
val shard_kv : shard -> Spp_pmemkv.Engine.packed

(** {1 Routing}

    Keys hash into a fixed power-of-two slot space; a versioned
    slot->shard table (an immutable snapshot behind an atomic, swapped
    whole by the serve layer's migration protocol) maps slots to
    shards. The static default assignment is [slot mod nshards]. *)

val default_nslots : int
(** Default slot-space size (1024). *)

val slot_of_key : nslots:int -> string -> int
(** The slot in [\[0, nslots)] this key hashes to; [nslots] must be a
    power of two. A pure function of the key and the slot count. *)

val shard_of_key : nshards:int -> string -> int
(** The shard index in [\[0, nshards)] serving this key under the
    static default slot assignment; a pure function of the key and the
    shard count. Agrees with {!route} on any store created with the
    default slot count whose table has not been rewritten. *)

val route : t -> string -> int
(** The shard currently owning this key's slot, per one coherent
    snapshot of the live slot table. *)

val nslots : t -> int
val slot_of : t -> string -> int

val table_version : t -> int
(** Monotonic version of the live slot table; bumped by every
    {!set_slot_owner}. *)

val owner : t -> int -> int
(** [owner t slot] is the shard currently assigned that slot. *)

val assignment : t -> int array
(** A copy of the live slot->shard assignment, one coherent snapshot. *)

val set_slot_owner : t -> slot:int -> shard:int -> unit
(** Install a new table snapshot with [slot] reassigned and the version
    bumped. Single-writer: callers must serialize updates (the serve
    layer holds its migration lock); readers are never blocked. *)

val owned_slots : t -> int -> int
(** How many slots the live table assigns to shard [i]. *)

val slots_of_shard : t -> int -> int list
(** The slots the live table assigns to shard [i], ascending. *)

(** {1 Routed operations} *)

val put : t -> key:string -> value:string -> unit
val get : t -> string -> string option
val remove : t -> string -> bool
val count_all : t -> int

(** {1 Merged accounting}

    Only meaningful once the domains driving the shards have joined —
    [Domain.join] is the synchronization point that makes per-shard
    stats safe to read from the merging domain. *)

val merged_stats : t -> Spp_sim.Space.stats
val merged_counters : t -> Spp_sim.Memdev.counters

val merged_cache_stats : t -> Spp_pmemkv.Rcache.stats
(** Elementwise sum of the per-shard read-cache counters; all zero when
    no shard has a cache attached. *)

val cache_enabled : t -> bool

val reset_stats : t -> unit
(** Also resets the per-shard read-cache counters (not their contents). *)
