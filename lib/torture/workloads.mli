(** Canned workloads for the torture harness.

    Every adapter builds a fresh single-device pool per replay, parks its
    durable handles in the pool root object, and re-attaches through
    those handles in its oracle — the oracle never reuses volatile state
    from before the crash. [variant] picks the access-layer build
    (default {!Spp_access.Spp}); [ops] the number of tortured operations
    (default 24). *)

val kvstore : ?variant:Spp_access.variant -> ?ops:int -> unit -> Torture.workload
(** Synchronous puts (one-op group commits) into a pmemkv cmap. Oracle:
    baseline and all acked keys readable with exact values; later keys
    absent or intact. *)

val pmemlog : ?variant:Spp_access.variant -> ?ops:int -> unit -> Torture.workload
(** Fixed 16-byte appends to a pmemlog. Oracle: committed watermark on a
    record boundary, between acked and appended counts, contents exact. *)

val counter : ?variant:Spp_access.variant -> ?ops:int -> unit -> Torture.workload
(** Two root words incremented together inside one transaction per op,
    which also [tx_alloc]s a cell holding the count, repoints a root oid
    slot at it and [tx_free]s the previous cell. Oracle: halves equal
    and within [acked, ops], the slot's cell holds the count, and
    exactly one cell is live. *)

val kvbatch : ?variant:Spp_access.variant -> ?ops:int -> unit -> Torture.workload
(** Group-committed multi-put (cmap's [Engine.run_batch], two batches;
    the final op updates the first op's key). Oracle: the durable keys
    form a prefix of whole ops — no torn op, no hole, no reordering
    across ops — and every acked batch is fully durable. *)

val kvfailover :
  ?variant:Spp_access.variant -> ?ops:int -> ?drop_rate:float ->
  ?send_retries:int -> ?engine:Spp_pmemkv.Engine.spec -> ?name:string ->
  unit -> Torture.workload
(** The kvbatch program replicated through an inline single-replica
    {!Spp_shard.Replica} group while the primary is tortured. At every
    crash point the oracle promotes the replica and differentials it
    against cold recovery of the primary: both serve a valid whole-op
    prefix, the replica never leads (k_r <= k_p), and — when the channel
    is lossless ([drop_rate = 0], the default) — the lag is bounded by
    one commit and no acked op is missing from the replica. *)

val kvfailover_drop :
  ?variant:Spp_access.variant -> ?ops:int -> unit -> Torture.workload
(** [kvfailover] over a lossy channel (25% drops, 2 attempts): the
    replica may die mid-run, so only the prefix shape and k_r <= k_p are
    required to survive. *)

val kvscan :
  ?variant:Spp_access.variant -> ?ops:int ->
  ?engine:Spp_pmemkv.Engine.spec -> ?name:string -> unit ->
  Torture.workload
(** Interleaved group-committed puts, removes and ordered range scans
    over a pluggable engine (default cmap). Oracle: the recovered
    full-range scan is strictly ascending and byte-equal to the DRAM
    model of some whole-op prefix at or past the acked count — torn
    ops, holes, resurrected removes and unordered scans all break the
    snapshot match. *)

val kvscan_btree :
  ?variant:Spp_access.variant -> ?ops:int -> unit -> Torture.workload
(** [kvscan] over the B-tree engine (registered as ["kvscan-btree"]). *)

val kvreshard :
  ?variant:Spp_access.variant -> ?ops:int ->
  ?engine:Spp_pmemkv.Engine.spec -> ?name:string -> unit ->
  Torture.workload
(** The slot-migration durability protocol (copy, durable claim flip,
    delete) on one device: two engine instances play the source and
    target shards of a migrating slot, a root claim word names the
    owner. The tortured program copies the migrating keys to the target
    in group-committed batches, flips the claim in one transaction, then
    deletes from the source in batches. Oracle: every key served
    exactly once by the claim-named owner — bystanders always on the
    source, migrating keys all on whichever side the durable claim
    names, source leftovers after the flip a whole-op prefix of the
    deletes, and acks never ahead of durability. *)

val kvreshard_btree :
  ?variant:Spp_access.variant -> ?ops:int -> unit -> Torture.workload
(** [kvreshard] over the B-tree engine (registered as
    ["kvreshard-btree"]). *)

val all :
  ?variant:Spp_access.variant -> ?ops:int ->
  ?engine:Spp_pmemkv.Engine.spec -> unit -> Torture.workload list
(** [engine] overrides the KV engine of the engine-polymorphic
    workloads ([kvfailover], [kvscan]); the rest are engine-fixed. *)

val by_name :
  ?variant:Spp_access.variant -> ?ops:int ->
  ?engine:Spp_pmemkv.Engine.spec -> string -> Torture.workload option
(** ["kvstore"], ["pmemlog"], ["counter"], ["kvbatch"], ["kvfailover"],
    ["kvfailover-drop"], ["kvscan"], ["kvscan-btree"], ["kvreshard"] or
    ["kvreshard-btree"]. [engine] as in {!all}. *)
