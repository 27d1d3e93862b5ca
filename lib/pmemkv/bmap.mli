(** bmap — persistent string-keyed B-tree engine behind {!Engine.S};
    callers use it through {!Engine}.

    The ordered counterpart to {!Cmap}: order-8 PM nodes linking
    out-of-line immutable item objects
    ([node: n | leaf | children oids | item oids],
    [item: klen | vlen | key | value]), generalizing the
    [lib/indices/btree_map] discipline to variable-size keys/values.

    Every mutation is copy-on-write inside the op: fresh path nodes are
    batch-allocated and stored through the variant's range check while
    unreachable, only the root slot oid is staged, and replaced
    nodes/items are batch-freed — so each op is individually atomic,
    recovery lands on a whole-op prefix, and the fresh stores ride the
    replication payload, as {!Cmap}'s do. [create] allocates only the
    one-oid root slot and ignores [nbuckets]; [root_oid] is that slot.
    A scan is an in-order traversal pruned below [lo] and cut at
    [hi]/[limit] — O(log n + k), the workload this engine exists for. *)

include Engine.S

val order : int
(** Node fanout (8), shared with [lib/indices/btree_map]. *)
