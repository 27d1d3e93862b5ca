(** cmap — the concurrent persistent hashmap engine of pmemkv (the paper's
    §VI-B KV-store benchmark uses pmemkv's non-experimental concurrent
    engine), behind {!Engine.S}; callers use it through {!Engine}.

    Fixed bucket array in PM with chains of variable-size entry objects
    ([next oid | key len | value len | key | value]). [create] defaults
    to 4096 buckets, and [attach ~root] takes the bucket array's oid and
    recovers the bucket count from its durable allocation size. Each op
    is one op of an open redo batch: a put stores a fresh entry through
    the variant's range check and stages the link oid that publishes it
    (the old entry, if any, is freed at the commit), a remove stages the
    unlinking oid. A scan walks every chain and sorts the survivors —
    O(total entries) whatever the range width — and reads values only
    for the pairs it returns. *)

include Engine.S
