(** Redo log: atomic application of a batch of word writes (paper §IV-F).

    Write entries + count, persist; set the valid flag, persist; apply in
    order; clear the flag. A crash before the flag is durable loses the
    whole batch; after it, {!recover} re-applies the idempotent entries.
    Entry order is significant: SPP relies on the oid size entry
    preceding the offset entry. Every log is staged through a {!batch}:
    a group commit's many operations, or the one operation of
    {!atomically}. *)

exception Redo_full

val recover : Rep.t -> bool
(** Returns [true] when a valid log was replayed. *)

(** {1 Group commit}

    A batch accumulates the redo entries of several consecutive
    operations and commits them through one log write — one fence
    schedule for N ops instead of N. Staged words live in a volatile
    overlay until the commit applies them; reads from batch code must go
    through {!batch_load} to observe earlier staged ops. Entries join
    the log only at {!batch_op_end}, so a crash-time replay always lands
    on a prefix of whole operations, never inside one. When staging
    would overflow the log area the accumulated complete ops are
    committed early (a sub-batch, still all-or-nothing); {!batch_finish}
    commits whatever remains. Fence savings are credited to the pool's
    device via {!Memdev.note_batch}. A block an op frees joins the
    allocator's DRAM free stack only once the commit carrying that op
    is durable ({!batch_defer_free}). *)

type batch

val batch_begin : Rep.t -> batch
(** Callers serialize batches against transactions themselves — see
    [Pool.with_batch]. The overlay is the pool's own table, emptied
    here, so one batch per pool may be open at a time. *)

val batch_load : batch -> int -> int
(** Word at a pool offset as the batch sees it: the staged overlay
    value when present, the media view otherwise. *)

val batch_stage : batch -> off:int -> v:int -> unit
(** Stage a word write into the open operation. Raises
    [Invalid_argument] outside {!batch_op_begin}/{!batch_op_end}. *)

val batch_op_begin : batch -> unit
val batch_op_end : batch -> unit
(** Operation boundary markers: entries staged between them form one
    atomic unit within the batch. [batch_op_end] may sub-commit the
    previously accumulated ops to make room. *)

val batch_buffer : batch -> int -> Bytes.t
(** The pool's compose buffer, at least [len] bytes long: the DRAM
    image in which an op builds a fresh block before {!batch_write}
    stores it. One buffer per pool, reused by every batch; its contents
    are the caller's until the next [batch_buffer] call. *)

val batch_write : batch -> off:int -> Bytes.t -> pos:int -> len:int -> unit
(** [batch_write b ~off buf ~pos ~len] stores [len] bytes of [buf] from
    [pos] at pool offset [off] with one store, past the log: the open
    operation's fresh blocks (entry bodies, nodes, items, virgin block
    headers) are unreachable until a staged word publishes them. The
    caller flushes the block; the commit's first fence drains it. When
    the pool has a batch observer the bytes are also kept, and they
    join the operation's commit in its replication payload, so a
    commit never reads PM to replicate. Raises [Invalid_argument]
    outside an operation. *)

val batch_defer_free : batch -> ci:int -> data_off:int -> unit
(** Hold back a block the open operation freed: it joins the free stack
    of size class [ci] once the commit carrying the operation's entries
    is durable, never at an earlier overflow commit. *)

val batch_note : batch -> Rep.lifetime -> Oid.t -> unit
(** Note a block the open operation allocated ([Live]) or freed
    ([Dead]), under a lifetime observer ({!Rep.notify}, under the pool
    lock). A [Live] is reported at once, so later operations of the
    batch may read the block through a checker. A [Dead] is reported by
    the commit that carries the operation's entries, once it is durable
    and before the block can be handed out again; an operation that
    never commits reports none. *)

val batch_finish : batch -> unit
(** Commit the remaining accumulated ops and seal the batch. *)

val batch_commits : batch -> int
(** Sub-batch commits issued so far. *)

val batch_abort : batch -> unit
(** The batch raised: report every block its uncommitted operations
    allocated as [Dead]. *)

(** {1 One-op commit} *)

val atomically : Rep.t -> (batch -> 'a) -> 'a
(** [atomically t f] runs [f b] as the only operation of a fresh batch,
    then commits its entries as one redo log (the protocol's four
    fences; none when [f] staged nothing) and pushes the blocks it freed
    onto their stacks — the atomic and transactional APIs' commit. It
    ships no payload to the batch observer and credits no saving. It
    uses the pool's one overlay, so it must not run while a batch is
    open; the pool lock rules that out. If [f] raises, nothing was
    published and the free stacks are left to be rebuilt. *)

(** {1 Replication}

    Each committed sub-batch can be exported as a {!Rep.batch_payload}
    — its redo entries plus the bytes {!batch_write} stored past the
    log — through the pool's batch observer ([Rep.batch_observer], set
    via [Pool.set_batch_observer]). The observer fires strictly after
    the commit is durable on the primary, so a payload never describes
    state the primary could lose. *)

val apply_payload : Rep.t -> Rep.batch_payload -> unit
(** Apply a shipped commit to a replica pool: fresh-block blobs first,
    then the entries through the full redo protocol (the replica's own
    log carries the commit). Applying the payload stream in sequence
    order onto a pool that started from the primary's durable image
    keeps the replica's durable contents bit-identical to the primary's
    state after each shipped commit. *)
