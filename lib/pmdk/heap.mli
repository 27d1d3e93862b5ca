(** Crash-consistent size-class heap allocator (internal to the pool
    facade; use {!Pool} from application code).

    A block's header holds its requested size (word 0) and its state
    word (word 1). A request for [size] bytes takes a block of
    [size + 2 * redzone] and hands out the oid past its left redzone
    ({!Rep.user_oid}); {!free}, {!free_idempotent} and {!free_batched}
    take the block's data offset. The free lists are volatile, as in
    PMDK: one stack of free blocks per size class, rebuilt lazily from
    the state words by one walk of the carved blocks at the first
    allocation after open, recovery or a batch that raised. An
    allocation makes the state word durable (plus the requested size
    when it changes, and the bump advance on virgin space), a free the
    state word.

    Every call stages through one path, {!alloc_batched} and
    {!free_batched}, into an operation of a redo batch. A group commit
    stages many operations; the atomic calls below stage one, with the
    destination oid after the allocator's words, and commit it at once
    ({!Redo.atomically}), so a crash either keeps the old heap state or
    lands on the new one. The destination oid's size entry precedes its
    offset entry (paper §IV-F). {!Tx.alloc} appends its undo record
    between {!alloc_batched} and that commit. *)

exception Out_of_pm

val alloc_batched : Rep.t -> Redo.batch -> size:int -> Oid.t
(** Allocation staged into the open op of a batch: metadata reads go
    through the batch overlay, update entries join the op, a reused
    block leaves its stack at once, and nothing is published until the
    op commits. *)

val free_batched : Rep.t -> Redo.batch -> data_off:int -> unit
(** Free staged into the open op; the block joins its stack once the
    commit carrying the free is durable. Raises [Invalid_argument] on a
    block the batch does not see as allocated+published. *)

val zero_block : Rep.t -> Oid.t -> unit
(** Zero a block {!alloc_batched} just reserved, redzones included,
    with a flush and no fence: the commit's first fence drains it. *)

(** {1 Atomic calls}

    Each is one operation of {!Redo.atomically}: the redo protocol's
    four fences, nothing more. [dest] is the pool offset of a PM oid
    slot written in the same log. *)

val alloc : Rep.t -> ?zero:bool -> size:int -> dest:int option -> unit -> Oid.t

val free : Rep.t -> data_off:int -> dest:int option -> unit
(** [dest], when given, is cleared in the same log. *)

val free_idempotent : Rep.t -> data_off:int -> unit
(** No-op on a block that is not allocated+published — what recovery
    needs when re-running a finished free. *)

val realloc : Rep.t -> Oid.t -> new_size:int -> dest:int option -> Oid.t

val fold_blocks :
  Rep.t -> 'a -> ('a -> data_off:int -> state:int -> 'a) -> 'a * int option
(** [fold_blocks t init f] folds [f] over the carved blocks in address
    order, up to the durable bump. A header whose size class is out of
    range ends the walk; its data offset is returned as [Some]. *)

type stats = {
  allocated_blocks : int;
  allocated_bytes : int;   (** header + class capacity of live blocks *)
  requested_bytes : int;
  free_blocks : int;
  heap_used : int;
}

val stats : Rep.t -> stats
(** {!fold_blocks} over the heap — the measurement behind Table III. *)
