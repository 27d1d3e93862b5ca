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
    state word; each travels in a single redo batch with the
    destination oid, so a crash either keeps the old heap state or
    lands on the new one. The destination oid's size entry precedes its
    offset entry (paper §IV-F). *)

exception Out_of_pm

type dest =
  | No_dest
  | Pm_slot of int   (** pool offset of a PM oid slot, published atomically *)

type prepared = {
  p_data_off : int;
  p_ci : int;
  p_entries : (int * int) list;
}

val stage_alloc : Rep.t -> size:int -> prepared
(** Pick a block (free stack or bump) without publishing; {!Tx.alloc}
    interposes its undo record between staging and publication. A
    reused block leaves its stack only in {!publish_alloc}. *)

val publish_alloc :
  Rep.t -> prepared -> size:int -> dest:dest -> Oid.t

val alloc : Rep.t -> ?zero:bool -> size:int -> dest:dest -> unit -> Oid.t
val free : Rep.t -> data_off:int -> extra_entries:(int * int) list -> unit
val free_idempotent : Rep.t -> data_off:int -> unit
(** No-op on a block that is not allocated+published — what recovery
    needs when re-running a finished free. *)

val realloc : Rep.t -> Oid.t -> new_size:int -> dest:dest -> Oid.t

val alloc_batched : Rep.t -> Redo.batch -> size:int -> Oid.t
(** Allocation staged into the open op of a group-commit batch: metadata
    reads go through the batch overlay, update entries join the batch,
    and nothing is published until the batch commits. *)

val free_batched : Rep.t -> Redo.batch -> data_off:int -> unit
(** Free staged into the open batch op; the block joins its stack once
    the commit carrying the free is durable. Raises [Invalid_argument]
    on a block the batch does not see as allocated+published. *)

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
