(** Pool facade — the libpmemobj-equivalent public API.

    Mirrors PMDK: {!alloc}/{!free_}/{!realloc} are the atomic object API,
    {!with_tx}/{!tx_add_range}/{!tx_alloc}/{!tx_free} the transactional
    one, {!direct} is [pmemobj_direct], {!root} is [pmemobj_root]. In
    [Mode.Spp] pools, {!direct} returns a tagged pointer and every stored
    PMEMoid carries the extra durable size field, maintained crash
    consistently (paper §IV-B, §IV-F). *)

open Spp_sim

type t

exception Wrong_pool of Oid.t
(** An oid whose [uuid] does not belong to this pool. *)

(** {1 Lifecycle} *)

val create :
  ?redzone:int ->
  Space.t -> base:int -> size:int -> mode:Mode.t -> name:string -> t
(** Create and format a pool mapped at [base]. In SPP mode the pool must
    fit below the tag configuration's address span ([Invalid_argument]
    otherwise — the paper maps pools to the lower address space).
    [redzone] (default 0, a multiple of 8) pads each side of every
    allocation — SafePM's redzones. It is recorded in the header, so a
    reopened pool or a replica maps oids to blocks as this one does. *)

type recovery_report = {
  redo_replayed : bool;
  tx_outcome : [ `Clean | `Rolled_back | `Completed_commit ];
}

type pool_error =
  | Bad_header of string
      (** Magic, mode word, tag bits or size field unusable. *)
  | Bad_checksum of { stored : int; computed : int }
      (** Header identity checksum mismatch (media bit rot). *)
  | Truncated of { expected : int; actual : int }
      (** Device smaller than the minimum pool or the header's size field. *)
  | Corrupt_log of string
      (** Redo/undo log area failed to parse during recovery. *)

val pool_error_to_string : pool_error -> string
val pp_pool_error : Format.formatter -> pool_error -> unit

val open_dev :
  Space.t -> base:int -> Memdev.t -> (t * recovery_report, pool_error) result
(** Open an existing pool device: map, validate the header (magic, size,
    mode, identity checksum), and run recovery (redo replay, then
    transaction rollback/completion). A corrupt image yields a typed
    [Error] with the region unmapped again — no exception escapes. *)

val of_dev : Space.t -> base:int -> Memdev.t -> t
(** {!open_dev}, raising [Invalid_argument] on any [pool_error] —
    the legacy interface for callers that treat corruption as fatal. *)

val magic_word : int
(** First durable word of every pool image ("SPP_PM"); pass to
    [Memdev.load_durable ~magic] to reject foreign files early. *)

val min_pool_size : int

val recover : t -> recovery_report
val crash_and_recover : t -> recovery_report
(** Simulated power failure (unfenced stores lost) followed by open-time
    recovery of the same pool. *)

(** {1 Accessors} *)

val space : t -> Space.t
val dev : t -> Memdev.t
val base : t -> int
val size : t -> int
val mode : t -> Mode.t
val uuid : t -> int
val oid_stored_size : t -> int
(** Bytes a PMEMoid occupies in PM: 16 native, 24 SPP. *)

val heap_base : t -> int

val redzone : t -> int
(** Bytes padding each side of every user range; 0 unless given to
    {!create}. *)

(** {1 Atomic object management}

    Each call is one redo log: it stages its allocator words (and the
    [dest] slot's) through the same path as a group-commit operation
    and commits them at once ({!Redo.atomically}), at the protocol's
    four fences, whatever the call. A virgin block's header, a zeroed
    block and a realloc's copied bytes are flushed and drained by the
    first of those fences, before the log publishes the block. *)

val alloc : ?zero:bool -> ?dest:int -> t -> size:int -> Oid.t
(** [pmemobj_alloc]/[_zalloc]. [dest] is the pool offset of a PM oid slot
    published atomically with the allocation; the oid's size entry is
    ordered before its offset entry (paper §IV-F). The block is
    [size + 2 * redzone] bytes and the oid points past its left redzone.
    Raises [Heap.Out_of_pm] when the pool is full and
    [Spp_core.Encoding.Object_too_large] when the object exceeds the tag
    limit in SPP mode. *)

val free_ : ?dest:int -> t -> Oid.t -> unit
(** [pmemobj_free]; [dest] additionally clears the oid slot atomically. *)

val realloc : ?dest:int -> t -> Oid.t -> size:int -> Oid.t

val alloc_size : t -> Oid.t -> int
(** The size the object was requested with. *)

val usable_size : t -> Oid.t -> int
(** Class-rounded block capacity less the redzones
    ([pmemobj_alloc_usable_size]). *)

val block_off : t -> Oid.t -> int
(** Data offset of the block holding [oid]: [redzone] bytes before it. *)

val direct : t -> Oid.t -> int
(** [pmemobj_direct]: 0 for the null oid; otherwise the object's
    simulated address — tagged in SPP mode. *)

(** {1 Root object} *)

val root : t -> size:int -> Oid.t
(** [pmemobj_root]: allocated (zeroed, redzones included) once,
    atomically, into the header's root slot, as one atomic call. *)

val root_oid : t -> Oid.t

(** {1 Transactions} *)

val tx_begin : t -> unit
val tx_add_range : t -> off:int -> len:int -> unit
val tx_add_range_oid : t -> Oid.t -> unit

val tx_alloc : ?zero:bool -> t -> size:int -> Oid.t
(** Reserves like {!alloc}, appends the undo record, then commits the
    reservation as one redo log. If the record does not fit
    ([Tx.Tx_log_full]) nothing is published and the free lists are
    rebuilt at the next allocation. *)

val tx_realloc : t -> Oid.t -> size:int -> Oid.t
val tx_free : t -> Oid.t -> unit
val with_tx : t -> (unit -> 'a) -> 'a
(** Run [f] inside a transaction; any exception aborts (undo) and is
    re-raised — including simulated faults from SPP overflow detection. *)

val in_tx : t -> bool

(** {1 Group commit}

    [with_batch] runs [f] with an open {!Redo.batch}: consecutive
    operations stage their redo entries into one shared log and the
    fence schedule is paid once per (sub-)batch instead of once per op.
    The pool's transaction lane and allocator lock are held for the
    batch's whole lifetime, so batches serialize against transactions
    and atomic-API calls; concurrent readers of the *data structures
    built on top* must be excluded by the caller (the serve queue gives
    each shard's batch exclusive ownership). On a crash — or an
    exception from [f] — the durable state lands on a prefix of whole
    staged operations, never inside one. *)

val with_batch : t -> (Redo.batch -> 'a) -> 'a

val batch_stage_word : t -> Redo.batch -> off:int -> int -> unit

val batch_load_oid : t -> Redo.batch -> off:int -> Oid.t
val batch_stage_oid :
  t -> Redo.batch -> off:int -> prev:Oid.t -> Oid.t -> unit
(** Mode-aware oid slot IO through the batch overlay; in SPP mode the
    staged size entry precedes the offset entry, preserving the paper's
    §IV-F ordering through group commit. [batch_stage_oid ~off ~prev oid]
    stages only the fields of [oid] that differ from [prev], which must
    be what the slot holds now — the oid the caller just read through
    {!batch_load_oid}. *)

val batch_alloc : t -> Redo.batch -> size:int -> Oid.t
(** Allocation staged into the open batch op ({!Heap.alloc_batched});
    the caller publishes the oid by staging it into a reachable slot. *)

val batch_free : t -> Redo.batch -> Oid.t -> unit

val batch_buffer : t -> Redo.batch -> int -> Bytes.t
(** The pool's reusable DRAM buffer of at least [len] bytes in which an
    op composes a fresh block ({!Redo.batch_buffer}); it is the caller's
    until the next call. {!batch_alloc} never touches it. *)

val batch_write :
  t -> Redo.batch -> off:int -> Bytes.t -> pos:int -> len:int -> unit
(** Store one contiguous range of a fresh block, composed in [buf] from
    [pos], at pool offset [off] with a single store past the log
    ({!Redo.batch_write}). A replicated pool also keeps the bytes for
    the op's commit payload; the caller flushes the block once. *)

val put_word : Bytes.t -> pos:int -> int -> unit
val put_oid : t -> Bytes.t -> pos:int -> Oid.t -> unit
(** Compose a word or a mode-aware oid slot into a DRAM buffer, in the
    byte layout {!store_word}/{!store_oid} give it in PM. *)

(** {1 PMEMoid slots and raw words (pool offsets)} *)

val load_oid : t -> off:int -> Oid.t
val store_oid : t -> off:int -> Oid.t -> unit
(** Mode-aware oid slot IO; in SPP mode the size field is written before
    the offset field. Inside a transaction the caller must have
    snapshotted the slot (as in PMDK). *)

val view_load_oid : t -> Space.view -> off:int -> Oid.t
(** Same layout, read raw through an opened {!Space.view}: the window's
    checks were already paid at view acquisition. *)

val load_word : t -> off:int -> int
val store_word : t -> off:int -> int -> unit
val persist : t -> off:int -> len:int -> unit

val addr_of_off : t -> int -> int
val off_of_addr : t -> int -> int

(** {1 Accounting} *)

val heap_stats : t -> Heap.stats

val fold_blocks :
  t -> 'a -> ('a -> data_off:int -> state:int -> 'a) -> 'a * int option
(** The heap walk behind {!heap_stats} ({!Heap.fold_blocks}). *)

(** {1 Lifetimes}

    One observer per pool hears every block the program sees become
    live or dead, with the user oid and its requested size — what a
    checker (SafePM's shadow, memcheck's table) needs to stay exact on
    every allocation path:
    - {!alloc}, {!free_}, {!realloc} and {!root}, once their redo run is
      done; a realloc reports the old block dead, then the new one live;
    - a transaction's allocation once it is published, its free when it
      is called, and on abort the opposite of each, newest first;
    - a batch's allocation when {!batch_alloc} hands it out, so a later
      op of the batch may read the block through a checker; its frees at
      the commit that carries them, before a later op can take the block
      again; and, when the batch raises, [Dead] for every allocation of
      its uncommitted ops.
    Recovery reports nothing. The observer runs on the calling domain.
    The atomic and transactional paths call it after the pool lock is
    released, so it may call back into the pool (a transactional shadow
    write snapshots through {!tx_add_range}). A batch calls it under the
    lock: no transaction is open then, so a shadow write takes no lock. *)

type lifetime = Rep.lifetime = Live | Dead

val set_lifetime_observer : t -> (lifetime -> Oid.t -> unit) option -> unit

(** {1 Replication}

    Group-committed batches can be replicated: an observer installed on
    the primary fires once per committed sub-batch with a
    {!batch_payload} — the commit's redo entries plus the fresh-block
    bytes {!batch_write} stored past the log — strictly after the
    commit is durable, so a payload never describes state a crash
    could take back.
    Applying the payload stream in order onto a pool opened from the
    primary's durable image ({!Spp_sim.Memdev.of_image} +
    {!open_dev}) keeps the replica bit-identical to the primary after
    every shipped commit. Only the batched path ([with_batch]) is
    replicated — every engine mutation takes it, a synchronous put or
    remove as a one-op batch; the transactional and atomic APIs are not
    observed. *)

type batch_payload = Rep.batch_payload = {
  p_entries : (int * int) list;    (** redo entries, application order *)
  p_ops : int;                     (** whole operations covered *)
  p_writes : (int * Bytes.t) list; (** direct ranges (pool off, bytes) *)
}

val set_batch_observer : t -> (batch_payload -> unit) option -> unit
(** Install (or clear) the per-commit observer. The observer runs on
    the committing domain, inside the batch's critical section; an
    exception it raises aborts the remainder of the batch (the
    committed prefix stays durable). *)

val apply_batch_payload : t -> batch_payload -> unit
(** Import one shipped commit on a replica pool ({!Redo.apply_payload}):
    blobs first, then entries through the full redo protocol. *)
