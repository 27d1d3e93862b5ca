(** Byte-addressable memory device with an explicit durability model.

    A device holds one byte image, its {e view} (what loads and stores
    observe — i.e. including CPU caches). With tracking disabled (the
    benchmark fast path) the view of a persistent device is also its
    {e durable image} (what survives a crash): stores are immediately
    durable. Only while store tracking is enabled does the device keep a
    second, separate durable image, which a store reaches only after it
    has been flushed ([CLWB]) and drained by a fence ([SFENCE]) — the
    regime used by crash simulation and the pmemcheck-style checker.
    Pending stores are indexed by cacheline, so a flush costs O(lines
    covered) and a fence O(f log f) in the stores it drains. *)

type t

val cacheline : int
(** Cacheline size in bytes (64); flush granularity. *)

(** {1 Construction} *)

val create_volatile : name:string -> int -> t
(** [create_volatile ~name size] — DRAM-like device, no durable image. *)

val create_persistent : name:string -> int -> t
(** [create_persistent ~name size] — PM-like device; untracked, its view
    is its durable image and survives a crash (see {!set_tracking}). *)

val of_image : name:string -> Bytes.t -> t
(** Persistent, untracked device that adopts the given bytes as its view
    and durable image — no copy; the caller must not touch them again.
    Used to reopen snapshots ({!durable_snapshot}) in a fresh stack. *)

val name : t -> string
val size : t -> int
val is_persistent : t -> bool

val set_tracking : t -> bool -> unit
(** Enable/disable store tracking. Enabling splits a separate durable
    image off the view (a no-op on an already tracked device). Disabling
    drops it, so the view — pending stores included — is the durable
    image again, and clears pending stores and the trace. Raises
    [Invalid_argument] when enabling on a volatile device. *)

val tracking : t -> bool
(** Whether store tracking is on, i.e. the device keeps a separate
    durable image. *)

(** {1 Loads and stores}

    All offsets are device-relative; range violations raise
    [Invalid_argument] (address-space faults are the job of {!Space}). *)

val load_bytes : t -> off:int -> len:int -> Bytes.t
val load_into : t -> off:int -> len:int -> dst:Bytes.t -> dst_off:int -> unit
val store_bytes : t -> off:int -> Bytes.t -> src_off:int -> len:int -> unit
val store_string : t -> off:int -> string -> unit
val fill : t -> off:int -> len:int -> char -> unit

val blit : src:t -> src_off:int -> dst:t -> dst_off:int -> len:int -> unit
(** Device-level copy, memmove-safe for overlapping ranges on one
    device. Checks the source for bad blocks like a load, then lands on
    the destination with full store semantics (durability tracking,
    injector event, power-off discard) — without materializing an
    intermediate buffer the way a load/store pair would. *)

(** Allocation-free typed stores (hot paths). *)

val store_u8 : t -> off:int -> int -> unit
val store_u16 : t -> off:int -> int -> unit
val store_u32 : t -> off:int -> int -> unit
val store_word : t -> off:int -> int -> unit

val unsafe_view : t -> Bytes.t
(** Direct access to the view buffer, for fast typed accessors in {!Space}.
    Mutations through it bypass durability tracking. *)

(** {1 Durability} *)

val flush : t -> off:int -> len:int -> unit
(** CLWB: mark pending stores intersecting the cacheline-expanded range as
    flushed. Durable only after the next {!fence}. *)

val fence : t -> unit
(** SFENCE: drain flushed pending stores to the durable image, in program
    order. *)

val persist : t -> off:int -> len:int -> unit
(** [flush] followed by [fence] — PMDK's [pmem_persist]. *)

(** {1 Fault injection}

    Hooks for the torture harness: a pluggable injector observes every
    durability event; bad blocks model uncorrectable media errors
    (SIGBUS on load, the hardware fault-delivery model Memory Tagging
    relies on); {!corrupt_durable} models silent media bit rot. *)

type hook_event =
  | Hk_store of { off : int; len : int }
  | Hk_flush of { off : int; len : int }
  | Hk_fence

val set_injector : t -> (hook_event -> unit) option -> unit
(** Install (or clear) the injector, called after every store, flush and
    fence has taken effect. An injector that raises models a power
    failure at exactly that event; it may also poison the device through
    {!corrupt_durable}/{!add_bad_block}. *)

val add_bad_block : t -> off:int -> len:int -> unit
(** Mark a region as failed media: any load intersecting it raises
    [Fault.Fault (Bus_error, addr)]. Stores still land (real PM accepts
    writes to relocated bad blocks). *)

val clear_bad_blocks : t -> unit

val check_load : t -> off:int -> len:int -> unit
(** Raise [Bus_error] if the range intersects a bad block. Exposed for
    {!Space}'s direct-view fast paths. *)

val corrupt_durable : t -> off:int -> bit:int -> unit
(** Flip bit [bit land 7] of the durable byte at [off] (and its view
    mirror; once when they are one image) — a seeded-bit-rot primitive
    for media-fault torture. *)

val power_off : t -> unit
(** Freeze the device at the instant of a simulated power failure: every
    subsequent store, flush and fence is silently discarded until
    {!crash} restarts it. An injector calls this before raising so that
    the dying process's unwind handlers (e.g. a transaction abort) cannot
    tidy the media post-mortem. *)

val is_powered_off : t -> bool

(** {1 Crash simulation} *)

type store_rec

val crash : t -> unit
(** Power failure: pending stores are lost and the view is reset to the
    durable image — which leaves an untracked persistent device as it
    is. A volatile device is zeroed. *)

val pending_stores : t -> store_rec list
(** Stores not yet drained to the durable image, in program order. *)

val crash_applying : t -> store_rec list -> unit
(** [crash_applying t subset] — crash where the chosen subset of pending
    stores happened to reach the media first (pmreorder exploration). *)

(** {1 Trace and accounting} *)

type event =
  | Ev_store of { off : int; len : int; data : Bytes.t }
  | Ev_flush of { off : int; len : int }
  | Ev_fence

val trace : t -> event list
(** Program-order event trace (tracking mode only). *)

val clear_trace : t -> unit

type counters = {
  stores : int;
  flushes : int;
  fences : int;
  batched_ops : int;   (** operations that rode a group commit *)
  fences_saved : int;  (** fences a one-commit-per-op execution would have added *)
}

val counters : t -> counters
val reset_counters : t -> unit

val note_batch : t -> ops:int -> fences_saved:int -> unit
(** Credit a group commit covering [ops] operations that avoided
    [fences_saved] fences versus committing each op separately. Called by
    the redo batch layer; purely accounting, no durability effect. *)

val merge_counters : counters list -> counters
(** Fieldwise sum over a set of per-shard devices. *)

val durable_snapshot : t -> Bytes.t
(** Copy of the current durable image. *)

(** {1 Host-file persistence} *)

val save_durable : t -> string -> unit
(** Write the durable image to a host file (a pool file as under
    [/mnt/pmem]). *)

val load_durable : name:string -> ?min_size:int -> ?magic:int -> string -> t
(** Recreate a persistent device from a pool file. Raises
    [Invalid_argument] with a descriptive message when the file is
    smaller than [min_size] (default 16 — one magic word plus change) or
    when [magic] is given and the first little-endian word differs —
    catching truncated and foreign files before they decode as garbage
    downstream. *)
