(** Simulated virtual address space.

    Regions map simulated address ranges onto {!Memdev} devices. Any access
    through an address not covered by a region raises {!Fault.Fault} — the
    analogue of a hardware fault, and the sink for SPP's implicitly
    invalidated (overflown) pointers.

    Translation walks a sorted region array by binary search, fronted by a
    direct-mapped software TLB (64 entries over 4 KiB pages). A TLB entry
    is only installed when its whole page lies inside one region, so a
    region boundary mid-page still faults; map/unmap invalidate the TLB. *)

type t

type kind =
  | Volatile
  | Persistent

val create : unit -> t

(** {1 Mapping} *)

val map :
  t -> base:int -> size:int -> kind:kind -> name:string -> Memdev.t -> unit
(** Map the first [size] bytes of the device at simulated address
    [base]. Raises [Invalid_argument] on overlap or out-of-device ranges. *)

val unmap : t -> base:int -> unit

(** {1 Typed accessors}

    Words are 63-bit OCaml ints stored as 8 little-endian bytes. All
    accessors fault ([Fault.Fault]) on unmapped or region-crossing
    accesses. *)

val load_u8 : t -> int -> int
val load_u16 : t -> int -> int
val load_u32 : t -> int -> int
val load_word : t -> int -> int
val store_u8 : t -> int -> int -> unit
val store_u16 : t -> int -> int -> unit
val store_u32 : t -> int -> int -> unit
val store_word : t -> int -> int -> unit

(** {1 Block operations}

    A block operation counts one load/store event regardless of length;
    the bytes moved are accounted in [pm_bytes_loaded]/[pm_bytes_stored]. *)

val read_bytes : t -> int -> int -> Bytes.t

val read_into : t -> int -> len:int -> dst:Bytes.t -> dst_off:int -> unit
(** Copy [len] bytes at the address into [dst] at [dst_off]. The region
    is resolved once and the device view copied out in chunks; a fault
    mid-range (region boundary or bad block) leaves exactly the clean
    prefix in [dst] and in the counters. One load event total, like
    {!read_bytes}. Raises [Invalid_argument] on a bad destination
    range. *)

val read_sub : t -> int -> int -> string
(** [read_sub t addr len] — the [len]-byte substring at [addr] as a
    string, in a single copy (fresh buffer filled in place and frozen):
    no intermediate [read_bytes] + [Bytes.to_string] double copy. A
    [len] that runs past the end of [addr]'s region — a negative one
    included, as a [size_t] — faults there before anything is allocated
    or copied. *)

val write_bytes : t -> int -> Bytes.t -> unit

val write_sub : t -> int -> Bytes.t -> pos:int -> len:int -> unit
(** [write_sub t addr b ~pos ~len] stores the [len] bytes of [b] from
    [pos] at [addr]: one store event, like {!write_bytes} of that
    sub-buffer, without copying it out first. *)

val write_string : t -> int -> string -> unit
val fill : t -> int -> int -> char -> unit

val blit : t -> src:int -> dst:int -> len:int -> unit
(** Copy [len] bytes between mapped ranges through {!Memdev.blit} — no
    intermediate buffer, memmove-safe for overlapping ranges. *)

val memcmp : t -> int -> int -> int -> int
(** [memcmp t a b len] — lexicographic byte compare without materializing
    either side. Negative, zero or positive like C [memcmp]. *)

val compare_string : t -> int -> len:int -> string -> int
(** [compare_string t addr ~len s] — [String.compare] of the [len]-byte
    device range at [addr] against [s], without materializing the device
    side. Accounting mirrors {!memcmp}: one load event over the range. *)

val equal_string : t -> int -> string -> bool
(** [equal_string t addr s] — device bytes at [addr] equal [s]
    ([compare_string] over [String.length s] bytes). *)

(** {1 C-string helpers} *)

val strlen : t -> int -> int
(** Distance to the first NUL byte. The region is resolved once and the
    device view scanned in chunks; faults if the scan leaves the mapped
    region (exactly like a runaway [strlen] on real hardware). *)

val read_cstring : t -> int -> string

val strcmp : t -> int -> int -> int
(** C [strcmp] over two NUL-terminated strings, scanning the device views
    directly; faults if either scan leaves its mapped region. *)

(** {1 Durability} *)

val flush : t -> int -> int -> unit
val fence_at : t -> int -> unit

val persist : t -> int -> int -> unit
(** Flush + fence with a single translation. *)

val store_word_persist : t -> int -> int -> unit
(** Fused [store_word] + [persist] over the stored word — one translation
    for the whole store/CLWB/SFENCE sequence (the pmdk [store_p] path). *)

(** {1 Accounting} *)

type stats = {
  mutable pm_loads : int;
  mutable pm_stores : int;
  mutable vol_loads : int;
  mutable vol_stores : int;
  mutable pm_bytes_loaded : int;   (** bytes moved by PM loads *)
  mutable pm_bytes_stored : int;   (** bytes moved by PM stores *)
  mutable tlb_hits : int;          (** translations served by the TLB *)
  mutable tlb_misses : int;        (** translations that walked the region array *)
}

val stats : t -> stats
(** The live (mutable) stats record of this space. *)

val snapshot_stats : t -> stats
(** An immutable-by-convention copy of the current counters — safe to
    keep across a [reset_stats] or to hand to {!merge_stats}. *)

val merge_stats : stats list -> stats
(** Fieldwise sum — the aggregate view over a set of per-shard spaces
    after their driving domains have joined. *)

val reset_stats : t -> unit

(** {1 Views — a window opened for raw reads}

    {!read_view} pays the translation, the region bounds and the media
    check once for a whole window; every read through the resulting
    view is a bare access into the device backing store plus a
    window-bounds check (typed {!Out_of_window}). This is the full
    hoisting the SPP memintrinsic hook models: check the furthest byte
    once, run the body unchecked. A view is transient by contract —
    acquire, read, drop — and must not be held across anything that
    could remap the space or poison the device; the mapping and the
    media are only checked as of acquisition time. Accounting is
    block-op style: the window counts as one load event for its full
    length at acquisition. *)

type view

exception Out_of_window of {
  addr : int;      (** window base *)
  window : int;    (** window length *)
  off : int;       (** offending access offset within the window *)
  len : int;       (** offending access length *)
}
(** A read through the view fell outside the window it validated. *)

val read_view : t -> int -> int -> view
(** [read_view t addr len] — open the window [addr, addr+len). Faults
    like {!read_bytes} would (unmapped, region-crossing, bad block);
    [Invalid_argument] on an empty window. *)

val view_word : view -> int -> int
(** The word at an offset within the window. *)

val view_string : view -> off:int -> len:int -> string
(** Single-copy string read of [off, off+len) within the view. *)

val view_compare_string : view -> off:int -> len:int -> string -> int
(** [String.compare] of the [len] view bytes at [off] against the
    string, device side never materialized. *)

val view_equal_string : view -> off:int -> string -> bool
