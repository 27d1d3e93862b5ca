(** Volatile heap allocator over a mapped [Volatile] region.

    The analogue of libc [malloc] in the simulated machine: first-fit free
    list with split/coalesce, OCaml-side metadata (a volatile allocator has
    no crash consistency to maintain). Used by the RIPE volatile-heap
    variant and by workloads that mix DRAM and PM data. *)

type t

val default_base : int
(** Volatile allocations are placed high in the address space
    ([1 lsl 45]); PM pools are mapped low, as with the paper's
    [PMEM_MMAP_HINT=0] configuration. *)

val create : ?base:int -> Space.t -> int -> t
(** [create space size] maps a fresh volatile device of [size] bytes and
    returns an allocator over it. Blocks are 16-byte aligned. *)

val malloc : t -> int -> int
(** Returns the simulated address of a fresh block. Raises [Out_of_memory]
    when the region is exhausted. *)

val free : t -> int -> unit
(** Raises [Invalid_argument] if the address is not a live allocation. *)

val realloc : t -> int -> int -> int

val live_allocations : t -> (int * int) list
val bytes_live : t -> int
