(** memcheck baseline — a Valgrind-memcheck-like dynamic checker (the
    paper's Table IV "memcheck" variant).

    Validates every access against a side table of live allocation
    intervals at byte granularity, without provenance: an overflow that
    lands inside another live (or slack) region goes unnoticed, and the
    per-access lookup cost is why such tools are debugging-only. *)

exception Violation of { addr : int; len : int }

type t

val attach : Spp_pmdk.Pool.t -> t
(** An empty table that follows the pool's lifetime reports: a live
    block is tracked at its usable (class-rounded) capacity — what
    PMDK's Valgrind annotations report — and a dead one untracked. *)

val check : t -> int -> int -> unit
(** Raises {!Violation} if any byte of the access is unaddressable. *)
