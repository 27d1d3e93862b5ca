(** memcheck baseline — a Valgrind-memcheck-like dynamic checker (the
    paper's Table IV "memcheck" variant).

    Validates every access against a side table of live allocation
    intervals at byte granularity, without provenance: an overflow that
    lands inside another live (or slack) region goes unnoticed, and the
    per-access lookup cost is why such tools are debugging-only. *)

exception Violation of { addr : int; len : int }

type t

val create : unit -> t

val track : t -> addr:int -> len:int -> unit
(** Register a live allocation ([len] is typically the usable, class-
    rounded capacity — what PMDK's annotations report). *)

val untrack : t -> addr:int -> unit
(** Raises [Invalid_argument] for an unknown address. *)

val check : t -> int -> int -> unit
(** Raises {!Violation} if any byte of the access is unaddressable. *)

val is_valid : t -> int -> int -> bool
val checks_performed : t -> int
