(** Interposed memory-intrinsic and string functions
    ([__wrap_memcpy], [__wrap_strcpy], …; paper §IV-D, §V-B).

    Each wrapper updates the tag of every PM-pointer argument by the
    furthest offset the built-in will touch, masks it, and performs the
    operation with the masked addresses. An overflow makes the masked
    address unmapped, so the operation faults before any corruption. *)

open Spp_sim

val wrap_memcpy : Config.t -> Space.t -> dst:int -> src:int -> len:int -> unit
val wrap_memmove : Config.t -> Space.t -> dst:int -> src:int -> len:int -> unit
val wrap_memset : Config.t -> Space.t -> dst:int -> c:char -> len:int -> unit

val wrap_strlen : Config.t -> Space.t -> int -> int
val wrap_strcpy : Config.t -> Space.t -> dst:int -> src:int -> unit
val wrap_strncpy : Config.t -> Space.t -> dst:int -> src:int -> n:int -> unit
val wrap_strcat : Config.t -> Space.t -> dst:int -> src:int -> unit
val wrap_strcmp : Config.t -> Space.t -> int -> int -> int
