(** libpmemlog analogue: a crash-consistent append-only log over a PM
    object (PMDK's second core library next to libpmemobj, paper §II-B).

    Appends persist the payload past the committed watermark before
    advancing (and persisting) the watermark, so a torn append is
    invisible after a crash. Under an SPP pool the data object is
    tagged, so an append beyond capacity faults instead of trampling a
    neighbouring object. *)

open Spp_pmdk

exception Log_full

type t

val create : Spp_access.t -> capacity:int -> t
val attach : Spp_access.t -> desc:Oid.t -> data:Oid.t -> t
(** Re-attach to an existing log (after reopen). *)

val descriptor : t -> Oid.t
val data_oid : t -> Oid.t

val committed : t -> int
val remaining : t -> int

val append : t -> string -> unit
(** Raises {!Log_full} when the payload does not fit. *)

val read_all : t -> string

val walk : t -> (off:int -> string -> int) -> unit
(** [walk t f]: [f ~off suffix] must return the number of bytes it
    consumed; returning 0 stops the walk ([pmemlog_walk]). *)

val rewind : t -> unit
