(** hashmap_tx — chained hash map with transactional rehashing (PMDK's
    [hashmap_tx] example).

    Insertions prepend to bucket chains; the table doubles (rehashing
    inside the same transaction) when the load factor exceeds 4. *)

open Spp_pmdk

type t

val name : string
val create : Spp_access.t -> t
val insert : t -> key:int -> value:int -> unit
val get : t -> int -> int option
val remove : t -> int -> int option

val map_oid_of : t -> Oid.t
(** The map descriptor object — used by crash-state checkers to validate
    a recovered image without a live handle. *)
