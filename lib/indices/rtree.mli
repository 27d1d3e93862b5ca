(** rtree — radix tree with 256-way fan-out over the key's 8 bytes
    (PMDK's [rtree_map]).

    Every node embeds 256 PMEMoids, which is what turns SPP's 8-byte-
    per-oid metadata into visible PM space overhead — the paper's
    Table III outlier (+39.7%). Remove prunes empty nodes bottom-up. *)

type t

val name : string
val create : Spp_access.t -> t
val insert : t -> key:int -> value:int -> unit
val get : t -> int -> int option
val remove : t -> int -> int option
