(** btree — order-8 B-tree (PMDK's [btree_map] example), including a
    faithful reproduction of the upstream overflow the paper detects
    with SPP (§VI-D, pmdk issue #5333).

    With [~buggy:true], the remove path's item shift moves one element
    too many through the interposed [memmove], reading past the node
    object when the node is full — detected by SPP's wrapper, silent on
    native PMDK. *)

type t

val name : string

val create : ?buggy:bool -> Spp_access.t -> t
(** [buggy] defaults to [false] (the fixed code). *)

val attach : Spp_access.t -> root:Spp_pmdk.Oid.t -> t
(** Re-attach to an existing tree after a pool reopen, given the
    root-slot oid ({!map_oid} of the original), with the fixed remove
    path. Raises [Invalid_argument] if the slot's durable allocation
    cannot hold an oid. *)

val map_oid : t -> Spp_pmdk.Oid.t
(** The root-slot object's oid — the single durable handle; park it in
    the pool root so the tree survives a restart. *)

val insert : t -> key:int -> value:int -> unit
val get : t -> int -> int option
val remove : t -> int -> int option

val range : t -> lo:int -> hi:int -> (int * int) list
(** All pairs with [lo <= key <= hi] in ascending key order — in-order
    traversal pruned at both bounds. *)
