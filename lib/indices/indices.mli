(** Uniform dispatcher over the persistent indices, used by the benchmark
    harness, the CLI and the examples. *)

type instance = {
  ix_name : string;
  insert : key:int -> value:int -> unit;
  get : int -> int option;
  remove : int -> int option;
}

val names : string list
(** ["ctree"; "rbtree"; "rtree"; "hashmap_tx"; "btree"] *)

val create : string -> Spp_access.t -> instance
(** Raises [Invalid_argument] on an unknown index name. The btree is
    created with the fixed (non-buggy) remove path. *)

val of_btree : Btree_map.t -> instance
