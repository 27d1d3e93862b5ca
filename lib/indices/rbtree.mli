(** rbtree — red-black tree with a sentinel nil node (PMDK's
    [rbtree_map], following CLRS).

    Nodes are PM objects ([color | key | value | parent | left | right]);
    every node is snapshotted before mutation, so insert/remove are crash
    atomic. {!check_invariants} verifies the red-black and BST properties
    and is exercised by the property-based tests. *)

type t

val name : string
val create : Spp_access.t -> t

val insert : t -> key:int -> value:int -> unit
val get : t -> int -> int option
val remove : t -> int -> int option

type invariant_error =
  | Red_red of int              (** red node with a red child *)
  | Black_height_mismatch
  | Bst_violation of int

val check_invariants : t -> invariant_error list
(** Empty list = all red-black tree invariants hold. *)
