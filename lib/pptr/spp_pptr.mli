(** Typed persistent pointers — the libpmemobj-cpp analogue (paper
    §IV-B, "C++ support").

    A phantom-typed ['s ptr] wraps a PMEMoid; struct layouts are declared
    field by field and their offsets are computed against the access
    layer's mode-dependent oid footprint (16 B native / 24 B SPP), so the
    same declaration works on both pool modes and [sizeof]-driven undo
    logging covers SPP's extra bytes. All dereferences run through the
    variant's access functions and inherit its protection. *)

type 's ptr

val null : 's ptr
val is_null : 's ptr -> bool
val equal : 's ptr -> 's ptr -> bool

(** {1 Layouts} *)

type 's layout
type ('s, 'v) field

val layout : Spp_access.t -> 's layout
(** Start declaring a struct for this machine. *)

val word : 's layout -> ('s, int) field
val pptr : 's layout -> ('s, 'b ptr) field
(** An embedded persistent pointer; its size follows the pool mode. *)

val fixed_string : 's layout -> len:int -> ('s, string) field
(** NUL-terminated within a fixed [len]-byte field; storing a string of
    [len] or more characters raises [Invalid_argument]. *)

val seal : 's layout -> 's layout
val size_of : 's layout -> int

(** {1 Objects} *)

val alloc : ?zero:bool -> 's layout -> 's ptr
val direct : 's layout -> 's ptr -> int
(** The underlying (possibly tagged) application pointer. *)

(** {1 Field access} *)

val get : 's layout -> 's ptr -> ('s, 'v) field -> 'v
val set : 's layout -> 's ptr -> ('s, 'v) field -> 'v -> unit

(** {1 Transactions} *)

val tx_add_field : 's layout -> 's ptr -> ('s, 'v) field -> unit
val with_tx : 's layout -> (unit -> 'a) -> 'a
