(** SPP tagged-pointer encoding (paper §IV-A).

    The {e delta} field — the tag together with the overflow bit — is a
    [(tag_bits + 1)]-wide two's-complement counter holding the pointer's
    distance from the upper bound of its PM object. It is initialised to
    the negated object size with the overflow bit cleared; pointer
    arithmetic adds the same offset to the delta and address fields, and
    crossing the upper bound carries into the overflow bit, implicitly
    invalidating the address. Arithmetic back below the bound clears it
    again. *)

exception Object_too_large of { size : int; max : int }
(** Raised by {!mk_tagged} when the object exceeds [2^tag_bits] bytes. *)

val is_pm : Config.t -> int -> bool
(** The runtime pointer-kind test on the PM bit ([__spp_is_pm_ptr]). *)

val is_overflowed : Config.t -> int -> bool
(** PM pointer currently beyond its object's upper bound. *)

val mk_tagged : Config.t -> addr:int -> size:int -> int
(** Build the tagged pointer for an object of [size] bytes at virtual
    address [addr] — what the adapted [pmemobj_direct] returns. *)

val update_tag : Config.t -> int -> int -> int
(** [update_tag cfg ptr off] — [__spp_updatetag]: add [off] to the delta
    field; identity on non-PM pointers. Does not move the address field. *)

val update_tag_direct : Config.t -> int -> int -> int
(** [update_tag] without the PM-bit test — for pointers statically known
    to be persistent (paper §V-B). *)

val gep : Config.t -> int -> int -> int
(** Full pointer arithmetic: address field and delta field move together
    (paper Fig. 3). On a volatile pointer this is plain addition. *)

val clean_tag : Config.t -> int -> int
(** [__spp_cleantag]: strip PM bit and tag but {e keep the overflow bit},
    so a subsequent access through an overflown pointer faults. *)

val clean_tag_direct : Config.t -> int -> int

val clean_tag_external : Config.t -> int -> int
(** [__spp_cleantag_external]: also strip the overflow bit, producing a
    plain address for uninstrumented external code — beyond this point SPP
    offers no protection (§IV-G). *)

val check_bound : Config.t -> int -> int -> int
(** [check_bound cfg ptr deref_size] — [__spp_checkbound]: account for the
    access width ([deref_size] bytes) and return the masked address to
    dereference. Overflown ⇒ the returned address is unmapped. *)

val check_bound_direct : Config.t -> int -> int -> int

val address : Config.t -> int -> int
(** Virtual-address field only. *)

val remaining : Config.t -> int -> int
(** Bytes remaining before the object's upper bound (0 when overflown). *)

type decoded = {
  d_pm : bool;
  d_overflow : bool;
  d_tag : int;
  d_addr : int;
}

val decode : Config.t -> int -> decoded
val pp : Config.t -> Format.formatter -> int -> unit
