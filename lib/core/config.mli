(** SPP pointer-encoding configuration.

    The paper splits a 64-bit pointer into
    [PM bit | overflow bit | tag | virtual address]. The simulated machine
    word is a 63-bit OCaml int, so the layout here is bit 62 = PM bit,
    bit 61 = overflow bit, then a configurable tag, then the virtual
    address ([addr_bits = 61 - tag_bits]). The tag width is tunable exactly
    as in the paper (§IV-A): it bounds the maximum PM object size
    ([2^tag_bits]) and the maximum pool span ([2^addr_bits]). *)

type t = private {
  tag_bits : int;
  addr_bits : int;
  pm_bit : int;
  ovf_bit : int;
  addr_mask : int;
  delta_width : int;      (** tag plus overflow bit: [tag_bits + 1] *)
  delta_mask : int;       (** unshifted mask of the delta field *)
  max_object_size : int;  (** [1 lsl tag_bits] *)
  max_pool_span : int;    (** [1 lsl addr_bits] *)
}

val make : tag_bits:int -> t
(** Raises [Invalid_argument] outside [\[min_tag_bits, max_tag_bits\]]. *)

val default : t
(** 26 tag bits — the paper's evaluation default (§VI-A). *)

val tag_bits : t -> int
val addr_bits : t -> int
val max_object_size : t -> int
val max_pool_span : t -> int

val pp : Format.formatter -> t -> unit
