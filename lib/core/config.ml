(* SPP pointer-encoding configuration.

   The paper splits a 64-bit pointer into [ PM bit | overflow bit | tag |
   virtual address ]. OCaml native ints are 63 bits wide, so the simulated
   machine word is 63 bits and the same layout is

     bit 62          : PM bit
     bit 61          : overflow bit
     bits A .. 60    : tag (tag_bits wide), A = 61 - tag_bits
     bits 0 .. A-1   : virtual address  (addr_bits = A)

   All masks are precomputed here; the delta field manipulated by
   [Encoding] is the (tag_bits + 1)-bit field made of the tag plus the
   overflow bit, exactly as in Delta Pointers. *)

type t = {
  tag_bits : int;
  addr_bits : int;
  pm_bit : int;
  ovf_bit : int;
  addr_mask : int;
  delta_width : int;     (* tag_bits + 1: tag plus overflow bit *)
  delta_mask : int;      (* (1 lsl delta_width) - 1, unshifted *)
  max_object_size : int; (* 1 lsl tag_bits *)
  max_pool_span : int;   (* 1 lsl addr_bits *)
}

let ptr_size = 63

let min_tag_bits = 4
let max_tag_bits = 48

let make ~tag_bits =
  if tag_bits < min_tag_bits || tag_bits > max_tag_bits then
    invalid_arg
      (Printf.sprintf "Spp_core.Config.make: tag_bits %d outside [%d, %d]"
         tag_bits min_tag_bits max_tag_bits);
  let addr_bits = ptr_size - 2 - tag_bits in
  {
    tag_bits;
    addr_bits;
    pm_bit = 1 lsl (ptr_size - 1);
    ovf_bit = 1 lsl (ptr_size - 2);
    addr_mask = (1 lsl addr_bits) - 1;
    delta_width = tag_bits + 1;
    delta_mask = (1 lsl (tag_bits + 1)) - 1;
    max_object_size = 1 lsl tag_bits;
    max_pool_span = 1 lsl addr_bits;
  }

let default = make ~tag_bits:26


let tag_bits t = t.tag_bits
let addr_bits t = t.addr_bits
let max_object_size t = t.max_object_size
let max_pool_span t = t.max_pool_span

let pp ppf t =
  Format.fprintf ppf
    "SPP config: ptr=%d bits [PM:1 | OVF:1 | tag:%d | addr:%d], \
     max object %d B, max pool span %d B"
    ptr_size t.tag_bits t.addr_bits t.max_object_size t.max_pool_span
